"""Plain place/transition nets."""

import pytest

from nestnets import BLACK, BLACK_ID, EMPTY, Multiset, NotEnabledError, PetriNet
from nestnets.petri import _check_id


def two_place_net():
    return PetriNet(
        name="n",
        places=("p", "q"),
        transitions=("t", "u"),
        pre={"t": Multiset(["p"]), "u": Multiset(["p", "p"])},
        post={"t": Multiset(["q"]), "u": Multiset(["q", "p"])},
    )


def test_defaults_and_lookup():
    net = PetriNet("n", places=("p",), transitions=("t",))
    assert net.pre_of("t") == EMPTY
    assert net.post_of("t") == EMPTY
    with pytest.raises(ValueError):
        net.pre_of("nope")
    with pytest.raises(ValueError):
        net.post_of("nope")


def test_firing():
    net = two_place_net()
    m = Multiset(["p", "p"])
    assert net.enabled(m, "t")
    assert net.fire(m, "t") == Multiset(["p", "q"])
    assert net.enabled(m, "u")
    assert net.fire(m, "u") == Multiset(["q", "p"])
    assert not net.enabled(Multiset(["q"]), "t")
    with pytest.raises(NotEnabledError):
        net.fire(Multiset(["q"]), "t")


def test_firing_multisets_of_transitions():
    net = two_place_net()
    ts = Multiset(["t", "t", "u"])
    assert net.pre_sum(ts) == Multiset(["p", "p", "p", "p"])
    assert net.post_sum(ts) == Multiset(["q", "q", "q", "p"])


def test_validation():
    with pytest.raises(ValueError, match="^net n: duplicate place id 'p'$"):
        PetriNet("n", places=("p", "p"), transitions=())
    with pytest.raises(ValueError, match="^net n: id 'p' used as both place and transition$"):
        PetriNet("n", places=("p",), transitions=("p",))
    with pytest.raises(ValueError, match="^net n: duplicate transition id 't'$"):
        PetriNet("n", places=("p",), transitions=("t", "t"))
    with pytest.raises(ValueError):
        PetriNet("n", places=("p",), transitions=("t",), pre={"t": Multiset(["zz"])})
    with pytest.raises(ValueError):
        PetriNet("n", places=("p",), transitions=("t",), pre={"nope": Multiset(["p"])})
    with pytest.raises(ValueError):
        PetriNet("n", places=("p;",), transitions=())
    with pytest.raises(ValueError):
        PetriNet("n", places=("a b",), transitions=())
    with pytest.raises(ValueError):
        PetriNet("", places=("p",), transitions=())


def test_black_net():
    assert BLACK.name == BLACK_ID
    assert BLACK.places == ()
    assert BLACK.transitions == ()
    assert BLACK.pre_sum(EMPTY) == EMPTY


def test_equality():
    assert two_place_net() == two_place_net()
    other = PetriNet("n", ("p", "q"), ("t", "u"),
                     pre={"t": Multiset(["p"]), "u": Multiset(["p", "p"])},
                     post={"t": Multiset(["q"]), "u": Multiset(["q", "q"])})
    assert two_place_net() != other
    assert two_place_net() != "n"


def check_id_by_chars(kind, name):
    """The id check as two per-character scans, the reference for `_check_id`."""
    if not isinstance(name, str) or not name:
        raise ValueError(f"{kind} id must be a non-empty string, got {name!r}")
    if any(ch.isspace() for ch in name) or any(ch in name for ch in "{}[]#;"):
        raise ValueError(f"{kind} id {name!r} contains whitespace or reserved characters")


def rejections(check, names):
    """name -> the ValueError text, for each name the check rejects."""
    out = {}
    for name in names:
        try:
            check("place", name)
        except ValueError as exc:
            out[name] = str(exc)
    return out


def test_check_id_matches_per_character_scan():
    chars = [chr(code) for code in range(0x110000)]  # 29 are str.isspace, 6 are {}[]#;
    for names, rejects in ((chars, 29 + 6), ([f"a{ch}b" for ch in chars], 29 + 6),
                           (["", None, 7, "ok", "a b", "x;", " "], 6)):
        rejected = rejections(_check_id, names)
        assert rejected == rejections(check_id_by_chars, names)
        assert len(rejected) == rejects
