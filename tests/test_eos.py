"""Object systems: enabledness predicate, mode enumeration, firing, order."""

import itertools
import random
import re
import sys
from pathlib import Path

import pytest

from nestnets import (
    EMPTY,
    Event,
    EventMode,
    Multiset,
    NestedToken,
    NotEnabledError,
    ObjectSystem,
    PetriNet,
    covers,
    encode_config,
    explore_object_system,
    fire,
    idle_id,
    parse_nunet,
    project_system,
    reduce_nunet,
    replay_object_system,
)
from nestnets.coverability import _object_system_kind
from nestnets.objectsystem import _distributions
from netgen import random_marking, random_object_system
from oracles import eos_mode_keys, eos_successors


DATA = Path(__file__).parent / "data"


def tok(place, *inner):
    return NestedToken(place, Multiset(inner))


def small_system(post_places=("s2", "s3")):
    """One proper object net (a -u-> b), three typed system places."""
    inner = PetriNet("inner", places=("a", "b"), transitions=("u",),
                     pre={"u": Multiset(["a"])}, post={"u": Multiset(["b"])})
    system = PetriNet("outer", places=("s1", "s2", "s3"), transitions=("e",),
                      pre={"e": Multiset(["s1"])}, post={"e": Multiset(post_places)})
    typing = {"s1": "inner", "s2": "inner", "s3": "black"}
    events = [Event.make("ev", "e", {"inner": Multiset(["u"])})]
    return ObjectSystem(system, [inner], typing, events)


# -- construction ------------------------------------------------------------

def test_idle_transitions_synthesized():
    sys_ = small_system()
    assert sys_.system.transitions == ("e", "idle::s1", "idle::s2", "idle::s3")
    for p in ("s1", "s2", "s3"):
        assert sys_.system.pre_of(idle_id(p)) == Multiset([p])
        assert sys_.system.post_of(idle_id(p)) == Multiset([p])


def test_black_net_implicit():
    sys_ = small_system()
    assert "black" in sys_.object_nets
    assert sys_.object_nets["black"].places == ()


def test_construction_rejections():
    inner = PetriNet("inner", places=("a",), transitions=())
    base = PetriNet("outer", places=("s1",), transitions=("e",))
    typing = {"s1": "inner"}

    with pytest.raises(ValueError):  # declared idle id
        ObjectSystem(PetriNet("outer", ("s1",), ("idle::x",)), [inner], typing)
    with pytest.raises(ValueError):  # non-empty net claiming the black id
        ObjectSystem(base, [PetriNet("black", places=("a",))], typing)
    with pytest.raises(ValueError, match="^net outer: duplicate object net id 'inner'$"):
        ObjectSystem(base, [inner, PetriNet("inner")], typing)
    with pytest.raises(ValueError, match="^net outer: id 's1' used as both system place and place of object net other$"):
        ObjectSystem(base, [PetriNet("other", places=("s1",))], typing)
    with pytest.raises(ValueError, match="^net outer: id 'u' used as both transition of object net inner and "
                                         "transition of object net other$"):
        ObjectSystem(base, [PetriNet("inner", ("a",), ("u",)), PetriNet("other", transitions=("u",))], typing)
    with pytest.raises(ValueError, match="^net outer: id 'idle::s1' used as both system transition and "
                                         "place of object net other$"):  # idle ids are synthesized, yet taken
        ObjectSystem(base, [inner, PetriNet("other", places=("idle::s1",))], typing)
    with pytest.raises(ValueError):  # typing misses a place
        ObjectSystem(base, [inner], {})
    with pytest.raises(ValueError):  # typing names an unknown net
        ObjectSystem(base, [inner], {"s1": "nope"})
    with pytest.raises(ValueError, match="^net outer: duplicate event id 'ev'$"):
        ObjectSystem(base, [inner], typing,
                     [Event.make("ev", "e"), Event.make("ev", "e")])
    with pytest.raises(ValueError):  # event on unknown transition
        ObjectSystem(base, [inner], typing, [Event.make("ev", "zz")])
    with pytest.raises(ValueError):  # theta on unknown net
        ObjectSystem(base, [inner], typing,
                     [Event.make("ev", "e", {"zz": Multiset(["u"])})])
    with pytest.raises(ValueError):  # theta on unknown object transition
        ObjectSystem(base, [inner], typing,
                     [Event.make("ev", "e", {"inner": Multiset(["zz"])})])
    with pytest.raises(ValueError):  # idle event firing nothing
        ObjectSystem(base, [inner], typing, [Event.make("ev", "idle::s1")])


@pytest.mark.parametrize("event", [
    Event.make("other", "e", {"ghost": Multiset(["u"])}),  # unknown object net
    Event.make("other", "e", {"inner": Multiset(["zz"])}),  # unknown object transition
    Event.make("other", "zz"),  # unknown system transition
    Event.make("ev", "e"),  # a system event's name, another event
])
def test_foreign_event_is_rejected(event):
    sys_ = small_system()
    m = Multiset([tok("s1", "a")])
    mode = EventMode(event, m, Multiset([tok("s2", "b"), tok("s3")]))
    message = rf"^net outer: unknown event '{event.name}'$"
    with pytest.raises(ValueError, match=message):
        sys_.enabled_modes(m, event)
    with pytest.raises(ValueError, match=message):
        replay_object_system(sys_, m, [mode])
    with pytest.raises(ValueError, match=message):  # whether or not the tokens are there
        replay_object_system(sys_, EMPTY, [mode])


def test_searches_sum_no_theta_after_construction(monkeypatch):
    """Each event's theta sums are taken once, when the system is built."""
    net, init, _ = parse_nunet((DATA / "d0.nupn").read_text())
    red = reduce_nunet(net)
    calls = []
    for name in ("pre_sum", "post_sum"):
        original = getattr(PetriNet, name)
        monkeypatch.setattr(PetriNet, name, lambda self, ts, f=original: calls.append(ts) or f(self, ts))
    result = explore_object_system(red.system, encode_config(net, init), depth=3)
    assert result.edges and calls == []


@pytest.mark.parametrize("name, message", [
    ("e{", "event id 'e{' contains whitespace or reserved characters"),
    ("a b", "event id 'a b' contains whitespace or reserved characters"),
    ("x#y", "event id 'x#y' contains whitespace or reserved characters"),
    ("", "event id must be a non-empty string, got ''"),
])
def test_event_names_follow_the_id_rule(name, message):
    system = PetriNet("outer", places=("s1",), transitions=("e",))
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        ObjectSystem(system, [], {"s1": "black"}, [Event.make(name, "e")])


def test_object_net_ids_hold_no_colon():
    # a place typed by 'a:b' would be written 'p:a:b' and read back as place 'p:a' of type 'b'
    system = PetriNet("outer", places=("p",))
    with pytest.raises(ValueError, match="^object net id 'a:b' contains ':', the separator of a place and its type$"):
        ObjectSystem(system, [PetriNet("a:b", places=("x",))], {"p": "a:b"})


def test_marking_validation():
    sys_ = small_system()
    sys_.validate_marking(Multiset([tok("s1", "a"), tok("s3")]))
    with pytest.raises(ValueError):
        sys_.validate_marking(Multiset(["s1"]))
    with pytest.raises(ValueError):
        sys_.validate_marking(Multiset([tok("zz")]))
    with pytest.raises(ValueError):  # inner token on a foreign place
        sys_.validate_marking(Multiset([tok("s3", "a")]))


def test_equal_tokens_hash_equal():
    # Equal tokens built apart must agree, before and after their sort keys
    # are taken.
    rng = random.Random(12)
    for _ in range(50):
        place, inner = rng.choice(["s1", "s2"]), rng.choices("ab", k=rng.randint(0, 4))
        a, b = tok(place, *inner), tok(place, *reversed(inner))
        assert a is not b and a == b and hash(a) == hash(b)
        a.sort_key()
        c = tok(place, *inner)
        c.sort_key()  # keyed before it is ever hashed
        assert a == b == c and hash(a) == hash(b) == hash(c)
        assert Multiset([a]) == Multiset([b]) and hash(Multiset([a])) == hash(Multiset([b]))


def test_token_is_an_immutable_record():
    a = tok("s1", "b", "a", "a")
    with pytest.raises(AttributeError):
        a.place = "s2"
    with pytest.raises(AttributeError):
        a.inner = EMPTY
    assert repr(a) == "NestedToken(place='s1', inner=Multiset(['a', 'a', 'b']))"
    assert str(a) == "s1 { a:2 b:1 }" and str(tok("s3")) == "s3 { }"
    b = NestedToken("s1", Multiset.from_counts({"b": 1, "a": 2}))
    assert a is not b and a == b and hash(a) == hash(b)
    m = Multiset([a, b, tok("s3")])
    assert m.items() == [(a, 2), (tok("s3"), 1)] and m.count(b) == 2


# -- projections -------------------------------------------------------------

def test_projections():
    m = Multiset([tok("s1", "a", "a"), tok("s1"), tok("s2", "b"), tok("s3")])
    assert project_system(m) == Multiset(["s1", "s1", "s2", "s3"])


# -- the enabledness predicate, hand-checked ---------------------------------

def test_phi_hand_cases():
    sys_ = small_system()
    ev = sys_.events[0]
    lam = Multiset([tok("s1", "a")])
    rho = Multiset([tok("s2", "b"), tok("s3")])
    assert sys_.phi(ev, lam, rho)

    # consumed tokens do not project to the input places
    assert not sys_.phi(ev, Multiset([tok("s1", "a"), tok("s1")]), rho)
    # produced tokens do not project to the output places
    assert not sys_.phi(ev, lam, Multiset([tok("s2", "b")]))
    # the consumed inner marking cannot pay for the object firing
    assert not sys_.phi(ev, Multiset([tok("s1")]), Multiset([tok("s2"), tok("s3")]))
    # produced inner tokens differ from consumed - fired.pre + fired.post
    assert not sys_.phi(ev, lam, Multiset([tok("s2"), tok("s3")]))
    assert not sys_.phi(ev, lam, Multiset([tok("s2", "b", "b"), tok("s3")]))
    assert not sys_.phi(ev, lam, Multiset([tok("s2", "a"), tok("s3")]))


def test_single_mode_and_fire():
    sys_ = small_system()
    ev = sys_.events[0]
    m = Multiset([tok("s1", "a"), tok("s1")])
    modes = sys_.enabled_modes(m, ev)
    assert len(modes) == 1
    mode = modes[0]
    assert mode.lam == Multiset([tok("s1", "a")])
    assert mode.rho == Multiset([tok("s2", "b"), tok("s3")])
    assert sys_.enabled(m, mode)
    assert fire(m, mode) == Multiset([tok("s1"), tok("s2", "b"), tok("s3")])
    with pytest.raises(NotEnabledError):
        fire(Multiset([tok("s1")]), mode)


def test_distribution_across_equal_slots():
    # two output places of the same type: the leftover inner tokens can be
    # split between them, symmetric splits collapse
    sys_ = small_system(post_places=("s2", "s2"))
    ev = sys_.events[0]
    m = Multiset([tok("s1", "a", "a")])
    modes = sys_.enabled_modes(m, ev)
    # aggregate after firing u: {{a, b}} over two s2 slots
    rhos = {mode.rho for mode in modes}
    assert rhos == {
        Multiset([tok("s2"), tok("s2", "a", "b")]),
        Multiset([tok("s2", "a"), tok("s2", "b")]),
    }
    assert len(modes) == 2


def splits_by_brute_force(aggregate, slots):
    """Every split of a multiset over ordered slots, by sending each element
    occurrence to each slot in turn."""
    elements = aggregate.elements()
    return {
        tuple(Multiset(e for e, s in zip(elements, choice) if s == slot).sort_key() for slot in range(slots))
        for choice in itertools.product(range(slots), repeat=len(elements))
    }


def test_distributions_match_brute_force():
    rng = random.Random(31)
    for _ in range(60):
        m = Multiset(rng.choices("abc", k=rng.randint(0, 5)))
        assert list(_distributions(m, 1)) == [[m]]
        for slots in (2, 3):
            splits = [tuple(part.sort_key() for part in split) for split in _distributions(m, slots)]
            assert len(splits) == len(set(splits))
            assert set(splits) == splits_by_brute_force(m, slots)


def test_one_mode_per_token_beyond_recursion_limit():
    # more distinct tokens on the input place than the default recursion limit
    n = sys.getrecursionlimit() + 100
    inner = PetriNet("doc", places=("a",), transitions=(), pre={}, post={})
    system = PetriNet("s", places=("pool", "done"), transitions=("move",),
                      pre={"move": Multiset(["pool"])}, post={"move": Multiset(["done"])})
    sys_ = ObjectSystem(system, [inner], {"pool": "doc", "done": "doc"}, [Event.make("go", "move")])
    m = Multiset(tok("pool", *["a"] * k) for k in range(1, n + 1))
    modes = sys_.enabled_modes(m, sys_.events[0])
    assert [mode.lam for mode in modes] == [Multiset([t]) for t in m.elements()]
    assert [mode.rho for mode in modes] == [Multiset([NestedToken("done", t.inner)]) for t in m.elements()]


def test_idle_event_rewrites_in_place():
    inner = PetriNet("inner", places=("a", "b"), transitions=("u",),
                     pre={"u": Multiset(["a"])}, post={"u": Multiset(["b"])})
    system = PetriNet("outer", places=("s1",), transitions=())
    sys_ = ObjectSystem(system, [inner], {"s1": "inner"},
                        [Event.make("tick", "idle::s1", {"inner": Multiset(["u"])})])
    m = Multiset([tok("s1", "a"), tok("s1")])
    modes = sys_.enabled_modes(m, sys_.events[0])
    assert len(modes) == 1
    assert fire(m, modes[0]) == Multiset([tok("s1", "b"), tok("s1")])


def test_event_multiset_theta():
    # an event may fire the same object transition twice in one step
    inner = PetriNet("inner", places=("a", "b"), transitions=("u",),
                     pre={"u": Multiset(["a"])}, post={"u": Multiset(["b"])})
    system = PetriNet("outer", places=("s1",), transitions=())
    sys_ = ObjectSystem(system, [inner], {"s1": "inner"},
                        [Event.make("two", "idle::s1", {"inner": Multiset(["u", "u"])})])
    m = Multiset([tok("s1", "a", "a", "a")])
    modes = sys_.enabled_modes(m, sys_.events[0])
    assert [mode.rho for mode in modes] == [Multiset([tok("s1", "a", "b", "b")])]
    assert sys_.enabled_modes(Multiset([tok("s1", "a")]), sys_.events[0]) == []


def test_infeasible_when_aggregate_has_no_slot():
    # consumed object tokens but no output place of their type: no mode
    inner = PetriNet("inner", places=("a",), transitions=())
    system = PetriNet("outer", places=("s1", "s2"), transitions=("e",),
                      pre={"e": Multiset(["s1"])}, post={"e": Multiset(["s2"])})
    sys_ = ObjectSystem(system, [inner], {"s1": "inner", "s2": "black"},
                        [Event.make("ev", "e")])
    assert not sys_.is_conservative()
    assert sys_.enabled_modes(Multiset([tok("s1", "a")]), sys_.events[0]) == []
    # with nothing inside, the token can be dropped
    assert len(sys_.enabled_modes(Multiset([tok("s1")]), sys_.events[0])) == 1


def test_conservativity_hand_cases():
    assert small_system().is_conservative()
    assert not small_system(post_places=("s3",)).is_conservative()
    # producing the type without consuming it is fine
    assert small_system(post_places=("s2", "s2")).is_conservative()


# -- oracle equivalence and properties ----------------------------------------

def test_modes_match_oracle():
    rng = random.Random(101)
    for _ in range(150):
        sys_ = random_object_system(rng)
        m = random_marking(rng, sys_)
        for ev in sys_.events:
            modes = sys_.enabled_modes(m, ev)
            keys = {(mode.lam.sort_key(), mode.rho.sort_key()) for mode in modes}
            assert keys == eos_mode_keys(sys_, m, ev)
            assert len(keys) == len(modes)  # no duplicate modes
            succ = {fire(m, mode).sort_key() for mode in modes}
            assert succ == eos_successors(sys_, m, ev)
            for mode in modes:  # one pass over the counts, as the difference and sum of whole multisets
                assert fire(m, mode) == m - mode.lam + mode.rho


def counting_modes(sys_, returned=None):
    """Route the system's enabled_modes through a counter; returns the list of
    (marking, event) pairs it was asked for, and appends each returned list
    of modes to `returned` when given.  The referee calls the class's method
    directly, so only the adapter's calls are counted."""
    asked = []

    def enabled_modes(marking, event, **memo):
        asked.append((marking, event))
        modes = ObjectSystem.enabled_modes(sys_, marking, event, **memo)
        if returned is not None:
            returned.append(modes)
        return modes

    sys_.enabled_modes = enabled_modes
    return asked


def lam_memo_hits(returned):
    """Modes that an enabled_modes call handed back as the very objects an
    earlier call built: the lam memo served them."""
    seen: dict[int, EventMode] = {}  # id -> mode, keeping the modes alive
    hits = 0
    for modes in returned:
        hits += sum(seen.get(id(mode)) is mode for mode in modes)
        seen.update((id(mode), mode) for mode in modes)
    return hits


def split_slots(sys_, event):
    """The most output slots any proper object net has in the event's transition."""
    per_net: dict[str, int] = {}
    for p, c in sys_.system.post_of(event.transition).items():
        if sys_.typing[p] != "black":
            per_net[sys_.typing[p]] = per_net.get(sys_.typing[p], 0) + c
    return max(per_net.values(), default=0)


def every_successor(sys_, m):
    return [(mode, fire(m, mode)) for e in sys_.events for mode in ObjectSystem.enabled_modes(sys_, m, e)]


def test_adapter_successors_match_every_event():
    # One adapter serves a depth-3 search, so its memo of modes is reused
    # across markings, and it skips events with an empty input place; at
    # every marking the list, order included, must be the one built by asking
    # enabled_modes afresh for every event.
    rng = random.Random(404)
    skipped = eligible = fired = asked_total = hits = split = 0
    for _ in range(220):
        sys_ = random_object_system(rng)
        returned = []
        asked = counting_modes(sys_, returned)
        successors = _object_system_kind(sys_).successors
        frontier = list(dict.fromkeys(random_marking(rng, sys_, max_tokens=rng.choice([0, 2, 3, 4])) for _ in range(2)))
        seen = set(frontier)
        for _ in range(3):
            layer = []
            for m in frontier:
                got = successors(m)
                assert got == every_successor(sys_, m)
                occupied = {t.place for t in m.support()}
                held = sum(set(sys_.system.pre_of(e.transition).support()) <= occupied for e in sys_.events)
                eligible += held
                skipped += len(sys_.events) - held
                fired += len(got)
                split += sum(split_slots(sys_, mode.event) >= 2 for mode, _ in got)
                for _, nxt in got:
                    if nxt not in seen and len(seen) < 40:
                        seen.add(nxt)
                        layer.append(nxt)
            frontier = layer
        asked_total += len(asked)
        hits += lam_memo_hits(returned)
    assert skipped > 100 and fired > 1000
    assert asked_total < eligible  # the memo answered some (marking, event) pairs
    assert hits > 100  # the lam memo answered some consumed multisets
    assert split > 100  # some modes split inner tokens over two or more slots


def test_adapter_memo_ignores_tokens_off_the_input_places():
    # ev reads only s1: a token added on s2 changes the successors' targets
    # but not ev's modes, which are enumerated once.
    sys_ = small_system()
    asked = counting_modes(sys_)
    successors = _object_system_kind(sys_).successors
    m1 = Multiset([tok("s1", "a")])
    m2 = m1 + Multiset([tok("s2", "b")])
    first, second = successors(m1), successors(m2)
    assert first == every_successor(sys_, m1) and second == every_successor(sys_, m2)
    assert [mode for mode, _ in first] == [mode for mode, _ in second]
    assert [nxt for _, nxt in first] != [nxt for _, nxt in second]
    assert [e.name for _, e in asked] == ["ev"]


def test_adapter_memo_tells_inner_markings_apart():
    # The same place and count on s1, different inner markings: different
    # modes, so each is enumerated.
    sys_ = small_system()
    asked = counting_modes(sys_)
    successors = _object_system_kind(sys_).successors
    one, two = Multiset([tok("s1", "a")]), Multiset([tok("s1", "a", "a")])
    for m in (one, two, one):
        assert successors(m) == every_successor(sys_, m)
    assert successors(one) != successors(two) != []
    assert [m for m, _ in asked] == [one, two]


def test_adapter_memo_tells_events_apart():
    # Two events on the same system transition read the same input tokens
    # but fire different object transitions.
    inner = PetriNet("inner", places=("a", "b"), transitions=("u", "v"),
                     pre={"u": Multiset(["a"]), "v": Multiset(["a"])},
                     post={"u": Multiset(["b"]), "v": Multiset(["a", "a"])})
    system = PetriNet("outer", places=("s1", "s2"), transitions=("e",),
                      pre={"e": Multiset(["s1"])}, post={"e": Multiset(["s2"])})
    events = [Event.make("by_u", "e", {"inner": Multiset(["u"])}),
              Event.make("by_v", "e", {"inner": Multiset(["v"])})]
    sys_ = ObjectSystem(system, [inner], {"s1": "inner", "s2": "inner"}, events)
    successors = _object_system_kind(sys_).successors
    m = Multiset([tok("s1", "a")])
    got = successors(m)
    assert got == every_successor(sys_, m)
    assert [nxt for _, nxt in got] == [Multiset([tok("s2", "b")]), Multiset([tok("s2", "a", "a")])]


def test_modes_sorted_canonically():
    rng = random.Random(7)
    for _ in range(60):
        sys_ = random_object_system(rng)
        m = random_marking(rng, sys_)
        for ev in sys_.events:
            modes = sys_.enabled_modes(m, ev)
            keys = [mode.sort_key() for mode in modes]
            assert keys == sorted(keys)


def test_enabled_modes_monotone_in_marking():
    rng = random.Random(55)
    for _ in range(80):
        sys_ = random_object_system(rng)
        m = random_marking(rng, sys_)
        extra = random_marking(rng, sys_, max_tokens=2)
        bigger = m + extra
        for ev in sys_.events:
            small = {(x.lam.sort_key(), x.rho.sort_key()) for x in sys_.enabled_modes(m, ev)}
            large = {(x.lam.sort_key(), x.rho.sort_key()) for x in sys_.enabled_modes(bigger, ev)}
            assert small <= large


# -- the coverability order ---------------------------------------------------

def test_covers_hand_cases():
    m = Multiset([tok("s1", "a"), tok("s1")])
    assert covers(m, m)
    assert covers(m, EMPTY)
    assert covers(m, Multiset([tok("s1")]))
    assert covers(m, Multiset([tok("s1", "a")]))
    assert covers(m, Multiset([tok("s1"), tok("s1")]))
    assert not covers(m, Multiset([tok("s1", "a"), tok("s1", "a")]))
    assert not covers(m, Multiset([tok("s2")]))
    assert not covers(m, Multiset([tok("s1", "b")]))
    assert covers(Multiset([tok("s1", "a", "b")]), Multiset([tok("s1", "a")]))


def test_covers_needs_real_matching():
    # a greedy assignment of targets to tokens would fail here: the first
    # target fits both holders, the second only the bigger one
    m = Multiset([tok("s1", "a", "b"), tok("s1", "a")])
    t = Multiset([tok("s1", "a"), tok("s1", "a", "b")])
    assert covers(m, t)
    assert not covers(m, Multiset([tok("s1", "b"), tok("s1", "b")]))


def test_covers_copies():
    # more copies of one token than the target has tokens
    assert covers(Multiset([tok("s1", "a", "b")] * 10 + [tok("s1")]),
                  Multiset([tok("s1", "a"), tok("s1", "b"), tok("s1")]))
    # the target needs every copy of one token, and one more than there are
    assert covers(Multiset([tok("s1", "a")] * 3), Multiset([tok("s1", "a")] * 3))
    assert not covers(Multiset([tok("s1", "a")] * 2 + [tok("s1")] * 5), Multiset([tok("s1", "a")] * 3))
    # copies on two places: a token never stands in for one on another place
    m = Multiset([tok("s1", "a")] * 2 + [tok("s2", "a")] * 2)
    assert covers(m, Multiset([tok("s1", "a")] * 2 + [tok("s2")] * 2))
    assert not covers(m, Multiset([tok("s1", "a")] * 3 + [tok("s2")]))
    assert not covers(m, Multiset([tok("s1")] * 2 + [tok("s2")] * 3))


def test_covers_many_copies():
    # thousands of copies of a few tokens; testing every pair of copies took over a minute
    n = 5_000
    m = Multiset([tok("s", "a", "b")] * n + [tok("s", "a")] * n)
    assert covers(m, Multiset([tok("s", "a")] * n + [tok("s", "b")] * n))
    assert not covers(m, Multiset([tok("s", "a")] * (n - 1) + [tok("s", "b")] * (n + 1)))
    # the s{ } copies fill s{a c} first, so every s{a} copy moves one of them to s{b}
    m = Multiset([tok("s", "a", "c")] * n + [tok("s", "b")] * n)
    assert covers(m, Multiset([tok("s")] * n + [tok("s", "a")] * n))
    assert not covers(m, Multiset([tok("s")] * n + [tok("s", "a")] * (n - 1) + [tok("s", "c", "c")]))


def covers_by_brute_force(marking, target):
    """Domination by trying every injective assignment of target tokens."""
    left = target.elements()
    return any(
        all(l.place == r.place and l.inner.leq(r.inner) for l, r in zip(left, chosen))
        for chosen in itertools.permutations(marking.elements(), len(left))
    )


def test_covers_matches_brute_force():
    # one place passes while another fails
    m = Multiset([tok("s1", "a"), tok("s1"), tok("s2", "b")])
    t = Multiset([tok("s1", "a"), tok("s2", "a")])
    assert not covers(m, t) and not covers_by_brute_force(m, t)
    # the target uses a place the marking lacks
    t = Multiset([tok("s1"), tok("s3")])
    assert not covers(m, t) and not covers_by_brute_force(m, t)
    rng = random.Random(224)
    verdicts = []
    for _ in range(300):
        sys_ = random_object_system(rng)
        a = random_marking(rng, sys_, max_tokens=4)
        if rng.random() < 0.5:
            b = random_marking(rng, sys_)
        else:  # a weakening of a: some of its tokens, with fewer inner tokens
            b = Multiset(
                NestedToken(x.place, Multiset(rng.sample(x.inner.elements(), rng.randint(0, len(x.inner)))))
                for x in a.elements() if rng.random() < 0.7
            )
        verdicts.append(covers(a, b))
        assert verdicts[-1] == covers_by_brute_force(a, b), (a, b)
    assert 30 < sum(verdicts) < 270  # both verdicts are well represented


def test_covers_quasi_order():
    rng = random.Random(222)
    for _ in range(120):
        sys_ = random_object_system(rng)
        a = random_marking(rng, sys_)
        b = random_marking(rng, sys_, max_tokens=2)
        assert covers(a, a)      # reflexive
        assert covers(a + b, a)  # adding whole tokens preserves domination
        if a:
            first = a.elements()[0]
            fattened = (a - Multiset([first])) + Multiset(
                [NestedToken(first.place, first.inner + first.inner)]
            )
            assert covers(fattened, a)  # so does growing an inner marking
        if covers(a, b) and covers(b, a):
            # mutual coverage pins the place layout, though inner markings
            # may still differ in both directions
            assert project_system(a) == project_system(b)


def test_covers_transitive():
    rng = random.Random(223)
    for _ in range(120):
        sys_ = random_object_system(rng)
        a = random_marking(rng, sys_)
        b = random_marking(rng, sys_)
        c = random_marking(rng, sys_)
        if covers(a, b) and covers(b, c):
            assert covers(a, c)


def test_firing_monotone_wrt_covers():
    # enabled modes stay enabled in any covering marking
    rng = random.Random(99)
    for _ in range(60):
        sys_ = random_object_system(rng)
        m = random_marking(rng, sys_)
        bigger = m + random_marking(rng, sys_, max_tokens=2)
        for ev in sys_.events:
            for mode in sys_.enabled_modes(m, ev):
                assert sys_.enabled(bigger, mode)
                assert covers(fire(bigger, mode), fire(m, mode))
