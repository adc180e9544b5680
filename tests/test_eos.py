"""Object systems: enabledness predicate, mode enumeration, firing, order."""

import copy
import itertools
import math
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
    cover_object_system,
    covers,
    encode_config,
    explore_object_system,
    fire,
    idle_id,
    parse_nunet,
    parse_marking,
    parse_object_system,
    project_system,
    reduce_nunet,
    replay_object_system,
)
from nestnets import objectsystem
from nestnets.objectsystem import _by_place, _distributions
from netgen import random_config, random_marking, random_nupn, random_object_system
from oracles import eos_mode_keys, eos_successors
from test_coverability import SPLIT_EOS


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

def _idle_extended(given):
    """The given system net plus its idle transitions, built from scratch by PetriNet."""
    idles = {idle_id(p): Multiset([p]) for p in given.places}
    return PetriNet(given.name, given.places, given.transitions + tuple(idles),
                    dict(given.pre) | idles, dict(given.post) | idles)


def test_idle_transitions_synthesized(monkeypatch):
    built = []  # (given system net, object nets, ObjectSystem) of every system constructed below
    init = ObjectSystem.__init__

    def spy(self, system, object_nets, *args):
        object_nets = tuple(object_nets)
        init(self, system, object_nets, *args)
        built.append((system, object_nets, self))

    monkeypatch.setattr(ObjectSystem, "__init__", spy)
    small_system()
    parse_object_system((DATA / "courier.eos").read_text())
    for name in ("d0", "gap"):
        reduce_nunet(parse_nunet((DATA / f"{name}.nupn").read_text())[0])
    for seed in range(30):
        random_object_system(random.Random(seed))
    monkeypatch.undo()
    assert len(built) == 34
    for given, object_nets, sys_ in built:
        assert sys_.system == _idle_extended(given)
        assert sys_.system.transitions == given.transitions + tuple(idle_id(p) for p in given.places)
        assert given == PetriNet(given.name, given.places, given.transitions, given.pre, given.post)  # untouched
        assert sys_.declared_transitions == tuple(t for t in sys_.system.transitions if not t.startswith("idle::"))
        assert sys_.declared_nets == tuple(net for net in object_nets if net.name != "black")
    sys_ = small_system()
    assert sys_.system.transitions == ("e", "idle::s1", "idle::s2", "idle::s3")
    for p in ("s1", "s2", "s3"):
        assert sys_.system.pre_of(idle_id(p)) == Multiset([p])
        assert sys_.system.post_of(idle_id(p)) == Multiset([p])


def test_building_runs_no_petri_net_constructor(monkeypatch):
    inner = PetriNet("inner", places=("a", "b"), transitions=("u",),
                     pre={"u": Multiset(["a"])}, post={"u": Multiset(["b"])})
    system = PetriNet("outer", places=("s1", "s2"), transitions=("e",),
                      pre={"e": Multiset(["s1"])}, post={"e": Multiset(["s2"])})
    calls = []
    init = PetriNet.__init__
    monkeypatch.setattr(PetriNet, "__init__", lambda self, *a, **k: calls.append(a) or init(self, *a, **k))
    sys_ = ObjectSystem(system, [inner], {"s1": "inner", "s2": "black"},
                        [Event.make("ev", "e", {"inner": Multiset(["u"])})])
    assert calls == []
    assert sys_.system.transitions == ("e", "idle::s1", "idle::s2")
    assert system.transitions == ("e",) and "idle::s1" not in system.pre  # the given net is not changed


def test_black_net_implicit():
    sys_ = small_system()
    assert "black" in sys_.object_nets
    assert sys_.object_nets["black"].places == ()
    assert [net.name for net in sys_.declared_nets] == ["inner"]


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


def pair_system():
    """Object net (a -u-> b); event ev takes two tokens off s1 and puts one
    on s2, both places typed by the object net."""
    inner = PetriNet("inner", places=("a", "b"), transitions=("u",),
                     pre={"u": Multiset(["a"])}, post={"u": Multiset(["b"])})
    system = PetriNet("outer", places=("s1", "s2"), transitions=("e",),
                      pre={"e": Multiset(["s1", "s1"])}, post={"e": Multiset(["s2"])})
    events = [Event.make("ev", "e")]
    return ObjectSystem(system, [inner], {"s1": "inner", "s2": "inner"}, events)


def test_fire_rejects_a_count_shortfall():
    # The marking holds the consumed token, but one copy fewer than lam takes.
    sys_ = pair_system()
    ev = sys_.events[0]
    a = tok("s1", "a")
    mode = EventMode(ev, Multiset([a, a]), Multiset([tok("s2", "a", "a")]))
    m = Multiset([tok("s1", "b"), a])
    pairs = list(m.counts())
    with pytest.raises(NotEnabledError) as info:
        fire(m, mode)
    assert str(info.value) == (
        "event 'ev': consumed tokens {{s1 { a:1 }, s1 { a:1 }}} not present in {{s1 { a:1 }, s1 { b:1 }}}")
    assert m == Multiset([a, tok("s1", "b")]) and list(m.counts()) == pairs


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


def search_successors(sys_):
    """ObjectSystem.successors with the two memos one search keeps."""
    modes, lams = {}, {}
    return lambda m: sys_.successors(m, modes, lams)


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
        successors = search_successors(sys_)
        frontier = list(dict.fromkeys(random_marking(rng, sys_, max_tokens=rng.choice([0, 2, 3, 4])) for _ in range(2)))
        seen = set(frontier)
        for _ in range(3):
            layer = []
            for m in frontier:
                got = list(successors(m))
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
    successors = search_successors(sys_)
    m1 = Multiset([tok("s1", "a")])
    m2 = m1 + Multiset([tok("s2", "b")])
    first, second = list(successors(m1)), list(successors(m2))
    assert first == every_successor(sys_, m1) and second == every_successor(sys_, m2)
    assert [mode for mode, _ in first] == [mode for mode, _ in second]
    assert [nxt for _, nxt in first] != [nxt for _, nxt in second]
    assert [e.name for _, e in asked] == ["ev"]


def test_enabled_modes_reads_a_given_grouping_without_changing_it():
    # The adapter passes its own grouping, whose lists keep insertion order
    # because later memo keys are built from them; the modes must be those
    # of the call that groups the marking itself.
    rng = random.Random(2324)
    unordered = 0
    for _ in range(150):
        sys_ = random_object_system(rng)
        m = random_marking(rng, sys_, max_tokens=rng.choice([2, 3, 4]))
        grouping = _by_place(m)
        before = {p: list(pairs) for p, pairs in grouping.items()}
        for e in sys_.events:
            assert sys_.enabled_modes(m, e, by_place=grouping) == sys_.enabled_modes(m, e)
        assert grouping == before
        unordered += any(pairs != sorted(pairs, key=lambda pair: pair[0].inner.sort_key()) for pairs in before.values())
    assert unordered > 10  # some place's tokens are not in canonical order


def test_adapter_groups_each_marking_once(monkeypatch):
    # Each expansion, one ObjectSystem.successors call, groups its marking
    # once, and enabled_modes reads that grouping instead of grouping again.
    grouped = {"adapter": 0, "enabled_modes": 0}
    inside = []  # one entry per enabled_modes call in progress
    expansions = []
    real_modes, real_successors = ObjectSystem.enabled_modes, ObjectSystem.successors

    def by_place(marking):
        grouped["enabled_modes" if inside else "adapter"] += 1
        return _by_place(marking)

    def enabled_modes(self, *args, **kwargs):
        inside.append(args)
        try:
            return real_modes(self, *args, **kwargs)
        finally:
            inside.pop()

    def successors(self, *args):
        expansions.append(args)
        return real_successors(self, *args)

    monkeypatch.setattr(objectsystem, "_by_place", by_place)
    monkeypatch.setattr(ObjectSystem, "enabled_modes", enabled_modes)
    monkeypatch.setattr(ObjectSystem, "successors", successors)
    rng = random.Random(2325)
    asked = 0
    for _ in range(40):
        sys_ = random_object_system(rng)
        enumerated = counting_modes(sys_)
        explore_object_system(sys_, random_marking(rng, sys_, max_tokens=3), depth=3, max_states=60)
        asked += len(enumerated)
    assert grouped["adapter"] > 50 and asked > 50 and grouped["enabled_modes"] == 0
    assert grouped["adapter"] == len(expansions)


def test_object_system_memos_die_with_the_search(monkeypatch):
    # As the name-net domination memo: the mode memo and the lam memo live in
    # the search, so a query leaves the system as it was, and a second one
    # asks enabled_modes for every mode list again.
    net, init, target = parse_nunet((DATA / "d0.nupn").read_text())
    sys_ = reduce_nunet(net).system
    start, goal = encode_config(net, init), encode_config(net, target)
    before = copy.deepcopy(vars(sys_))
    asked = []
    real = ObjectSystem.enabled_modes
    monkeypatch.setattr(ObjectSystem, "enabled_modes", lambda self, *a, **k: asked.append(a) or real(self, *a, **k))
    first = cover_object_system(sys_, start, goal, depth=5)
    once = len(asked)
    assert first.covered and once and vars(sys_) == before
    second = cover_object_system(sys_, start, goal, depth=5)
    assert second == first and len(asked) == 2 * once
    assert vars(sys_) == before


def test_adapter_memo_tells_inner_markings_apart():
    # The same place and count on s1, different inner markings: different
    # modes, so each is enumerated.
    sys_ = small_system()
    asked = counting_modes(sys_)
    successors = search_successors(sys_)
    one, two = Multiset([tok("s1", "a")]), Multiset([tok("s1", "a", "a")])
    for m in (one, two, one):
        assert list(successors(m)) == every_successor(sys_, m)
    assert list(successors(one)) != list(successors(two)) != []
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
    successors = search_successors(sys_)
    m = Multiset([tok("s1", "a")])
    got = list(successors(m))
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


def test_demand_two_selections_in_canonical_order():
    # Two tokens with two copies each on a place of demand 2: taking one of
    # each sorts before taking two of the first, whatever the insertion order.
    sys_ = pair_system()
    ev = sys_.events[0]
    a, b = tok("s1", "a"), tok("s1", "b")
    m = Multiset([b, b, a, a])
    lams = [mode.lam for mode in sys_.enabled_modes(m, ev)]
    assert lams == [Multiset([a, b]), Multiset([a, a]), Multiset([b, b])]


def test_modes_canonical_with_demands_of_two_or_more():
    # Random systems of two input places with demands 2-3, several distinct
    # tokens per place inserted in random order, and one or two output slots.
    rng = random.Random(2020)
    inner = PetriNet("inner", places=("a", "b"), transitions=("u",),
                     pre={"u": Multiset(["a"])}, post={"u": Multiset(["b"])})
    several = 0
    for _ in range(100):
        demands = {"s1": rng.randint(2, 3), "s2": rng.randint(2, 3)}
        system = PetriNet("outer", places=("s1", "s2", "s3"), transitions=("e",),
                          pre={"e": Multiset.from_counts(demands)},
                          post={"e": Multiset.from_counts({"s3": rng.randint(1, 2)})})
        theta = rng.choice([None, {"inner": Multiset(["u"])}])
        sys_ = ObjectSystem(system, [inner], dict.fromkeys(("s1", "s2", "s3"), "inner"),
                            [Event.make("ev", "e", theta)])
        elements = []
        for place in demands:
            inners = rng.sample([("a",) * i + ("b",) * j for i in range(3) for j in range(3)], rng.randint(2, 3))
            for inner_tokens in inners:
                elements += [tok(place, *inner_tokens)] * rng.randint(1, 2)
        rng.shuffle(elements)
        modes = sys_.enabled_modes(Multiset(elements), sys_.events[0])
        keys = [mode.sort_key() for mode in modes]
        assert keys == sorted(keys)
        assert len(set(modes)) == len(modes)
        for place in demands:
            blocks = {Multiset(t for t in mode.lam.elements() if t.place == place) for mode in modes}
            several += len(blocks) > 1
    assert several >= 100  # places of demand 2 or more giving several selections


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


# -- step bounds ----------------------------------------------------------------

def test_step_bound_falls_by_at_most_one_per_step_and_is_zero_on_covers():
    # On random markings of netgen systems and of compiled netgen nets, for
    # targets random and reached: h(m) <= h(m') + 1 for every successor m',
    # and h(m) = 0 wherever m covers the target.  These two facts let a
    # bounded search drop a state found at depth g once g + h(m) > depth.
    rng = random.Random(18)
    steps = covering = finite = infinite = 0
    for _ in range(40):
        if rng.random() < 0.5:
            system = random_object_system(rng)
            markings = [random_marking(rng, system, max_tokens=4) for _ in range(4)]
        else:
            net = random_nupn(rng)
            system = reduce_nunet(net).system
            markings = explore_object_system(system, encode_config(net, random_config(rng, net)), 4).states
            markings = rng.sample(markings, min(len(markings), 6))
        targets = [random_marking(rng, system) for _ in range(3)] + rng.sample(markings, min(len(markings), 2))
        for target in targets:
            h = system.step_bound(target)
            for m in markings:
                here = h(m)
                assert here == 0 or not covers(m, target)
                covering += covers(m, target)
                finite += 0 < here < math.inf
                infinite += here == math.inf
                for _, nxt in system.successors(m, {}, {}):
                    assert here <= h(nxt) + 1
                    steps += 1
    assert steps >= 500 and covering >= 20 and finite >= 50 and infinite >= 20, (steps, covering, finite, infinite)


def test_step_bound_token_term_is_off_where_an_event_merges_tokens():
    # Two tokens that hold the target token's inner marking only together: the
    # aggregate term reads 0 on them.  On the courier no event consumes two doc
    # tokens, so the token term counts each token alone: the draft token must
    # be stamped, and the stamped one can never regain a draft.  The split/merge
    # system's merge event consumes two data tokens, so its bound is the
    # aggregate term alone.
    for text, marking, target, expected in (
        ((DATA / "courier.eos").read_text(), "inbox { draft:1 } inbox { final:1 }", "inbox { draft:1 final:1 }", 1),
        (SPLIT_EOS, "o0 { a:1 } o0 { b:1 }", "o0 { a:1 b:1 }", 0),
    ):
        system, _, _ = parse_object_system(text)
        marking, target = parse_marking(marking, system), parse_marking(target, system)
        assert not covers(marking, target)
        assert system.step_bound(target)(marking) == expected
