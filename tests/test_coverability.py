"""Bounded exploration, coverability queries, and the two compiler checks."""

import ast
import math
import random
import sys
import time
from functools import partial
from pathlib import Path

import pytest

from nestnets import (
    Event,
    Multiset,
    NestedToken,
    NotEnabledError,
    NuMode,
    NuNet,
    ObjectSystem,
    PetriNet,
    Reduction,
    SearchLimitReached,
    check_simulation,
    check_transfer,
    cover_nunet,
    cover_object_system,
    coverability,
    encode_config,
    explore_nunet,
    explore_object_system,
    minimal_runs,
    nunet,
    objectsystem,
    parse_nunet,
    parse_object_system,
    replay_nunet,
    replay_object_system,
)
from nestnets.coverability import _gadget_ends
from nestnets.nunet import config, validate
from nestnets.reduction import max_run_length, reduce_nunet
from netgen import random_config, random_marking, random_nupn, random_object_system

DATA = Path(__file__).parent / "data"


def d0():
    return NuNet(
        name="d0",
        places=("p", "q"),
        transitions=("t1",),
        standard_vars=("x",),
        fresh_vars=("nu",),
        inflow={"t1": {"p": Multiset(["x"])}},
        outflow={"t1": {"q": Multiset(["x"]), "p": Multiset(["nu"])}},
    )


# -- exploration ----------------------------------------------------------------

def test_explore_nunet_layers():
    net = d0()
    res = explore_nunet(net, config(net, [(1, 0)]), depth=2)
    assert res.states[0] == config(net, [(1, 0)])
    assert res.states[1] == config(net, [(0, 1), (1, 0)])
    assert res.states[2] == config(net, [(0, 1), (0, 1), (1, 0)])
    assert len(res.states) == 3
    assert len(res.edges) == 2
    assert res.depth_reached == 2
    assert not res.frontier_exhausted


def test_explore_closes_finite_spaces():
    # one name that loses its only token: two states, then silence
    net = NuNet("n", ("p",), ("t",), standard_vars=("x",),
                inflow={"t": {"p": Multiset(["x"])}})
    res = explore_nunet(net, config(net, [(1,)]), depth=10)
    assert [s.elements() for s in res.states] == [[(1,)], [(0,)]]
    assert res.frontier_exhausted
    assert res.depth_reached == 1


def test_explore_layer_keeps_first_found_order():
    # A layer lists its states as they were first reached: parents in layer
    # order, each with its modes in sorted order.  Nothing sorts the layer.
    net = d0()
    res = explore_nunet(net, config(net, [(1, 0), (2, 0)]), depth=2)
    layer1, layer2 = res.states[1:3], res.states[3:]
    assert layer1 == [config(net, [(0, 1), (1, 0), (2, 0)]),  # x picks (1, 0)
                      config(net, [(1, 0), (1, 0), (1, 1)])]  # x picks (2, 0)
    assert layer2 == [config(net, [(0, 1), (0, 1), (1, 0), (2, 0)]),  # from layer1[0]
                      config(net, [(0, 1), (1, 0), (1, 0), (1, 1)]),
                      config(net, [(0, 2), (1, 0), (1, 0), (1, 0)])]  # from layer1[1]
    assert layer2 != sorted(layer2, key=Multiset.sort_key)
    assert [nxt for _, _, nxt in res.edges] == [*layer1, layer2[0], layer2[1], layer2[1], layer2[2]]


def test_explore_object_system_counts():
    red = reduce_nunet(d0())
    start = encode_config(d0(), config(d0(), [(1, 0)]))
    res = explore_object_system(red.system, start, depth=5)
    assert res.states[0] == start
    assert res.depth_reached == 5
    # one complete gadget run and nothing else: 5 forced steps with one
    # two-way interleaving in the middle
    assert len(res.states) == 7


# -- cover queries ----------------------------------------------------------------

def test_cover_at_depth_zero():
    net = d0()
    init = config(net, [(1, 0)])
    ans = cover_nunet(net, init, Multiset(), 0)
    assert ans.covered and ans.witness == [] and ans.state == init


def test_cover_nunet_shortest_witness():
    net = d0()
    init = config(net, [(1, 0)])
    ans = cover_nunet(net, init, config(net, [(0, 1), (0, 1)]), 5)
    assert ans.covered
    assert len(ans.witness) == 2
    assert replay_nunet(net, init, ans.witness) == ans.state
    from nestnets.nunet import covers
    assert covers(ans.state, config(net, [(0, 1), (0, 1)]))


def test_cover_nunet_miss_reports_depth():
    net = d0()
    ans = cover_nunet(net, config(net, [(1, 0)]), config(net, [(2, 2)]), 3)
    assert not ans.covered
    assert ans.witness is None and ans.state is None
    assert ans.depth == 3
    assert not ans.exhausted


def test_cover_nunet_exhausted():
    # The one name moves from p to q and stops: two states.  A name reaches
    # (0, 1), so the step bound keeps both, and the space closes at depth 1
    # without a second name for the target's second copy.
    net = NuNet("n", ("p", "q"), ("t",), standard_vars=("x",),
                inflow={"t": {"p": Multiset(["x"])}}, outflow={"t": {"q": Multiset(["x"])}})
    ans = cover_nunet(net, config(net, [(1, 0)]), config(net, [(0, 1), (0, 1)]), 50)
    assert not ans.covered
    assert ans.exhausted
    assert ans.depth == 1


def test_cover_nunet_out_of_every_names_reach():
    # The one name only loses its token, so no name reaches (2,): the step
    # bound answers at the start, at the full depth, without closing the space.
    net = NuNet("n", ("p",), ("t",), standard_vars=("x",),
                inflow={"t": {"p": Multiset(["x"])}})
    ans = cover_nunet(net, config(net, [(1,)]), config(net, [(2,)]), 50)
    assert ans == (False, None, None, 50, False)


def test_cover_exact_flag():
    net = d0()
    init = config(net, [(2, 0)])
    target = config(net, [(1, 0)])
    # embedding: the initial tuple already dominates the target
    assert cover_nunet(net, init, target, 0).covered
    # exact inclusion: the literal tuple only appears after one step
    assert not cover_nunet(net, init, target, 0, exact=True).covered
    hit = cover_nunet(net, init, target, 1, exact=True)
    assert hit.covered and len(hit.witness) == 1


def test_cover_limit():
    # Each step of d0 moves one name to (0, 1) and mints one more: the first
    # state with ten names there is the eleventh found, past a cap of 10.
    net = d0()
    ten = config(net, [(0, 1)] * 10)
    with pytest.raises(SearchLimitReached) as err:
        cover_nunet(net, config(net, [(1, 0)]), ten, 50, max_states=10)
    assert "max_states" in str(err.value)
    assert cover_nunet(net, config(net, [(1, 0)]), ten, 50, max_states=11).depth == 10
    # No name ever gains a token on p, so none reaches (9, 9): no search.
    assert cover_nunet(net, config(net, [(1, 0)]), config(net, [(9, 9)]), 50, max_states=10) == (
        False, None, None, 50, False)


def test_cover_within_the_cap_is_an_answer():
    # The first successor of the initial state covers, and it is the second
    # state found: an answer within max_states = 2, although the layer it
    # belongs to holds three new states.
    net = d0()
    ans = cover_nunet(net, config(net, [(1, 0), (2, 0), (3, 0)]), config(net, [(0, 1)]), 1, max_states=2)
    assert ans.covered and ans.depth == 1
    assert ans.witness == [("t1", NuMode.make([("x", 0)]))]
    assert ans.state == config(net, [(0, 1), (1, 0), (2, 0), (3, 0)])


def _many_names_net():
    """One transition whose four standard variables each move a name's token from p to q."""
    xs = ("w", "x", "y", "z")
    return NuNet("many", ("p", "q"), ("t",), xs,
                 inflow={"t": {"p": Multiset(xs)}}, outflow={"t": {"q": Multiset(xs)}})


def test_search_fires_nothing_after_its_answer_or_its_cap(monkeypatch):
    # 12 distinct names give 12 * 11 * 10 * 9 = 11 880 modes.  In sorted order
    # the first nine give new states, the tenth repeats the first, and the
    # eleventh is the state past the cap.  A search steps only through the
    # pairs it draws from nunet.successors, so those are the steps it fires.
    net = _many_names_net()
    initial = config(net, [(k, 0) for k in range(1, 13)])
    steps = counted(monkeypatch, nunet, "successors", drawn=True)
    with pytest.raises(SearchLimitReached):
        explore_nunet(net, initial, depth=1, max_states=10)
    assert len(steps) == 11
    steps.clear()
    ans = cover_nunet(net, initial, config(net, [(0, 1)]), depth=1)  # the first successor covers
    assert ans.covered and ans.depth == 1 and len(steps) == 1


def test_capped_search_on_thirty_names_lists_no_modes(monkeypatch):
    # 30 distinct names give 657 720 modes.  The first 27 in sorted order give new
    # states, so the tenth step is the state past the cap.  The search draws those
    # ten one at a time and neither lists modes nor re-checks one.  Each step puts
    # a token on q for four names, never five, and every step's names reach
    # (0, 1), so the step bound drops none of them.
    net, init, _ = parse_nunet((DATA / "wide.nupn").read_text())
    steps = counted(monkeypatch, nunet, "successors", drawn=True)
    listed, fired = counted(monkeypatch, nunet, "enabled_modes"), counted(monkeypatch, nunet, "fire")
    with pytest.raises(SearchLimitReached):
        cover_nunet(net, init, config(net, [(0, 1)] * 5), depth=1, max_states=10)
    assert len(steps) == 10 and listed == fired == []
    # A name gains one token on q per step, so (0, 5) is 5 steps away from every
    # name: the step bound answers at the start, and the search draws nothing.
    steps.clear()
    assert cover_nunet(net, init, config(net, [(0, 5)]), depth=1, max_states=10) == (False, None, None, 1, False)
    assert steps == listed == fired == []


def test_object_system_search_fires_nothing_after_its_answer_or_its_cap(monkeypatch):
    # Any of three distinct tokens on s1 can move to s2, firing a -> b inside
    # it: three modes, in canonical order the one moving s1 { a } first.
    inner = PetriNet("inner", places=("a", "b"), transitions=("u",),
                     pre={"u": Multiset(["a"])}, post={"u": Multiset(["b"])})
    outer = PetriNet("outer", places=("s1", "s2"), transitions=("e",),
                     pre={"e": Multiset(["s1"])}, post={"e": Multiset(["s2"])})
    system = ObjectSystem(outer, [inner], {"s1": "inner", "s2": "inner"},
                          [Event.make("ev", "e", {"inner": Multiset(["u"])})])
    initial = Multiset(NestedToken("s1", Multiset(["a"] * k)) for k in (1, 2, 3))
    fires = []
    real_fire = objectsystem.fire
    monkeypatch.setattr(objectsystem, "fire", lambda *a, **k: fires.append(a) or real_fire(*a, **k))
    ans = cover_object_system(system, initial, Multiset([NestedToken("s2", Multiset(["b"]))]), depth=1)
    assert ans.covered and ans.depth == 1 and len(fires) == 1  # the first successor covers
    fires.clear()
    with pytest.raises(SearchLimitReached):  # the second successor is the state past the cap
        explore_object_system(system, initial, depth=1, max_states=2)
    assert len(fires) == 2


def test_search_core_reads_no_net_internals():
    # coverability reaches both net kinds through their public names only.
    tree = ast.parse(Path(coverability.__file__).read_text())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[-1] in ("nunet", "objectsystem")
        for alias in node.names
    ]
    read = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    assert imported and not [name for name in imported if name.startswith("_")]
    assert read and not [attr for attr in read if attr.startswith("_") and not attr.startswith("__")]


def counted(monkeypatch, owner, name, drawn=False):
    """Route owner.name, under every name a nestnets module holds it by, through
    a counter; returns the list of each call's arguments or, when drawn, of each
    item drawn from the generators it returns."""
    real, calls = getattr(owner, name), []

    def counting(*args):
        calls.append(args)
        return real(*args)

    def drawing(*args):
        for item in real(*args):
            calls.append(item)
            yield item

    wrapper = drawing if drawn else counting
    monkeypatch.setattr(owner, name, wrapper)
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "nestnets":
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, wrapper)
    return calls


def test_each_expansion_is_one_successors_call(monkeypatch):
    # A depth-2 exploration expands the states of its first two layers, which
    # a depth-1 exploration lists, and calls the net's successors once for each.
    net, init, _ = parse_nunet((DATA / "d0.nupn").read_text())
    expanded = explore_nunet(net, init, depth=1).states
    calls = counted(monkeypatch, nunet, "successors")
    explore_nunet(net, init, depth=2)
    assert [configuration for _, configuration in calls] == expanded
    system, init, _ = parse_object_system((DATA / "courier.eos").read_text())
    expanded = explore_object_system(system, init, depth=1).states
    calls = counted(monkeypatch, ObjectSystem, "successors")
    explore_object_system(system, init, depth=2)
    assert len(expanded) > 2 and [marking for _, marking, _, _ in calls] == expanded


def test_searches_check_their_states_before_expanding(monkeypatch):
    # An initial state or a target that does not fit the net is rejected
    # before the search expands any state.
    net, init, target = parse_nunet((DATA / "d0.nupn").read_text())
    calls = counted(monkeypatch, nunet, "successors")
    misfit = Multiset([(1,)])  # arity 1 in a two-place net
    for search in (lambda: explore_nunet(net, misfit, 2),
                   lambda: cover_nunet(net, misfit, target, 2),
                   lambda: cover_nunet(net, init, misfit, 2)):
        with pytest.raises(ValueError):
            search()
    assert calls == []
    system, init, target = parse_object_system((DATA / "courier.eos").read_text())
    calls = counted(monkeypatch, ObjectSystem, "successors")
    misfit = Multiset([NestedToken("inbox", Multiset(["nowhere"]))])  # no such place in doc
    for search in (lambda: explore_object_system(system, misfit, 2),
                   lambda: cover_object_system(system, misfit, target, 2),
                   lambda: cover_object_system(system, init, misfit, 2)):
        with pytest.raises(ValueError):
            search()
    assert calls == []


def test_replays_fire_each_step_once(monkeypatch):
    # A replay fires its witness with the module's checked step and asks for
    # no successors or modes.
    net = d0()
    init, goal = config(net, [(1, 0), (2, 0)]), config(net, [(0, 1), (0, 1)])
    answer = cover_nunet(net, init, goal, 4)
    fires, asked = counted(monkeypatch, nunet, "fire"), counted(monkeypatch, nunet, "successors")
    modes = counted(monkeypatch, nunet, "enabled_modes")
    assert replay_nunet(net, init, answer.witness) == answer.state
    assert len(answer.witness) == 2 and len(fires) == 2 and asked == modes == []
    red = reduce_nunet(net)
    start, goal = encode_config(net, init), encode_config(net, goal)
    answer = cover_object_system(red.system, start, goal, 10)
    steps, asked = counted(monkeypatch, ObjectSystem, "step"), counted(monkeypatch, ObjectSystem, "successors")
    modes = counted(monkeypatch, ObjectSystem, "enabled_modes")
    assert replay_object_system(red.system, start, answer.witness) == answer.state
    assert len(answer.witness) == 10 and len(steps) == 10 and asked == modes == []


def test_cover_object_system_and_replay():
    net = d0()
    red = reduce_nunet(net)
    start = encode_config(net, config(net, [(1, 0)]))
    goal = encode_config(net, config(net, [(0, 1)]))
    ans = cover_object_system(red.system, start, goal, 5)
    assert ans.covered
    assert len(ans.witness) == 5
    assert replay_object_system(red.system, start, ans.witness) == ans.state
    assert cover_object_system(red.system, start, goal, 4).covered is False


def test_replay_rejects_tampered_witness():
    net = d0()
    red = reduce_nunet(net)
    start = encode_config(net, config(net, [(1, 0)]))
    goal = encode_config(net, config(net, [(0, 1)]))
    witness = cover_object_system(red.system, start, goal, 5).witness
    with pytest.raises(NotEnabledError):
        replay_object_system(red.system, start, witness[1:] + witness[:1])
    with pytest.raises(NotEnabledError):
        replay_nunet(net, Multiset(), cover_nunet(net, config(net, [(1, 0)]),
                                                  config(net, [(0, 1)]), 2).witness)


def test_cover_deterministic():
    net = d0()
    init = config(net, [(1, 0), (2, 0)])
    target = config(net, [(0, 1)])
    first = cover_nunet(net, init, target, 4)
    second = cover_nunet(net, init, target, 4)
    assert first.witness == second.witness
    assert first.state == second.state
    r1 = explore_nunet(net, init, 2)
    r2 = explore_nunet(net, init, 2)
    assert r1.states == r2.states and r1.edges == r2.edges


# -- insertion order is not an input -------------------------------------------------

def _reversed_order(state: Multiset) -> Multiset:
    """The same state, built with its elements (and each token's inner places) in reverse canonical order."""
    def flip(e):
        return NestedToken(e.place, Multiset(reversed(e.inner.elements()))) if isinstance(e, NestedToken) else e
    return Multiset(flip(e) for e in reversed(state.elements()))


def _outcome(search, *args):
    try:
        return search(*args)
    except SearchLimitReached as exc:
        return exc.limit


@pytest.mark.parametrize("seed", range(3))
def test_searches_ignore_insertion_order(seed):
    # One initial state built in two insertion orders gives the same answers:
    # verdicts, depths, state lists, edges and witnesses.
    rng = random.Random(seed)
    cases = []  # (explore, cover, initial state, a target, depth)
    for _ in range(8):
        net = random_nupn(rng)
        init, target = random_config(rng, net, max_tuples=5), random_config(rng, net)
        cases.append((partial(explore_nunet, net), partial(cover_nunet, net), init, target, 3))
        system = reduce_nunet(net).system
        cases.append((partial(explore_object_system, system), partial(cover_object_system, system),
                      encode_config(net, init), encode_config(net, target), 6))
        system = random_object_system(rng)
        cases.append((partial(explore_object_system, system), partial(cover_object_system, system),
                      random_marking(rng, system, max_tokens=5), random_marking(rng, system), 3))
    reordered = 0
    for explore, cover, init, target, depth in cases:
        flipped = _reversed_order(init)
        assert flipped == init
        reordered += list(flipped.counts()) != list(init.counts())
        first, second = _outcome(explore, init, depth, 3000), _outcome(explore, flipped, depth, 3000)
        assert first == second
        targets = [target] if first == "max_states" else [target, first.states[-1]]  # the last one is reachable
        for goal in targets:
            assert _outcome(cover, init, goal, depth, 3000) == _outcome(cover, flipped, goal, depth, 3000)
    assert reordered >= len(cases) // 2, reordered


# -- step bounds: the unpruned search referees the pruned one ---------------------------

SPLIT_EOS = """eos
objectnet data
  places a b c
  trans u0
    in c
    out b
  end
  trans u1
    in b
    out a
  end
  trans u2
    in a
    out c
  end
end
system sys
  places i:data o0:data o1:data o2:data s:black
  trans merge
    in o0
    in o2
    out i
  end
  trans move
    in o0
    out o2
    out s
  end
  trans split
    in i
    out o0
    out o1
    out o2
  end
end
events
  event split = split with data: u1
  event merge = merge
  event move = move with data: u1
  event rewrite = idle::o0 with data: u2
end
init i { a:1 b:2 }
"""


def _step_bound_queries(rng):
    """(system, initial, target, depth) cover queries on the compiled systems of
    netgen nets, on netgen object systems and on two small .eos files: a random
    target, and markings the search reaches, searched at the depth that reaches
    them, where the bound is tightest."""
    def reached(system, initial, depth):
        states = explore_object_system(system, initial, depth, 400).states  # raises past the cap
        return [rng.choice(states), states[-1]]

    queries = []
    systems = []
    for _ in range(12):
        net = random_nupn(rng)
        systems.append((reduce_nunet(net).system, encode_config(net, random_config(rng, net)),
                        encode_config(net, random_config(rng, net)), max_run_length(net) + 2))
    for _ in range(12):
        system = random_object_system(rng)
        systems.append((system, random_marking(rng, system, max_tokens=4), random_marking(rng, system), 3))
    for text in ((DATA / "courier.eos").read_text(), SPLIT_EOS):
        system, initial, _ = parse_object_system(text)
        systems.append((system, initial, random_marking(rng, system), 3))
    for system, initial, target, depth in systems:
        queries.append((system, initial, target, depth))
        for d in range(1, depth + 1):
            try:
                goals = reached(system, initial, d)
            except SearchLimitReached:
                break
            queries += [(system, initial, goal, d) for goal in goals]
    return queries


def _searches(system, initial, target, depth, bound):
    """_search's and _cover's outcomes on one cover query, or "max_states"."""
    modes: dict = {}
    lams: dict = {}
    successors = lambda marking: system.successors(marking, modes, lams)
    covers = lambda marking: objectsystem.covers(marking, target)
    h = system.step_bound(target) if bound else None
    try:
        return (coverability._search(successors, initial, depth, 3000, covers, bound=h),
                coverability._cover(successors, covers, initial, depth, 3000, h))
    except SearchLimitReached:
        return "max_states"


def _compare_bounded(plain, bounded, depth):
    """Check a pruned search against the unpruned one where that finished:
    the same verdict, witness, state and depth, and the unpruned states
    minus the dropped ones, in the same order with the same parents.  A
    pruned search that closes after dropping a state reports the full depth
    and no exhausted space.  Returns whether it dropped a state."""
    (closed, _, hit, parents), answer = plain
    (b_closed, _, b_hit, b_parents), b_answer = bounded
    assert b_hit == hit
    assert list(b_parents) == [s for s in parents if s in b_parents]
    assert all(b_parents[s] == parents[s] for s in b_parents)
    if b_answer != answer:  # only a closed space may read differently
        assert closed and not b_closed and b_answer == answer._replace(depth=depth, exhausted=False)
    if b_closed:  # nothing was dropped
        assert b_parents == parents
    return len(b_parents) < len(parents)


@pytest.mark.parametrize("seed", range(3))
def test_step_bound_keeps_every_answer(seed):
    # Wherever the unpruned search finishes, the pruned one gives the same
    # answer, and keeps the unpruned states it does not drop (_compare_bounded).
    compared = pruned = covered = 0
    for system, initial, target, depth in _step_bound_queries(random.Random(seed)):
        plain = _searches(system, initial, target, depth, bound=False)
        if plain == "max_states":
            continue
        pruned += _compare_bounded(plain, _searches(system, initial, target, depth, bound=True), depth)
        compared += 1
        covered += plain[1].covered
    assert compared >= 60 and pruned >= 10 and covered >= 30, (compared, pruned, covered)


def _name_net_queries(rng):
    """(net, initial, target, depth) cover queries on netgen nets: a random
    target, one that asks for more copies of a reached tuple than the names
    reached, and configurations the search reaches, searched at the depth
    that reaches them."""
    queries = []
    for _ in range(40):
        net = random_nupn(rng)
        initial, depth = random_config(rng, net), rng.randint(1, 4)
        queries.append((net, initial, random_config(rng, net), depth))
        for d in range(1, depth + 1):
            try:
                states = explore_nunet(net, initial, d, 400).states
            except SearchLimitReached:
                break
            goals = [rng.choice(states), states[-1]]
            last = states[-1].support()
            if last:
                goals.append(Multiset([rng.choice(last)] * (len(states[-1]) + 1)))
            queries += [(net, initial, goal, d) for goal in goals]
    return queries


def _name_net_searches(net, initial, target, depth, bound, exact):
    """_search's and _cover's outcomes on one name-net cover query, or "max_states"."""
    memo: dict = {}
    successors = partial(nunet.successors, net)
    covers = lambda configuration: nunet.covers(configuration, target, exact=exact, memo=memo)
    h = nunet.step_bound(net, target) if bound else None
    try:
        return (coverability._search(successors, initial, depth, 3000, covers, bound=h),
                coverability._cover(successors, covers, initial, depth, 3000, h))
    except SearchLimitReached:
        return "max_states"


@pytest.mark.parametrize("seed", range(3))
def test_name_net_step_bound_keeps_every_answer(seed):
    # As test_step_bound_keeps_every_answer, for name nets, by embedding and by
    # inclusion, and cover_nunet gives the pruned answer.
    rng = random.Random(seed)
    compared = pruned = covered = 0
    for net, initial, target, depth in _name_net_queries(rng):
        exact = rng.random() < 0.3
        plain = _name_net_searches(net, initial, target, depth, False, exact)
        if plain == "max_states":
            continue
        bounded = _name_net_searches(net, initial, target, depth, True, exact)
        pruned += _compare_bounded(plain, bounded, depth)
        assert cover_nunet(net, initial, target, depth, 3000, exact=exact) == bounded[1]
        compared += 1
        covered += plain[1].covered
    assert compared >= 250 and pruned >= 20 and covered >= 150, (compared, pruned, covered)


# -- minimal runs of the compiled system ---------------------------------------

def test_d0_minimal_runs_frozen():
    net = d0()
    red = reduce_nunet(net)
    start = encode_config(net, config(net, [(1, 0)]))
    runs = minimal_runs(red, start, max_run_length(net))
    # the two object-update steps commute, everything else is forced
    assert len(runs) == 2
    names = sorted(tuple(m.event.name for m in modes) for modes, _ in runs)
    assert names == [
        ("t1::pick::x", "t1::pick::nu", "t1::fire::nu", "t1::fire::x", "t1::done"),
        ("t1::pick::x", "t1::pick::nu", "t1::fire::x", "t1::fire::nu", "t1::done"),
    ]
    endpoints = {end for _, end in runs}
    assert endpoints == {encode_config(net, config(net, [(0, 1), (1, 0)]))}
    assert all(len(modes) == 5 for modes, _ in runs)


def test_minimal_runs_need_full_length():
    net = d0()
    red = reduce_nunet(net)
    start = encode_config(net, config(net, [(1, 0)]))
    assert minimal_runs(red, start, max_run_length(net) - 1) == []


def test_minimal_runs_reject_non_encoding_start():
    red = reduce_nunet(d0())
    with pytest.raises(ValueError):
        minimal_runs(red, Multiset(), 5)


def test_minimal_runs_budget():
    net = d0()
    red = reduce_nunet(net)
    start = encode_config(net, config(net, [(1, 0), (2, 0)]))
    with pytest.raises(SearchLimitReached):
        minimal_runs(red, start, max_run_length(net), max_expansions=3)


def test_no_run_outlasts_the_longest_gadget():
    # check_simulation walks max_run_length(net) steps: a longer bound finds
    # no further run, so the bound is the net's and not the caller's
    rng = random.Random(5)
    runs = 0
    for _ in range(60):
        net = random_nupn(rng)
        red = reduce_nunet(net)
        longest = max_run_length(net)
        for _ in range(3):
            enc = encode_config(net, random_config(rng, net))
            found = minimal_runs(red, enc, longest)
            assert found == minimal_runs(red, enc, 2 * longest + 3)
            runs += len(found)
    assert runs > 100


# -- gadget endpoints and run counts without listing the runs ---------------------

def _wide_nupn(rng, n_std):
    """A net shaped like netgen's random_nupn, with n_std standard variables."""
    places = ("p0", "p1", "p2")
    standard = tuple(f"x{i}" for i in range(n_std))
    inflow, outflow = {}, {}
    for t in ("t0", "t1"):
        t_in, t_out = {}, {}
        for x in standard:
            if rng.random() < 0.8:
                t_in.setdefault(rng.choice(places), []).append(x)
                for _ in range(rng.randint(0, 1)):
                    t_out.setdefault(rng.choice(places), []).append(x)
        free = [p for p in places if p not in t_out]
        if free and rng.random() < 0.6:
            t_out[rng.choice(free)] = ["nu"]
        inflow[t] = {p: Multiset(vs) for p, vs in t_in.items()}
        outflow[t] = {p: Multiset(vs) for p, vs in t_out.items()}
    net = NuNet(f"w{n_std}", places, ("t0", "t1"), standard_vars=standard,
                fresh_vars=("nu",), inflow=inflow, outflow=outflow)
    assert validate(net) == []
    return net


def _assert_ends_match_minimal_runs(red, start):
    """The endpoint search against the listing referee; returns the run count."""
    runs = minimal_runs(red, start, max_run_length(red.net))
    ends, count = _gadget_ends(red, start, max_run_length(red.net))
    assert ends == {end for _, end in runs}
    assert count == len(runs)
    return count


def test_gadget_ends_match_minimal_runs():
    rng = random.Random(14)
    runs = 0
    for _ in range(60):
        net = random_nupn(rng)
        red = reduce_nunet(net)
        for _ in range(3):
            runs += _assert_ends_match_minimal_runs(red, encode_config(net, random_config(rng, net)))
    assert runs > 100
    # enough names to bind every standard variable; four variables list
    # thousands of runs per configuration, so they get fewer configurations
    wide = 0
    for n_std, configurations in ((3, 3), (3, 3), (3, 3), (4, 2)):
        net = _wide_nupn(rng, n_std)
        red = reduce_nunet(net)
        for _ in range(configurations):
            cfg = Multiset()
            while len(cfg) < n_std:
                cfg = random_config(rng, net, max_tuples=n_std + 1)
            wide += _assert_ends_match_minimal_runs(red, encode_config(net, cfg))
            assert check_simulation(net, cfg, reduction=red).passed
    assert wide > 1000


def test_gadget_ends_d0():
    net = d0()
    red = reduce_nunet(net)
    start = encode_config(net, config(net, [(1, 0)]))
    # two interleavings of the object updates share their last marking
    assert _gadget_ends(red, start, max_run_length(net)) == (
        frozenset({encode_config(net, config(net, [(0, 1), (1, 0)]))}), 2)
    assert _gadget_ends(red, start, max_run_length(net) - 1) == (frozenset(), 0)
    with pytest.raises(ValueError):
        _gadget_ends(red, Multiset(), 5)
    with pytest.raises(SearchLimitReached) as hit:
        _gadget_ends(red, start, max_run_length(net), max_expansions=3)
    assert hit.value.limit == "max_expansions"


def _distinct_names_net(k):
    """One transition moving k standard variables from p to q and minting one name."""
    xs = tuple(f"x{i}" for i in range(k))
    return NuNet(f"k{k}", ("p", "q"), ("t",), standard_vars=xs, fresh_vars=("nu",),
                 inflow={"t": {"p": Multiset(xs)}},
                 outflow={"t": {"q": Multiset(xs), "p": Multiset(["nu"])}})


@pytest.mark.parametrize("k", [3, 4, 5])
def test_check_simulation_counts_factorial_runs(k):
    # k! ways to pick k distinct names, then (k+1)! orders of the commuting
    # object updates; listing the runs would take seconds at k = 5
    net = _distinct_names_net(k)
    began = time.perf_counter()
    report = check_simulation(net, config(net, [(1, i) for i in range(k)]))
    elapsed = time.perf_counter() - began
    assert report.passed
    assert len(report.s2) == 1
    assert report.run_count == math.factorial(k) * math.factorial(k + 1)
    assert elapsed < 5


# -- the one-step equivalence check -----------------------------------------------

def test_check_simulation_d0():
    net = d0()
    report = check_simulation(net, config(net, [(1, 0)]))
    assert report.passed
    assert report.s1 == [config(net, [(0, 1), (1, 0)])]
    assert report.s2 == report.s1
    assert report.run_count == 2
    assert report.max_len == 5


def test_check_simulation_empty_configuration():
    net = d0()
    report = check_simulation(net, Multiset())
    assert report.passed
    assert report.s1 == [] and report.s2 == []
    assert report.run_count == 0


def test_check_simulation_bare_transition():
    # a variable-free transition compiles to a control no-op whose one-step
    # runs decode back to the unchanged configuration
    net = NuNet("n", ("p",), ("t",))
    report = check_simulation(net, config(net, [(2,)]))
    assert report.passed
    assert report.s1 == [config(net, [(2,)])]
    assert report.run_count == 1


def _reduction_with_broken_fire(net):
    """Recompile, then make the object-update step ignore its run token."""
    red = reduce_nunet(net)
    hat = red.system.system
    ts = tuple(t for t in hat.transitions if not t.startswith("idle::"))
    pre = {t: hat.pre_of(t) for t in ts}
    post = {t: hat.post_of(t) for t in ts}
    pre["t1::fire::x"] = Multiset(["t1::selected::x"])
    broken = ObjectSystem(
        PetriNet(hat.name, hat.places, ts, pre, post),
        [red.system.object_nets["data"]],
        red.system.typing,
        red.system.events,
    )
    return Reduction(broken, net, red.name_table)


def test_check_simulation_detects_broken_gadget():
    net = d0()
    bad = _reduction_with_broken_fire(net)
    report = check_simulation(net, config(net, [(1, 0)]), reduction=bad)
    # the orphaned run token pollutes every endpoint, so no run decodes
    assert not report.passed
    assert report.s2 == []
    assert report.s1 == [config(net, [(0, 1), (1, 0)])]


# -- coverability transfer ---------------------------------------------------------

def test_check_transfer_agrees_on_d0():
    net = d0()
    init = config(net, [(1, 0)])
    covered = check_transfer(net, init, config(net, [(0, 1)]), 1)
    assert covered.agree
    assert covered.source.covered and covered.compiled.covered
    assert covered.budget == 5 and covered.run_bound == 5
    assert len(covered.source.witness) == 1
    assert len(covered.compiled.witness) == 5

    missed = check_transfer(net, init, config(net, [(3, 3)]), 2)
    assert missed.agree
    assert not missed.source.covered and not missed.compiled.covered
    assert missed.budget == 10


def gap_net():
    """Two gadget lengths apart: a cheap creator next to an expensive mover."""
    return NuNet(
        name="gap",
        places=("p", "q"),
        transitions=("tf", "tb"),
        standard_vars=("x", "y"),
        fresh_vars=("nu",),
        inflow={"tb": {"p": Multiset(["x", "y"])}},
        outflow={
            "tf": {"p": Multiset(["nu"])},
            "tb": {"p": Multiset(["x", "y"]), "q": Multiset(["nu"])},
        },
    )


def test_transfer_budget_gap_is_real():
    # The compiled side gets depth * max_run_length steps, but a short
    # gadget (here 3 steps) fits more than `depth` source firings into
    # that budget.  Verdicts can then legitimately differ between depth k
    # on the source and budget k*L on the compilation; agreement is only
    # guaranteed for targets coverable within k steps or not coverable
    # within k*L steps.
    net = gap_net()
    assert max_run_length(net) == 7  # from tb; tf alone runs in 3
    target = config(net, [(1, 0), (1, 0)])
    report = check_transfer(net, Multiset(), target, 1)
    assert not report.source.covered   # two creations cannot fit in one step
    assert report.compiled.covered     # but two cheap gadget runs fit in 7
    assert len(report.compiled.witness) == 6
    assert not report.agree


def test_transfer_gap_closes_at_matching_depth():
    net = gap_net()
    target = config(net, [(1, 0), (1, 0)])
    report = check_transfer(net, Multiset(), target, 2)
    assert report.agree
    assert report.source.covered and report.compiled.covered
