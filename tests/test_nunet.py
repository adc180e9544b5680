"""Name-carrying nets: validity, modes, firing, the embedding order."""

import copy
import itertools
import math
import operator
import random
import sys
import tracemalloc

import pytest

from nestnets import Multiset, NotEnabledError, NuNet, cover_nunet, encode_config, explore_nunet, nunet, reduce_nunet
from nestnets.matching import has_perfect_left_matching
from nestnets.nunet import (
    NuMode,
    config,
    covers,
    enabled_modes,
    fire,
    size,
    validate,
)
from netgen import random_config, random_nupn, weaken_config
from oracles import nu_mode_effects, nu_successors


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


# -- construction and validity -------------------------------------------------

def test_construction_rejections():
    with pytest.raises(ValueError, match="^net n: id 'p' used as both place and variable$"):
        NuNet("n", ("p",), ("t",), standard_vars=("p",))
    with pytest.raises(ValueError, match="^net n: duplicate variable id 'x'$"):  # standard and fresh share one kind
        NuNet("n", ("p",), ("t",), ("x",), ("x",))
    with pytest.raises(ValueError):  # unknown transition in flow
        NuNet("n", ("p",), ("t",), ("x",), inflow={"zz": {"p": Multiset(["x"])}})
    with pytest.raises(ValueError):  # unknown place in flow
        NuNet("n", ("p",), ("t",), ("x",), inflow={"t": {"zz": Multiset(["x"])}})
    with pytest.raises(ValueError):  # undeclared variable on an arc
        NuNet("n", ("p",), ("t",), inflow={"t": {"p": Multiset(["x"])}})
    net = d0()
    for look_up in (net.vars_of, net.standard_vars_of, net.fresh_vars_of,
                    lambda t: net.in_vector(t, "x"), lambda t: net.out_vector(t, "x")):
        with pytest.raises(ValueError, match="^net d0: unknown transition 'nope'$"):
            look_up("nope")


def table_from_arcs(net, t):
    """Each transition's variables, standard and fresh variables, and every
    declared variable's (in vector, out vector), read off the arcs."""
    used = {v for flow in (net.inflow, net.outflow) for ms in flow[t].values() for v in ms.support()}
    vs = tuple(v for v in net.standard_vars + net.fresh_vars if v in used)
    vectors = {
        v: tuple(tuple(flow[t].get(p, Multiset()).count(v) for p in net.places) for flow in (net.inflow, net.outflow))
        for v in net.standard_vars + net.fresh_vars
    }
    return (vs, tuple(v for v in vs if v in set(net.standard_vars)),
            tuple(v for v in vs if v in set(net.fresh_vars)), vectors)


def table_of(net, t):
    """The same, through the net's accessors."""
    vectors = {v: (net.in_vector(t, v), net.out_vector(t, v)) for v in net.standard_vars + net.fresh_vars}
    return net.vars_of(t), net.standard_vars_of(t), net.fresh_vars_of(t), vectors


def test_transition_tables_match_the_arcs():
    rng = random.Random(1301)
    for _ in range(300):
        net = random_nupn(rng)
        for t in net.transitions:
            expected = table_from_arcs(net, t)
            assert table_of(net, t) == expected, (net, t)
            for v in net.standard_vars + net.fresh_vars:
                if v not in expected[0]:  # a variable not on t demands and yields nothing
                    assert (net.in_vector(t, v), net.out_vector(t, v)) == ((0,) * len(net.places),) * 2

    zero = ((0, 0), (0, 0))
    # standard variables declared out of alphabetical order keep their declaration order
    backwards = NuNet("n", ("p", "q"), ("t", "u"), standard_vars=("z", "a", "m"),
                      inflow={"t": {"p": Multiset(["m", "z"]), "q": Multiset(["a", "a"])},
                              "u": {"q": Multiset(["m", "z"])}},
                      outflow={"t": {"q": Multiset(["m"])}})
    assert table_of(backwards, "t") == (("z", "a", "m"), ("z", "a", "m"), (), {
        "z": ((1, 0), (0, 0)), "a": ((0, 2), (0, 0)), "m": ((1, 0), (0, 1))})
    assert table_of(backwards, "u") == (("z", "m"), ("z", "m"), (), {
        "z": ((0, 1), (0, 0)), "a": zero, "m": ((0, 1), (0, 0))})
    # a declared variable that no arc uses, a transition with only a fresh
    # variable, and one with no arcs at all
    net = NuNet("n", ("p", "q"), ("t", "make", "idle"), standard_vars=("x", "unused"), fresh_vars=("nu",),
                inflow={"t": {"p": Multiset(["x"])}},
                outflow={"t": {"q": Multiset(["x"])}, "make": {"q": Multiset(["nu"])}})
    assert table_of(net, "t") == (("x",), ("x",), (), {"x": ((1, 0), (0, 1)), "unused": zero, "nu": zero})
    assert table_of(net, "make") == (("nu",), (), ("nu",), {"x": zero, "unused": zero, "nu": (zero[0], (0, 1))})
    assert table_of(net, "idle") == ((), (), (), {"x": zero, "unused": zero, "nu": zero})
    for n in (backwards, net):
        for t in n.transitions:
            assert table_of(n, t) == table_from_arcs(n, t)


def test_validate_clauses():
    assert validate(d0()) == []
    assert validate(NuNet("n", (), ())) == ["net must declare at least one place"]

    bad = NuNet("n", ("p",), ("t",), fresh_vars=("nu",),
                inflow={"t": {"p": Multiset(["nu"])}},
                outflow={"t": {"p": Multiset(["nu"])}})
    assert "transition t: fresh variable nu on an input arc" in validate(bad)

    bad = NuNet("n", ("p",), ("t",), standard_vars=("x",),
                outflow={"t": {"p": Multiset(["x"])}})
    assert validate(bad) == ["transition t: output variable x not consumed on any input arc"]

    bad = NuNet("n", ("p",), ("t",), standard_vars=("x",), fresh_vars=("nu",),
                inflow={"t": {"p": Multiset(["x"])}},
                outflow={"t": {"p": Multiset(["x", "nu"])}})
    assert validate(bad) == [
        "transition t: output arc to p must be standard variables only or exactly one fresh variable"
    ]

    bad = NuNet("n", ("p",), ("t",), fresh_vars=("nu",),
                outflow={"t": {"p": Multiset(["nu", "nu"])}})
    assert validate(bad) == [
        "transition t: output arc to p must be standard variables only or exactly one fresh variable"
    ]

    bad = NuNet("n", ("p", "q"), ("t", "u"), fresh_vars=("nu", "mu"),
                outflow={"t": {"p": Multiset(["nu"])}, "u": {"q": Multiset(["mu"])}})
    assert validate(bad) == ["output arcs use distinct fresh variables: mu, nu"]


def test_size():
    assert size(d0()) == 3  # 2 places, 1 transition, 3 arc occurrences
    assert size(NuNet("n", ("p", "q", "r", "s"), ("t",))) == 4


def test_config_checks():
    net = d0()
    assert config(net, [(1, 0), (1, 0)]) == Multiset([(1, 0), (1, 0)])
    with pytest.raises(ValueError):
        config(net, [(1,)])
    with pytest.raises(ValueError):
        config(net, [(1, -1)])
    with pytest.raises(ValueError, match=r"^non-integer entry in \[1\.5, 0\]$"):
        config(net, [(1.5, 0)])
    with pytest.raises(ValueError, match=r"^non-integer entry in \[True, 0\]$"):
        config(net, [(True, 0)])


# -- modes ---------------------------------------------------------------------

def test_d0_modes_and_fire():
    net = d0()
    cfg = config(net, [(1, 0)])
    modes = enabled_modes(net, cfg, "t1")
    assert modes == [NuMode.make([("x", 0)])]
    after = fire(net, cfg, "t1", modes[0])
    # the picked tuple moves its token p -> q, one fresh tuple lands on p
    assert after == config(net, [(0, 1), (1, 0)])
    # chaining again from the new configuration
    second = enabled_modes(net, after, "t1")
    assert len(second) == 1
    assert fire(net, after, "t1", second[0]) == config(net, [(0, 1), (0, 1), (1, 0)])


def test_modes_require_demand():
    net = d0()
    assert enabled_modes(net, config(net, [(0, 2)]), "t1") == []
    assert enabled_modes(net, Multiset(), "t1") == []


def test_raw_modes_vs_deduplicated():
    net = d0()
    cfg = config(net, [(1, 0), (1, 0), (2, 0)])
    dedup = enabled_modes(net, cfg, "t1")
    assert len(dedup) == 2  # the two equal tuples collapse
    effects = {cfg.elements()[i] for m in dedup for x, i in m.assignment if x == "x"}
    assert effects == {(1, 0), (2, 0)}


def test_injectivity_across_variables():
    # two variables must pick distinct occurrences, even of equal tuples
    net = NuNet("n", ("p",), ("t",), standard_vars=("x", "y"),
                inflow={"t": {"p": Multiset(["x", "y"])}},
                outflow={"t": {"p": Multiset(["x", "y"])}})
    assert enabled_modes(net, config(net, [(1,)]), "t") == []
    modes = enabled_modes(net, config(net, [(1,), (1,)]), "t")
    assert len(modes) == 1
    assert fire(net, config(net, [(1,), (1,)]), "t", modes[0]) == config(net, [(1,), (1,)])


def test_bare_transition_has_one_empty_mode():
    net = NuNet("n", ("p",), ("t",))
    cfg = config(net, [(3,)])
    modes = enabled_modes(net, cfg, "t")
    assert modes == [NuMode(())]
    assert fire(net, cfg, "t", modes[0]) == cfg


def modes_by_permutations(net, configuration, t):
    """Reference enumerator: every injective assignment of occurrences in
    permutation order, the first one per effect kept, sorted by effect."""
    occ = configuration.elements()
    xs = net.standard_vars_of(t)
    seen = {}
    for idxs in itertools.permutations(range(len(occ)), len(xs)):
        if all(all(d <= m for d, m in zip(net.in_vector(t, x), occ[i])) for x, i in zip(xs, idxs)):
            mode = NuMode.make(zip(xs, idxs))
            seen.setdefault(tuple((v, occ[i]) for v, i in mode.assignment), mode)
    return [seen[k] for k in sorted(seen)]


def test_modes_match_permutation_reference():
    two = NuNet("n", ("p",), ("t",), standard_vars=("x", "y"),
                inflow={"t": {"p": Multiset(["x", "y"])}},
                outflow={"t": {"p": Multiset(["x", "y"])}})
    # x and y may both pick (1,), which occurs twice (y takes the second
    # occurrence), but not (2,), which occurs once
    cfg = config(two, [(1,), (1,), (2,)])
    assert enabled_modes(two, cfg, "t") == [
        NuMode.make([("x", 0), ("y", 1)]),
        NuMode.make([("x", 0), ("y", 2)]),
        NuMode.make([("x", 2), ("y", 0)]),
    ]
    assert enabled_modes(two, config(two, [(2,), (0,)]), "t") == []
    # standard variables declared out of alphabetical order: the first
    # declared takes the first occurrence of a tuple picked twice
    backwards = NuNet("n", ("p", "q"), ("t",), standard_vars=("z", "a", "m"),
                      inflow={"t": {"p": Multiset(["z", "a"]), "q": Multiset(["m"])}})
    cfg = config(backwards, [(1, 1), (1, 1), (1, 0), (0, 1)])
    modes = enabled_modes(backwards, cfg, "t")
    # occurrences: 0 (0, 1), 1 (1, 0), 2 and 3 (1, 1)
    assert NuMode.make([("z", 2), ("a", 3), ("m", 0)]) in modes
    assert NuMode.make([("z", 3), ("a", 2), ("m", 0)]) not in modes
    assert NuMode.make([("z", 1), ("a", 2), ("m", 3)]) in modes
    assert modes == modes_by_permutations(backwards, cfg, "t")

    rng = random.Random(408)
    repeated = 0
    for _ in range(300):
        net = random_nupn(rng)
        base = random_config(rng, net, max_tuples=4, max_entry=1)
        cfg = base + Multiset(rng.choices(base.elements(), k=rng.randint(1, 3))) if base else base
        repeated += len(cfg.support()) < len(cfg)
        for t in net.transitions:
            assert enabled_modes(net, cfg, t) == modes_by_permutations(net, cfg, t), (net, cfg, t)
    for _ in range(100):
        arcs = {p: Multiset(rng.choices("zam", k=rng.randint(0, 3))) for p in ("p", "q")}
        arcs["p"] += Multiset("zam")  # every variable is used
        net = NuNet("n", ("p", "q"), ("t",), standard_vars=("z", "a", "m"), inflow={"t": arcs})
        cfg = random_config(rng, net, max_tuples=5, max_entry=2)
        assert enabled_modes(net, cfg, "t") == modes_by_permutations(net, cfg, "t"), (arcs, cfg)
    assert repeated > 200  # the rest are empty configurations


def test_modes_are_built_sorted_by_effect():
    # enabled_modes sorts nothing: it builds its modes in effect order.  Nets
    # with 2-4 standard variables declared in a random order, on configurations
    # that repeat tuples.
    rng = random.Random(2710)
    several = 0
    for _ in range(2500):
        xs = rng.sample("abmxyz", rng.randint(2, 4))
        arcs = {p: Multiset(rng.choices(xs, k=rng.randint(0, 2))) for p in ("p", "q")}
        arcs["p"] += Multiset(xs)  # every variable is used
        net = NuNet("n", ("p", "q"), ("t",), standard_vars=xs, inflow={"t": arcs})
        base = [(rng.randint(0, 3), rng.randint(0, 2)) for _ in range(rng.randint(2, 4))]
        cfg = config(net, base + rng.choices(base, k=rng.randint(1, 3)))
        modes, occ = enabled_modes(net, cfg, "t"), cfg.elements()
        assert modes == modes_by_permutations(net, cfg, "t"), (xs, arcs, cfg)
        assert modes == sorted(modes, key=lambda mode: [(v, occ[i]) for v, i in mode.assignment])
        several += len(modes) > 1
    assert several >= 1000, several


def test_modes_match_oracle():
    rng = random.Random(404)
    for _ in range(200):
        net = random_nupn(rng)
        cfg = random_config(rng, net)
        for t in net.transitions:
            modes = enabled_modes(net, cfg, t)
            occ = cfg.elements()
            effects = {tuple(sorted((x, occ[i]) for x, i in m.assignment)) for m in modes}
            assert effects == nu_mode_effects(net, cfg, t)
            assert len(effects) == len(modes)
            succ = {fire(net, cfg, t, m).sort_key() for m in modes}
            assert succ == nu_successors(net, cfg, t)


def test_anonymous_collapse():
    # forgetting the names projects every step onto a plain net step: the
    # summed marking changes by the fixed per-transition flow balance
    rng = random.Random(77)
    for _ in range(120):
        net = random_nupn(rng)
        cfg = random_config(rng, net)

        def summed(c):
            return tuple(sum(v[i] for v in c.elements()) for i in range(len(net.places)))

        for t in net.transitions:
            delta = tuple(
                sum(net.out_vector(t, v)[i] for v in net.vars_of(t))
                - sum(net.in_vector(t, v)[i] for v in net.vars_of(t))
                for i in range(len(net.places))
            )
            for mode in enabled_modes(net, cfg, t):
                before, after = summed(cfg), summed(fire(net, cfg, t, mode))
                assert after == tuple(b + d for b, d in zip(before, delta))


def test_fire_rejects_malformed_modes():
    net = d0()
    cfg = config(net, [(1, 0), (1, 0)])
    with pytest.raises(NotEnabledError):  # wrong variable set
        fire(net, cfg, "t1", NuMode.make([("y", 0)]))
    with pytest.raises(NotEnabledError):  # out of range occurrence
        fire(net, cfg, "t1", NuMode.make([("x", 5)]))
    with pytest.raises(NotEnabledError):  # demand not met
        fire(net, config(net, [(0, 1)]), "t1", NuMode.make([("x", 0)]))
    two = NuNet("n", ("p",), ("t",), standard_vars=("x", "y"),
                inflow={"t": {"p": Multiset(["x", "y"])}},
                outflow={"t": {"p": Multiset(["x", "y"])}})
    with pytest.raises(NotEnabledError):  # occurrences must be distinct
        fire(two, config(two, [(2,), (2,)]), "t", NuMode.make([("x", 0), ("y", 0)]))


def fire_by_composition(net, configuration, t, mode):
    """A step as the difference and sums of whole multisets, with vectors read off the arcs."""
    _, _, fresh, vectors = table_from_arcs(net, t)
    occ = configuration.elements()
    consumed = Multiset(occ[i] for _, i in mode.assignment)
    updated = [tuple(m - d + o for m, d, o in zip(occ[i], *vectors[x])) for x, i in mode.assignment]
    minted = [vectors[v][1] for v in fresh]
    return configuration - consumed + Multiset(updated) + Multiset(minted)


def test_fire_matches_composition():
    rng = random.Random(1302)
    steps = 0
    for _ in range(200):
        net = random_nupn(rng)
        for _ in range(3):
            base = random_config(rng, net, max_tuples=4)
            cfg = base + Multiset(rng.choices(base.elements(), k=rng.randint(0, 2))) if base else base
            for t in net.transitions:
                for mode in enabled_modes(net, cfg, t):
                    got, expected = fire(net, cfg, t, mode), fire_by_composition(net, cfg, t, mode)
                    assert got == expected, (net, cfg, t, mode)
                    assert hash(got) == hash(expected)
                    assert got.sort_key() == expected.sort_key()
                    steps += 1
    assert steps > 1000


def test_fire_takes_directly_built_unsorted_modes():
    two = NuNet("n", ("p",), ("t",), standard_vars=("y", "x"),
                inflow={"t": {"p": Multiset(["x", "y", "y"])}},
                outflow={"t": {"p": Multiset(["x"])}})
    cfg = config(two, [(1,), (2,), (3,)])
    unsorted = NuMode((("y", 1), ("x", 2)))  # not built by NuMode.make, so not sorted
    expected = config(two, [(1,), (0,), (3,)])
    assert fire(two, cfg, "t", unsorted) == expected
    assert fire(two, cfg, "t", NuMode.make(unsorted.assignment)) == expected
    # each check keeps its message, and the first failing one speaks
    with pytest.raises(NotEnabledError, match="do not match 't'"):
        fire(two, cfg, "t", NuMode((("y", 9), ("z", 9))))
    with pytest.raises(NotEnabledError, match="does not pick distinct occurrences"):
        fire(two, cfg, "t", NuMode((("y", 1), ("x", 1))))
    with pytest.raises(NotEnabledError, match="does not pick distinct occurrences"):
        fire(two, cfg, "t", NuMode((("y", 0), ("x", 3))))
    with pytest.raises(NotEnabledError, match=r"occurrence \(1,\) cannot pay 't'.s demand for y"):
        fire(two, cfg, "t", NuMode((("y", 0), ("x", 1))))


def test_successors_step_as_fire_and_the_oracle_do():
    # A search steps from the tuples each mode picked; fire finds a mode's tuples
    # by occurrence and checks them.  The two give the same pairs in the same
    # order, and per transition the next configurations are the oracle's.
    rng = random.Random(3202)
    pairs = 0
    for _ in range(300):
        net = random_nupn(rng)
        base = random_config(rng, net, max_tuples=4)
        cfg = base + Multiset(rng.choices(base.elements(), k=rng.randint(0, 2))) if base else base
        got = list(nunet.successors(net, cfg))
        assert got == [((t, m), fire(net, cfg, t, m)) for t in net.transitions for m in enabled_modes(net, cfg, t)]
        for t in net.transitions:
            assert {nxt.sort_key() for (u, _), nxt in got if u == t} == nu_successors(net, cfg, t), (net, cfg, t)
        pairs += len(got)
    assert pairs > 500, pairs


# -- the embedding order ---------------------------------------------------------

def test_covers_hand_cases():
    net = d0()
    big = config(net, [(2, 1), (0, 1)])
    assert covers(big, config(net, [(1, 0)]))
    assert covers(big, config(net, [(2, 1), (0, 1)]))
    assert covers(big, Multiset())
    assert not covers(big, config(net, [(2, 2)]))
    assert not covers(big, config(net, [(1, 0), (1, 0)]))  # injectivity
    assert not covers(big, config(net, [(1, 1), (1, 1)]))  # only one fits both
    assert covers(big, config(net, [(1, 1), (0, 1)]))


def test_covers_exact_mode():
    net = d0()
    big = config(net, [(2, 1), (0, 1)])
    assert covers(big, config(net, [(0, 1)]), exact=True)
    assert not covers(big, config(net, [(1, 0)]), exact=True)
    assert covers(big, config(net, [(2, 1), (0, 1)]), exact=True)
    assert not covers(big, config(net, [(0, 1), (0, 1)]), exact=True)


def test_covers_needs_real_matching():
    big = Multiset([(2, 2), (1, 0)])
    target = Multiset([(1, 0), (2, 2)])
    assert covers(big, target)
    assert not covers(Multiset([(2, 2)]), Multiset([(1, 0), (0, 1)]))


def covers_by_brute_force(configuration, target):
    """Domination by trying every injective assignment of target tuples."""
    left = target.elements()
    return any(
        all(len(l) == len(r) and all(x <= y for x, y in zip(l, r)) for l, r in zip(left, chosen))
        for chosen in itertools.permutations(configuration.elements(), len(left))
    )


def test_covers_matches_brute_force():
    # tuples of another arity never dominate
    mixed = Multiset([(2, 2), (2, 2, 2)])
    for target in (Multiset([(1, 1, 1), (1, 1, 1)]), Multiset([(1,)]), Multiset([(1, 1), (0, 0, 0)])):
        assert covers(mixed, target) == covers_by_brute_force(mixed, target)
    # the empty tuple has no coordinate to compare: only its arity decides
    for configuration, target, expected in (
        (Multiset([(1,), (2, 2)]), Multiset([()]), False),
        (Multiset([(), (1,)]), Multiset([(), ()]), False),
        (Multiset([(), (), (1,)]), Multiset([(), (), (0,)]), True),
    ):
        assert covers(configuration, target) == covers_by_brute_force(configuration, target) == expected
    rng = random.Random(506)
    net = NuNet("n", ("p", "q"), ("t",))
    verdicts = []
    for _ in range(300):
        a = random_config(rng, net, max_tuples=5)
        b = random_config(rng, net) if rng.random() < 0.5 else weaken_config(rng, a)
        verdicts.append(covers(a, b))
        assert verdicts[-1] == covers_by_brute_force(a, b), (a, b)
    assert 30 < sum(verdicts) < 270  # both verdicts are well represented
    # tuples of arity 1-3 in one multiset; weakening keeps many coordinates
    # equal to a configuration value, the boundary of the per-coordinate sweep
    verdicts = []
    for _ in range(300):
        a = Multiset(
            tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(0, 6))
        )
        b = weaken_config(rng, a) if rng.random() < 0.6 else Multiset(
            tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(0, 3))
        )
        verdicts.append(covers(a, b))
        assert verdicts[-1] == covers_by_brute_force(a, b), (a, b)
    assert 30 < sum(verdicts) < 270


def test_covers_slot_cap():
    # more copies of one tuple than the target has tuples
    assert covers(Multiset([(2, 2)] * 10 + [(0, 0)]), Multiset([(1, 1), (2, 0), (0, 2)]))
    assert not covers(Multiset([(2, 2)] * 10), Multiset([(1, 1), (2, 0), (3, 0)]))
    # the target needs every copy of one tuple, and one more than there are
    assert covers(Multiset([(1, 1)] * 3), Multiset([(1, 1)] * 3))
    assert covers(Multiset([(1, 1)] * 3 + [(0, 0)]), Multiset([(1, 1), (1, 0), (0, 1), (0, 0)]))
    assert not covers(Multiset([(1, 1)] * 2 + [(0, 0)] * 5), Multiset([(1, 1)] * 3))


def singles(adjacency):
    """One group of demand 1 per left vertex."""
    return [(edges, 1) for edges in adjacency]


def test_perfect_left_matching_matches_brute_force():
    assert has_perfect_left_matching([], [])
    assert not has_perfect_left_matching(singles([[], [0]]), [1])  # the first left vertex has no edge
    assert not has_perfect_left_matching(singles([[0], [0]]), [1])
    assert has_perfect_left_matching(singles([[0, 1], [0]]), [1, 1])  # needs an augmenting path
    # left 0 must move off right 0 for left 1, so right 0 stays taken for left 2
    assert not has_perfect_left_matching(singles([[0, 1, 2], [0], [0]]), [1, 1, 1])
    assert has_perfect_left_matching(singles([[0, 5], [0, 1, 4, 5], [0, 2, 3, 4], [0, 2], [0]]), [1] * 6)
    # capacities: a full right vertex passes the search on to the groups it holds
    assert has_perfect_left_matching([([0], 2)], [2])
    assert not has_perfect_left_matching([([0], 3)], [2])
    assert not has_perfect_left_matching(singles([[0]]), [0])
    assert has_perfect_left_matching([([0], 0)], [0])  # a group of no copies needs nothing
    assert has_perfect_left_matching([([0, 1], 2), ([0], 1)], [2, 1])  # a copy moves to right 1
    assert not has_perfect_left_matching([([0, 1], 2), ([0], 1), ([1], 1)], [2, 1])
    rng = random.Random(507)
    for _ in range(3000):
        n_right = rng.randint(0, 5)
        groups = []
        for _ in range(rng.randint(0, 3)):  # at most 4 copies in all
            demand = rng.randint(0, min(3, 4 - sum(d for _, d in groups)))
            groups.append(([j for j in range(n_right) if rng.random() < 0.4], demand))
        capacity = [rng.randint(0, 3) for _ in range(n_right)]
        left = [edges for edges, demand in groups for _ in range(demand)]
        # brute force over one left vertex per copy and capacity[j] distinct slots per right vertex j
        slots = [j for j in range(n_right) for _ in range(capacity[j])]
        expected = any(
            all(slots[s] in left[i] for i, s in enumerate(chosen))
            for chosen in itertools.permutations(range(len(slots)), len(left))
        )
        assert has_perfect_left_matching(groups, capacity) == expected, (groups, capacity)


def test_perfect_left_matching_long_augmenting_paths():
    n = 5 * sys.getrecursionlimit()
    ones = [1] * n
    # left i first tries right i - 1, held by left i - 1, and so on down the chain
    assert has_perfect_left_matching(singles([[0]] + [[i - 1, i] for i in range(1, n)]), ones)
    # the last left vertex frees right 0 by moving every other left vertex one step
    assert has_perfect_left_matching(singles([[i, i + 1] for i in range(n - 1)] + [[0]]), ones)
    assert not has_perfect_left_matching(singles([[i, i + 1] for i in range(n - 1)] + [[0], [0]]), ones)


def test_covers_long_chain():
    # target (i, n-i) fits only (i, n-i+1) and (i+1, n-i): a chain of n tuples,
    # all of one arity and one sum; testing every pair would take minutes
    n = 20_000
    configuration = Multiset((j + 1, n - j) for j in range(n))
    assert covers(configuration, Multiset((i, n - i) for i in range(n)))


def test_covers_many_copies():
    # thousands of copies of a few tuples; one right vertex per copy took over a minute
    n = 5_000
    configuration = Multiset([(2, 2)] * n + [(1, 1)] * n)
    assert covers(configuration, Multiset([(1, 1)] * n + [(2, 0)] * n))
    assert not covers(configuration, Multiset([(1, 1)] * (n - 1) + [(2, 0)] * (n + 1)))
    # the (1, 1) copies fill (1, 5) first, so every (1, 4) copy moves one of them to (3, 3)
    configuration = Multiset([(1, 5)] * n + [(3, 3)] * n)
    assert covers(configuration, Multiset([(1, 1)] * n + [(1, 4)] * n))
    assert not covers(configuration, Multiset([(1, 1)] * n + [(1, 4)] * (n - 1) + [(4, 0)]))


def test_covers_memory_bounded():
    # one live 10 000-bit mask per target tuple peaked above 14 MB here
    n = 10_000
    configuration = Multiset((j + 1, n - j) for j in range(n))
    target = Multiset((i, n - i) for i in range(n))
    configuration.items(), target.items()  # the canonical orders are not the check's own memory
    tracemalloc.start()
    try:
        assert covers(configuration, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000, peak


def test_covers_memory_bounded_with_memo():
    # a search's memo holds the index lists of the tuples it has seen, and the
    # second call files the first call's edges into it
    n = 10_000
    configuration = Multiset((j + 1, n - j) for j in range(n))
    target = Multiset((i, n - i) for i in range(n))
    nearly = Multiset([(0, n + 1)] + [(j + 1, n - j) for j in range(1, n)])  # all but one tuple seen
    for ms in (configuration, target, nearly):
        ms.items()  # the canonical orders are not the check's own memory
    memo = {}
    tracemalloc.start()
    try:
        assert covers(configuration, target, memo=memo)
        assert covers(nearly, target, memo=memo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000, peak


def random_tuples(rng, pool, most):
    """A multiset of up to `most` tuples drawn from pool, copies allowed."""
    return Multiset(rng.choice(pool) for _ in range(rng.randint(0, most)))


def test_covers_shared_memo_matches_memo_free_and_brute_force():
    # One memo serves many configurations and two targets, as a search's memo
    # would if it met both.  The tuples come from a small pool of arities 0-3,
    # so calls mix tuples the memo has seen with new ones, and some calls see
    # only new tuples after others have been filed.
    rng = random.Random(2323)
    verdicts = []
    for _ in range(60):
        pool = list({tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 3))) for _ in range(rng.randint(3, 10))})
        targets = [random_tuples(rng, pool, 3) for _ in range(2)]
        memo = {}
        for _ in range(12):
            configuration = random_tuples(rng, pool, 6)
            for target in targets + [Multiset(targets[0].elements())]:  # an equal target, another object
                verdicts.append(covers(configuration, target, memo=memo))
                assert verdicts[-1] == covers(configuration, target) == covers_by_brute_force(configuration, target), (
                    configuration, target)
        assert memo
    assert 300 < sum(verdicts) < len(verdicts) - 300  # both verdicts are well represented


def test_covers_exact_never_touches_the_memo():
    memo = {}
    big = Multiset([(2, 1), (0, 1)])
    assert covers(big, Multiset([(0, 1)]), exact=True, memo=memo)
    assert not covers(big, Multiset([(1, 0)]), exact=True, memo=memo)
    assert memo == {}


def dominators_by_pairs(new, goals):
    """Per tuple of new, the ascending indices of the goals it dominates, pair by pair."""
    return {t: [g for g, goal in enumerate(goals) if len(goal) == len(t) and all(a <= b for a, b in zip(goal, t))]
            for t in new}


def test_dominators_match_pairwise_oracle():
    rng = random.Random(2424)

    def tuples(count):
        return [tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 3))) for _ in range(count)]

    cases = [(tuples(rng.randint(1, 30)), tuples(rng.randint(1, 12))) for _ in range(200)]  # arities 0-3 mixed
    cases += [([], tuples(5)), (tuples(20), [])]
    # more than 1024 tuples of one arity cross a chunk boundary
    wide = [tuple(rng.randint(0, 40) for _ in range(3)) for _ in range(2500)]
    cases.append((wide + tuples(40), tuples(60) + wide[:30]))
    for new, goals in cases:
        assert nunet._dominators(new, goals) == dominators_by_pairs(new, goals), (new, goals)
    assert sum(map(len, nunet._dominators(*cases[-1]).values())) > 2500  # the wide case holds real edges


def dominators_calls(monkeypatch):
    """Route nunet._dominators through a recorder: returns the list of the
    (distinct tuples, wanted tuples) of each call."""
    calls = []
    dominators = nunet._dominators

    def recorded(distinct, wanted):
        calls.append((list(distinct), list(wanted)))
        return dominators(distinct, wanted)

    monkeypatch.setattr(nunet, "_dominators", recorded)
    return calls


def test_search_indexes_each_tuple_once_per_target(monkeypatch):
    # A search covers-checks every state it reaches, and most states share
    # their tuples with the states before them.  t1 moves a name's token
    # from p to two on q, and t2 one from q to r, minting a name on p.
    net = NuNet(
        "grow", ("p", "q", "r"), ("t1", "t2"), ("x",), ("nu",),
        inflow={"t1": {"p": Multiset(["x"])}, "t2": {"q": Multiset(["x"])}},
        outflow={"t1": {"q": Multiset(["x", "x"])}, "t2": {"r": Multiset(["x"]), "p": Multiset(["nu"])}},
    )
    initial = config(net, [(2, 0, 0), (1, 1, 0), (1, 1, 0), (0, 1, 1)])
    calls = dominators_calls(monkeypatch)
    checks = []
    real_covers = nunet.covers
    monkeypatch.setattr("nestnets.coverability.nu_covers", lambda *a, **k: checks.append(a) or real_covers(*a, **k))
    # Neither target is coverable within 4 steps: only t2 puts a token on r, on
    # one name per step, and one name holds one now, so at most five names hold
    # one.  Both ask for six, and some name reaches each of their tuples, so the
    # step bound keeps every state.
    for target in (config(net, [(0, 0, 1)] * 6), config(net, [(0, 1, 1), (0, 1, 1), (0, 0, 1), (0, 0, 1), (0, 0, 1), (0, 0, 1)])):
        calls.clear()
        checks.clear()
        answer = cover_nunet(net, initial, target, depth=4)
        assert not answer.covered
        passed = [tup for distinct, wanted in calls for tup in distinct]
        assert len(passed) == len(set(passed))  # each distinct tuple once
        assert set(passed) == {tup for state, _ in checks for tup in state.support()}
        assert all(set(wanted) == set(target.support()) for _, wanted in calls)
        assert len(checks) > 4 * len(calls)  # most checks index nothing
    # A name gains at most one token on r per step.  So (0, 0, 9) is 8 steps from
    # every name, and the step bound answers at the start.  No name gets a fifth
    # token on r within 4 steps, so no state the second search keeps has bound
    # 0.  Each search tests only the initial configuration, indexing its tuples
    # once.
    for target in (config(net, [(0, 0, 9)]), config(net, [(0, 1, 1), (0, 1, 1), (0, 0, 5)])):
        calls.clear()
        checks.clear()
        assert cover_nunet(net, initial, target, depth=4) == (False, None, None, 4, False)
        assert [state for state, _ in checks] == [initial] and len(calls) == 1


def test_domination_memo_dies_with_the_search(monkeypatch):
    net = d0()
    initial = config(net, [(2, 0), (1, 0)])
    target = config(net, [(0, 3)])
    before = copy.deepcopy(vars(net))
    calls = dominators_calls(monkeypatch)
    first = cover_nunet(net, initial, target, depth=3)
    once = list(calls)
    assert once and vars(net) == before
    second = cover_nunet(net, initial, target, depth=3)
    assert first == second and calls[len(once):] == once  # the second search indexes every tuple again
    assert vars(net) == before


def covers_by_pairs(configuration, target):
    """Domination through a matching over every pair of occurrences."""
    right = configuration.elements()
    return has_perfect_left_matching(singles(
        [j for j, r in enumerate(right) if len(l) == len(r) and all(a <= b for a, b in zip(l, r))]
        for l in target.elements()
    ), [1] * len(right))


def test_covers_wide_configuration():
    n = 50_000
    configuration = Multiset((j, n - j, j % 7) for j in range(n))
    only = (n // 2, n - n // 2, n // 2 % 7)  # dominated by one tuple alone
    for target, expected in (
        (Multiset([only, (0, 0, 0), (1, 1, 6)]), True),
        (Multiset([only, only, (0, 0, 0)]), False),
        (Multiset([(n, 1, 0), (3, n - 3, 4), (n // 3, n // 3, 3)]), False),
    ):
        assert covers(configuration, target) == covers_by_pairs(configuration, target) == expected


def test_covers_quasi_order():
    rng = random.Random(505)
    net = NuNet("n", ("p", "q"), ("t",))
    for _ in range(200):
        a = random_config(rng, net)
        b = random_config(rng, net)
        c = random_config(rng, net)
        assert covers(a, a)
        assert covers(a + b, a)
        if covers(a, b) and covers(b, c):
            assert covers(a, c)
        if covers(a, b, exact=True):
            assert covers(a, b)  # exact inclusion implies embedding


# -- step bound -----------------------------------------------------------------

def test_step_bound_falls_by_at_most_one_per_step_and_is_zero_on_covers():
    # On configurations that searches of netgen nets reach, for targets random,
    # reached, and reached with one more token on every entry: h(c) <= h(c') + 1
    # for every successor c', and h(c) = 0 wherever c covers the target.  These
    # two facts let a bounded search drop a configuration found at depth d once
    # d + h(c) > depth.
    rng = random.Random(33)
    steps = covering = finite = infinite = 0
    for _ in range(80):
        net = random_nupn(rng)
        states = explore_nunet(net, random_config(rng, net), 2, 5000).states
        configurations = rng.sample(states, min(len(states), 6))
        targets = [random_config(rng, net) for _ in range(3)] + rng.sample(states, min(len(states), 2))
        targets.append(Multiset(tuple(k + 1 for k in tup) for tup in rng.choice(states).elements()))
        for target in targets:
            h = nunet.step_bound(net, target)
            for c in configurations:
                here = h(c)
                assert here == 0 or not covers(c, target)
                covering += covers(c, target)
                finite += 0 < here < math.inf
                infinite += here == math.inf
                for _, nxt in nunet.successors(net, c):
                    assert here <= h(nxt) + 1
                    steps += 1
    assert steps >= 1500 and covering >= 300 and finite >= 60 and infinite >= 300, (steps, covering, finite, infinite)


def test_step_bound_sees_each_name_alone():
    # A target tuple that two names hold only together is at least a step away
    # from each name, so the bound is at least 1 where an aggregate over the
    # names reads 0; the compiled system's token term agrees.
    rng = random.Random(34)
    seen = 0
    for _ in range(100):
        net = random_nupn(rng)
        names = random_config(rng, net, max_tuples=4)
        if len(names) < 2:
            continue
        whole = tuple(map(sum, zip(*names.elements()[:2])))
        if any(all(map(operator.le, whole, tup)) for tup in names.support()):
            continue  # one name holds it
        target = config(net, [whole])
        assert nunet.step_bound(net, target)(names) >= 1
        assert reduce_nunet(net).system.step_bound(encode_config(net, target))(encode_config(net, names)) >= 1
        seen += 1
    assert seen >= 30, seen
