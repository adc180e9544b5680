"""Name-carrying nets: validity, modes, firing, the embedding order."""

import itertools
import random

import pytest

from nestnets import Multiset, NotEnabledError, NuNet
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
    with pytest.raises(ValueError):  # id reuse across classes
        NuNet("n", ("p",), ("t",), standard_vars=("p",))
    with pytest.raises(ValueError):  # unknown transition in flow
        NuNet("n", ("p",), ("t",), ("x",), inflow={"zz": {"p": Multiset(["x"])}})
    with pytest.raises(ValueError):  # unknown place in flow
        NuNet("n", ("p",), ("t",), ("x",), inflow={"t": {"zz": Multiset(["x"])}})
    with pytest.raises(ValueError):  # undeclared variable on an arc
        NuNet("n", ("p",), ("t",), inflow={"t": {"p": Multiset(["x"])}})


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
    effects = {cfg.elements()[m.index_of("x")] for m in dedup}
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
    rng = random.Random(506)
    net = NuNet("n", ("p", "q"), ("t",))
    verdicts = []
    for _ in range(300):
        a = random_config(rng, net, max_tuples=5)
        b = random_config(rng, net) if rng.random() < 0.5 else weaken_config(rng, a)
        verdicts.append(covers(a, b))
        assert verdicts[-1] == covers_by_brute_force(a, b), (a, b)
    assert 30 < sum(verdicts) < 270  # both verdicts are well represented


def test_perfect_left_matching_matches_brute_force():
    assert has_perfect_left_matching([])
    assert not has_perfect_left_matching([[], [0]])  # the first left vertex has no edge
    assert not has_perfect_left_matching([[0], [0]])
    assert has_perfect_left_matching([[0, 1], [0]])  # needs an augmenting path
    rng = random.Random(507)
    for _ in range(300):
        n_left, n_right = rng.randint(0, 4), rng.randint(0, 5)
        adjacency = [[j for j in range(n_right) if rng.random() < 0.4] for _ in range(n_left)]
        expected = any(
            all(j in adjacency[i] for i, j in enumerate(chosen))
            for chosen in itertools.permutations(range(n_right), n_left)
        )
        assert has_perfect_left_matching(adjacency) == expected, adjacency


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
