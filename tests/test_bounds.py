"""The step bounds of both net kinds against a stateless restatement, and the
work of the witness scan they share.

The bounds keep a witness per goal from one call to the next, so a witness
that goes stale could make a later call under-report.  Falling by at most 1
per step and reading 0 on covers (tests/test_nunet.py, tests/test_eos.py)
would not show that; equality with a formula that keeps nothing does.
"""

import math
import random
from pathlib import Path

from nestnets import (Multiset, NestedToken, NuNet, bounds, cover_nunet, encode_config, explore_nunet, explore_object_system,
                      nunet, objectsystem, parse_nunet, reduce_nunet)
from netgen import random_config, random_marking, random_nupn, random_object_system

DATA = Path(__file__).parent / "data"


def steps_to(wants, haves, gains):
    """The steps to raise haves to wants, one step adding at most gains, place by place."""
    worst = 0
    for want, have, gain in zip(wants, haves, gains):
        if want > have:
            worst = max(worst, math.ceil((want - have) / gain) if gain else math.inf)
    return worst


def cheapest(goal, births, elements, gains):
    """The cheapest lineage of goal over per-place gains: a birth and one step more, or an element now."""
    return min([1 + steps_to(goal, birth, gains) for birth in births]
               + [steps_to(goal, element, gains) for element in elements], default=math.inf)


def name_net_bound(net, target, configuration):
    """The largest over the non-zero target tuples of the cheapest name that can grow into it."""
    gains = [0] * len(net.places)
    for t in net.transitions:
        for x in net.standard_vars_of(t):
            gains = [max(g, o - i) for g, i, o in zip(gains, net.in_vector(t, x), net.out_vector(t, x))]
    births = [net.out_vector(t, v) for t in net.transitions for v in net.fresh_vars_of(t)]
    return max((cheapest(goal, births, configuration.support(), gains) for goal in target.support() if any(goal)), default=0)


def object_system_terms(system, target, marking):
    """The aggregate term (per system place, and per object net and inner place)
    and the token term (per target inner marking of a net of which no event
    consumes two tokens), each from the events alone; the bound is the larger."""
    typing, nets = system.typing, system.object_nets
    need, have, gains = {}, {}, {}
    for tok, c in target.counts():
        need[tok.place] = need.get(tok.place, 0) + c
        for q, k in tok.inner.counts():
            need[typing[tok.place], q] = need.get((typing[tok.place], q), 0) + c * k
    for tok, c in marking.counts():
        have[tok.place] = have.get(tok.place, 0) + c
        for q, k in tok.inner.counts():
            have[typing[tok.place], q] = have.get((typing[tok.place], q), 0) + c * k
    merged, token_gains, births = set(), {}, {}
    for e in system.events:
        pre, post = system.system.pre_of(e.transition), system.system.post_of(e.transition)
        taken = {}
        for p, c in pre.counts():
            taken[typing[p]] = taken.get(typing[p], 0) + c
        merged |= {n for n, c in taken.items() if c > 1}
        made = {n: (nets[n].pre_sum(e.theta_of(n)), nets[n].post_sum(e.theta_of(n))) for n in nets}
        for coordinate in need:
            if isinstance(coordinate, tuple):
                used, out = made[coordinate[0]]
                delta = out.count(coordinate[1]) - used.count(coordinate[1])
            else:
                delta = post.count(coordinate) - pre.count(coordinate)
            gains[coordinate] = max(gains.get(coordinate, 0), delta)
        for n, (used, out) in made.items():
            if n in taken:
                per_place = token_gains.setdefault(n, {})
                for q in nets[n].places:
                    per_place[q] = max(per_place.get(q, 0), out.count(q) - used.count(q))
            elif any(typing[p] == n for p in post.support()):
                births.setdefault(n, []).append(out)
    coordinates = list(need)
    aggregate = steps_to([need[c] for c in coordinates], [have.get(c, 0) for c in coordinates],
                         [gains.get(c, 0) for c in coordinates])
    tokens = 0
    for n, goal in {(typing[tok.place], tok.inner) for tok in target.support()}:
        if goal and n not in merged:
            places = goal.support()
            at = lambda inner: [inner.count(q) for q in places]
            per_place = [token_gains.get(n, {}).get(q, 0) for q in places]
            inners = [tok.inner for tok in marking.support() if typing[tok.place] == n]
            tokens = max(tokens, cheapest(at(goal), map(at, births.get(n, ())), map(at, inners), per_place))
    return aggregate, tokens


def test_name_net_bound_equals_the_stateless_formula_at_every_call():
    # One closure per target, called on the configurations a search reaches,
    # in the order it reaches them, so witnesses are kept, reused and go stale.
    rng = random.Random(341)
    calls = finite = infinite = 0
    for _ in range(300):
        net = random_nupn(rng)
        states = explore_nunet(net, random_config(rng, net), 4, 2000).states
        targets = [random_config(rng, net) for _ in range(2)] + rng.sample(states, min(len(states), 2))
        targets.append(Multiset(tuple(k + 1 for k in tup) for tup in rng.choice(states).elements()))
        for target in targets:
            h = nunet.step_bound(net, target)
            for configuration in states:
                here = h(configuration)
                assert here == name_net_bound(net, target, configuration), (net, target, configuration)
                calls += 1
                finite += 0 < here < math.inf
                infinite += here == math.inf
    assert calls >= 12000 and finite >= 3000 and infinite >= 4000, (calls, finite, infinite)


def test_object_system_bound_equals_the_stateless_formula_at_every_call():
    # As above, for netgen systems and compiled netgen nets, whose data tokens
    # carry the token term; on some calls it is larger than the aggregate term.
    rng = random.Random(342)
    calls = finite = infinite = lineage = 0
    for _ in range(160):
        if rng.random() < 0.5:
            system = random_object_system(rng)
            states = explore_object_system(system, random_marking(rng, system, max_tokens=4), 3, 1500).states
            targets = [random_marking(rng, system) for _ in range(2)]
        else:
            net = random_nupn(rng)
            system = reduce_nunet(net).system
            states = explore_object_system(system, encode_config(net, random_config(rng, net)), 5, 1500).states
            targets = [encode_config(net, random_config(rng, net)) for _ in range(2)]
        targets += rng.sample(states, min(len(states), 3))
        for target in targets:
            h = system.step_bound(target)
            for marking in states:
                here = h(marking)
                aggregate, tokens = object_system_terms(system, target, marking)
                assert here == max(aggregate, tokens), (system, target, marking)
                calls += 1
                lineage += tokens > aggregate
                finite += 0 < here < math.inf
                infinite += here == math.inf
    assert calls >= 4500 and finite >= 2400 and infinite >= 700 and lineage >= 250, (calls, finite, infinite, lineage)


def test_witness_scan_work_on_an_antichain(monkeypatch):
    # N names [i N-i], one transition that moves a name's token from p0 to p1
    # and mints a name, and a target of every name with one more token on p1:
    # each successor moves one name, which leaves every goal a step away, so
    # the depth-1 search drops all N.  A scan without witnesses costs every
    # (goal, name) pair at every call, about N**3 / 2 evaluations; the
    # witnesses keep the whole search within 4 * N**2.
    n = 300
    net = NuNet("dom", ("p0", "p1"), ("t",), ("x",), ("nu",),
                inflow={"t": {"p0": Multiset(["x"])}}, outflow={"t": {"p1": Multiset(["x"]), "p0": Multiset(["nu"])}})
    names = Multiset((i, n - i) for i in range(1, n + 1))
    target = Multiset((i, n + 1 - i) for i in range(1, n + 1))
    calls = evaluations = 0
    lineage_term, deficit_steps = nunet._lineage_term, bounds._steps

    def counted_term(goals):
        term = lineage_term(goals)

        def call(held, steps=0):
            nonlocal calls
            calls += 1
            return term(held, steps)

        return call

    def counted_steps(demands, have):
        nonlocal evaluations
        evaluations += 1
        return deficit_steps(demands, have)

    monkeypatch.setattr(bounds, "_steps", counted_steps)
    monkeypatch.setattr(nunet, "_lineage_term", counted_term)
    assert cover_nunet(net, names, target, 1, max_states=5000) == (False, None, None, 1, False)
    assert calls == n + 1
    assert evaluations <= 4 * n * n, evaluations


def counted_deficits(monkeypatch):
    """The holdings that bounds._steps is called with, the aggregate term's table included, in call order."""
    seen, deficit_steps = [], bounds._steps

    def counted_steps(demands, have):
        seen.append(have)
        return deficit_steps(demands, have)

    monkeypatch.setattr(bounds, "_steps", counted_steps)
    monkeypatch.setattr(objectsystem, "_steps", counted_steps)
    return seen


def test_a_token_that_changes_place_keeps_its_witness(monkeypatch):
    # d0's first pick step moves the data token sim {p:1} to t1::selected::x
    # and leaves its inner marking alone, so the goal sim {q:1} keeps the
    # witness {p:1}: the call evaluates only the aggregate term.
    net, init, target = parse_nunet((DATA / "d0.nupn").read_text())
    system = reduce_nunet(net).system
    seen = counted_deficits(monkeypatch)
    h = system.step_bound(encode_config(net, target))
    initial = encode_config(net, init)
    assert h(initial) == 1
    (_, picked), *_ = system.successors(initial, {}, {})
    assert NestedToken("t1::selected::x", Multiset(["p"])) in picked and NestedToken("sim", Multiset(["p"])) not in picked
    seen.clear()
    assert h(picked) == 1
    assert len(seen) == 1 and isinstance(seen[0], dict), seen


def test_a_scan_costs_each_inner_marking_once_whichever_places_hold_it(monkeypatch):
    # Data tokens { q:1 } on both data places of compiled d0 cost as one token
    # on one place: a scan evaluates each distinct inner marking of a net once.
    net, _, _ = parse_nunet((DATA / "d0.nupn").read_text())
    system = reduce_nunet(net).system
    black, one_q = NestedToken("selectTran", Multiset()), Multiset(["q"])
    target = Multiset([black, NestedToken("sim", Multiset(["q", "q"]))])
    seen = counted_deficits(monkeypatch)
    evaluations = []
    for places in (["sim"], ["sim", "t1::selected::x"]):
        seen.clear()
        assert system.step_bound(target)(Multiset([black] + [NestedToken(p, one_q) for p in places])) == 1
        assert seen.count(one_q) == 1, seen
        evaluations.append(len(seen))
    assert evaluations[0] == evaluations[1], evaluations
