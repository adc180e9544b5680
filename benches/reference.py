"""Reference semantics for the benchmark, written without nestnets.

The benchmark checks every verdict the CLI prints against these
functions.  They restate the definitions from the nestnets docstrings on
plain Python data, so a bug in the code under test cannot hide in its own
reference:

* a name net is a dict ``{"places", "vars", "fresh", "trans"}`` where each
  transition is ``{"name", "in", "out"}`` and arcs map a place to a list of
  variables;
* a configuration is a sorted tuple of int vectors, one per name;
* an object system is a dict ``{"inner", "places", "trans", "events"}``
  (see ``eos_successors``);
* a marking is a sorted tuple of tokens ``(place, inner)`` where ``inner``
  is a sorted tuple of ``(inner place, count)`` pairs.

The brute-force oracles in ``tests/oracles.py`` enumerate permutations of
occurrences and every split of every inner token, which is exponential in
the sizes the workloads need (64 equal names, 24 inner tokens).  The
successor functions here enumerate distinct values with multiplicities
instead; ``run.py --report`` cross-checks them against the oracles on small
states.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

# -- name nets ------------------------------------------------------------------


def canon(vectors) -> tuple:
    return tuple(sorted(vectors))


def _vector(net: dict, arcs: dict, var: str) -> tuple[int, ...]:
    return tuple(arcs.get(p, []).count(var) for p in net["places"])


def transition_shape(net: dict, t: dict):
    """(standard vars, demand, production, minted vectors) of one transition."""
    used = {v for arcs in (t["in"], t["out"]) for vs in arcs.values() for v in vs}
    xs = [x for x in net["vars"] if x in used]
    demand = {x: _vector(net, t["in"], x) for x in xs}
    production = {x: _vector(net, t["out"], x) for x in xs}
    minted = [_vector(net, t["out"], v) for v in net["fresh"] if v in used]
    return xs, demand, production, minted


def _leq(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def nu_effects(net: dict, config: tuple, t: dict) -> list[tuple]:
    """Distinct variable -> vector assignments of t enabled at config."""
    xs, demand, _, _ = transition_shape(net, t)
    remaining = Counter(config)
    values = sorted(remaining)
    out: list[tuple] = []
    picked: list = []

    def assign(i: int) -> None:
        if i == len(xs):
            out.append(tuple(picked))
            return
        for v in values:
            if remaining[v] and _leq(demand[xs[i]], v):
                remaining[v] -= 1
                picked.append(v)
                assign(i + 1)
                picked.pop()
                remaining[v] += 1

    assign(0)
    return out


def nu_successors(net: dict, config: tuple) -> set[tuple]:
    """Every configuration one firing of any transition can produce."""
    out = set()
    for t in net["trans"]:
        xs, demand, production, minted = transition_shape(net, t)
        for effect in nu_effects(net, config, t):
            c = Counter(config)
            for x, v in zip(xs, effect):
                c[v] -= 1
                c[tuple(m - d + o for m, d, o in zip(v, demand[x], production[x]))] += 1
            for v in minted:
                c[v] += 1
            out.add(canon(c.elements()))
    return out


def _max_flow_covers(left: Counter, right: Counter, fits) -> bool:
    """Can every left occurrence get its own right occurrence it fits into?

    Augmenting paths over distinct values with capacities, searched
    without recursion.
    """
    lvals, rvals = sorted(left), sorted(right)
    adj = [[j for j, r in enumerate(rvals) if fits(l, r)] for l in lvals]
    free = [right[r] for r in rvals]
    holders = [Counter() for _ in rvals]  # holders[j][i]: units of left i placed on right j
    for i, l in enumerate(lvals):
        for _ in range(left[l]):
            # breadth first search for an augmenting path starting at left i
            prev: dict[int, tuple[int, int] | None] = {i: None}
            queue = [i]
            end = None
            while queue and end is None:
                nxt = []
                for a in queue:
                    for j in adj[a]:
                        if free[j]:
                            end = (a, j)
                            break
                        for b in holders[j]:
                            if b not in prev:
                                prev[b] = (a, j)
                                nxt.append(b)
                    if end is not None:
                        break
                queue = nxt
            if end is None:
                return False
            a, j = end
            free[j] -= 1
            holders[j][a] += 1
            while prev[a] is not None:
                pa, pj = prev[a]
                holders[pj][a] -= 1
                if not holders[pj][a]:
                    del holders[pj][a]
                holders[pj][pa] += 1
                a = pa
    return True


def nu_covers(config: tuple, target: tuple) -> bool:
    """Injective, componentwise-dominating assignment of target vectors."""
    if len(target) > len(config):
        return False
    return _max_flow_covers(Counter(target), Counter(config), _leq)


def matching_certificate_ok(config: tuple, target: tuple, pairs: list[tuple[int, int]]) -> bool:
    """Check a claimed injective assignment target[i] <= config[j]."""
    if sorted(i for i, _ in pairs) != list(range(len(target))):
        return False
    js = [j for _, j in pairs]
    if len(set(js)) != len(js) or any(not 0 <= j < len(config) for j in js):
        return False
    return all(_leq(target[i], config[j]) for i, j in pairs)


def nu_growth_bound(net: dict, config: tuple, steps: int) -> tuple[int, ...]:
    """Per place, the largest entry any name can hold after `steps` firings.

    A standard variable changes its name's entry on p by out - in, and a
    fresh name starts at the fresh arc's production.
    """
    start = [max((v[p] for v in config), default=0) for p in range(len(net["places"]))]
    gain = [0] * len(net["places"])
    for t in net["trans"]:
        xs, demand, production, minted = transition_shape(net, t)
        for x in xs:
            for p in range(len(gain)):
                gain[p] = max(gain[p], production[x][p] - demand[x][p])
        for v in minted:
            for p in range(len(gain)):
                start[p] = max(start[p], v[p])
    return tuple(s + steps * g for s, g in zip(start, gain))


# -- object systems -------------------------------------------------------------
#
# system = {
#   "inner":  {"places": [...], "trans": {u: (pre Counter, post Counter)}},
#   "places": {p: "data" | "black"},
#   "trans":  {t: (pre Counter, post Counter)},       # over system places
#   "events": [(name, t, {u: count})],               # t may be "idle::<p>"
# }


def token(place: str, inner: Counter) -> tuple:
    return (place, tuple(sorted((p, k) for p, k in inner.items() if k)))


def _system_arcs(system: dict, t: str):
    if t.startswith("idle::"):
        p = t[len("idle::"):]
        return Counter({p: 1}), Counter({p: 1})
    return system["trans"][t]


def _selections(avail: list[tuple[tuple, int]], need: int):
    """Multisets of exactly `need` tokens out of (token, count) pairs."""
    if need == 0:
        yield ()
        return
    if not avail:
        return
    (tok, have), rest = avail[0], avail[1:]
    for k in range(min(have, need), -1, -1):
        for sel in _selections(rest, need - k):
            yield ((tok, k),) + sel if k else sel


def _splits(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _splits(total - first, parts - 1):
            yield (first,) + rest


def eos_successors(system: dict, marking: tuple) -> set[tuple]:
    """Every marking one event can produce.

    The consumed tokens sit exactly on the transition's input places; the
    inner tokens they carry, minus the synchronised inner transitions'
    consumption plus their production, are split over the data-typed
    output places in every possible way.
    """
    counts = Counter(marking)
    by_place: dict[str, list] = {}
    for tok in sorted(counts):
        by_place.setdefault(tok[0], []).append((tok, counts[tok]))
    out = set()
    for _, t, theta in system["events"]:
        pre, post = _system_arcs(system, t)
        need = Counter()
        gain = Counter()
        for u, k in theta.items():
            upre, upost = system["inner"]["trans"][u]
            for p, c in upre.items():
                need[p] += c * k
            for p, c in upost.items():
                gain[p] += c * k
        slots = [p for p in sorted(post) for _ in range(post[p]) if system["places"][p] == "data"]
        blacks = [p for p in sorted(post) for _ in range(post[p]) if system["places"][p] == "black"]
        choices = [list(_selections(by_place.get(p, []), pre[p])) for p in sorted(pre)]
        for combo in product(*choices):
            taken = Counter()
            have = Counter()
            for sel in combo:
                for tok, k in sel:
                    taken[tok] += k
                    for p, c in tok[1]:
                        have[p] += c * k
            if any(have[p] < c for p, c in need.items()):
                continue
            agg = have - need + gain
            agg = Counter({p: c for p, c in agg.items() if c})
            if agg and not slots:
                continue
            rest = counts - taken
            base = [token(p, Counter()) for p in blacks]
            places = sorted(agg)
            if not slots:
                out.add(tuple(sorted(list(rest.elements()) + base)))
                continue
            for split in product(*(_splits(agg[p], len(slots)) for p in places)):
                made = [token(s, Counter({p: split[i][n] for i, p in enumerate(places)}))
                        for n, s in enumerate(slots)]
                out.add(tuple(sorted(list(rest.elements()) + base + made)))
    return out


def _inner_leq(a: tuple, b: tuple) -> bool:
    bd = dict(b)
    return all(c <= bd.get(p, 0) for p, c in a)


def eos_covers(marking: tuple, target: tuple) -> bool:
    """Place-respecting injective assignment with dominating inner markings."""
    for place in sorted({tok[0] for tok in target}):
        left = Counter(tok for tok in target if tok[0] == place)
        right = Counter(tok for tok in marking if tok[0] == place)
        if sum(left.values()) > sum(right.values()):
            return False
        if not _max_flow_covers(left, right, lambda l, r: _inner_leq(l[1], r[1])):
            return False
    return True


# -- search ---------------------------------------------------------------------


def search_cost(successors, covers, initial, target, depth: int, max_states: int) -> dict:
    """Replay the breadth-first search of a cover query and count its work.

    Layers are built whole and deduplicated; the search stops after the
    first layer holding a covering state, runs out of depth, or gives up
    when a new state arrives while max_states are already known.  Returns
    the outcome ("covered", "not covered" or "limit"), the depth, and the
    states, expanded states and edges seen.
    """
    seen = {initial}
    cost = {"states": 1, "expanded": 0, "edges": 0}
    if covers(initial, target):
        return {"outcome": "covered", "depth": 0, **cost}
    frontier = [initial]
    for d in range(1, depth + 1):
        layer = []
        for s in frontier:
            cost["expanded"] += 1
            for n in sorted(successors(s)):  # a fixed order, whatever the hash seed
                cost["edges"] += 1
                if n not in seen:
                    if len(seen) >= max_states:
                        return {"outcome": "limit", "depth": d, **cost}
                    seen.add(n)
                    cost["states"] += 1
                    layer.append(n)
        if any(covers(s, target) for s in layer):
            return {"outcome": "covered", "depth": d, **cost}
        if not layer:
            break
        frontier = sorted(layer)
    return {"outcome": "not covered", "depth": depth, **cost}


# -- the compiled system, abstractly ---------------------------------------------
#
# The compiler documented in nestnets.reduction turns each source
# transition t into a gadget: pick one object (a name vector) out of sim per
# standard variable, in declaration order; pick the fresh variable, which
# releases one run token per variable; fire each picked object's update
# (enabled only if the object pays the variable's demand) and the fresh
# mint, in any order; a done step returns control.  A compiled marking is
# one of
#
#   (sim, ())                            control idle on selectTran
#   (sim, ("pick", t, picked))           picks so far, in variable order
#   (sim, ("fire", t, pending, fresh))   runs released: pending (var, vector)
#                                        updates and whether the mint is due
#
# where sim is the canonical tuple of vectors still in sim.  Only search
# effort is derived from this model, to balance the workload strata.


def _minus(sim: tuple, v: tuple) -> tuple:
    out = list(sim)
    out.remove(v)
    return tuple(out)


def compiled_successors(net: dict):
    shapes = [transition_shape(net, t) for t in net["trans"]]

    def after_pick(sim, t, picked):
        xs, _, _, minted = shapes[t]
        if len(picked) == len(xs) and not minted:
            return (sim, ("fire", t, tuple(enumerate(picked)), False))
        return (sim, ("pick", t, picked))

    def successors(state):
        sim, phase = state
        out = set()
        if not phase or phase[0] == "pick":
            t_range = [phase[1]] if phase else range(len(shapes))
            for t in t_range:
                xs, _, _, minted = shapes[t]
                picked = phase[2] if phase else ()
                if len(picked) < len(xs):
                    for v in set(sim):
                        out.add(after_pick(_minus(sim, v), t, picked + (v,)))
                elif minted:
                    out.add((sim, ("fire", t, tuple(enumerate(picked)), True)))
                else:  # a transition without variables: done recycles control
                    out.add((sim, ()))
            return out
        _, t, pending, fresh = phase
        xs, demand, production, minted = shapes[t]
        if not pending and not fresh:
            return {(sim, ())}
        for k, (i, v) in enumerate(pending):
            if _leq(demand[xs[i]], v):
                new = tuple(m - d + o for m, d, o in zip(v, demand[xs[i]], production[xs[i]]))
                out.add((canon(sim + (new,)), ("fire", t, pending[:k] + pending[k + 1:], fresh)))
        if fresh:
            out.add((canon(sim + tuple(minted)), ("fire", t, pending, False)))
        return out

    return successors


def compiled_covers(state, target) -> bool:
    sim, phase = state
    return phase == () and nu_covers(sim, target)


def gadget_walks(net: dict, config: tuple, max_len: int) -> int:
    """Expansions of the run enumeration behind check-lemma: every path of
    at most max_len compiled steps from the encoding that has not yet
    returned control."""
    successors = compiled_successors(net)
    memo: dict = {}

    def walks(state, left: int) -> int:
        if left == 0:
            return 0
        key = (state, left)
        if key not in memo:
            memo[key] = 1 + sum(walks(n, left - 1) for n in successors(state) if n[1])
        return memo[key]

    return walks((config, ()), max_len)
