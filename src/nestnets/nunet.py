"""Nets whose tokens carry names, abstracted as per-name count vectors.

A configuration is a multiset of int tuples, one tuple per known name,
giving that name's token count on each place (places in declaration
order).  Arcs are labelled with multisets of variables.  Standard
variables range over the names present in the configuration; fresh
variables mint names unseen so far, which is why they may only occur on
output arcs, and there only as a whole singleton label.

A transition fires in a mode that picks one distinct tuple occurrence per
standard variable with enough tokens for that variable's input arcs.  The
picked tuples are updated per variable, every fresh variable contributes
one new tuple, and untouched tuples stay as they are.

A search steps from the tuples each mode picked, as _picks yields them;
fire, the checked replay step, checks a given mode first.  A cover search
also drops each configuration that step_bound shows cannot cover in the
steps it has left.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter, le
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .matching import has_perfect_left_matching
from .multisets import EMPTY, Multiset
from .petri import NotEnabledError, _claim_ids

Flow = Mapping[str, Mapping[str, Multiset]]


class NuNet:
    """Places, transitions, variables and variable-labelled arcs.

    inflow[t][p] is the variable multiset on the arc p -> t, outflow[t][p]
    the one on t -> p.  Missing entries mean no arc.
    """

    def __init__(
        self,
        name: str,
        places: Iterable[str],
        transitions: Iterable[str],
        standard_vars: Iterable[str] = (),
        fresh_vars: Iterable[str] = (),
        inflow: Flow | None = None,
        outflow: Flow | None = None,
    ):
        self.name = name
        self.places = tuple(places)
        self.transitions = tuple(transitions)
        self.standard_vars = tuple(standard_vars)
        self.fresh_vars = tuple(fresh_vars)
        _claim_ids(
            name,
            (("place", self.places), ("transition", self.transitions), ("variable", self.standard_vars + self.fresh_vars)),
        )
        all_vars = set(self.standard_vars) | set(self.fresh_vars)
        place_set = set(self.places)

        def normalize(label: str, flow: Flow | None) -> dict[str, dict[str, Multiset]]:
            out: dict[str, dict[str, Multiset]] = {t: {} for t in self.transitions}
            for t, arcs in (flow or {}).items():
                if t not in out:
                    raise ValueError(f"net {name}: {label} for unknown transition {t!r}")
                for p, ms in arcs.items():
                    if p not in place_set:
                        raise ValueError(f"net {name}: transition {t!r} {label} arc on unknown place {p!r}")
                    for v, _ in ms.counts():
                        if v not in all_vars:
                            raise ValueError(f"net {name}: transition {t!r} uses undeclared variable {v!r}")
                    if ms:
                        out[t][p] = ms
            return out

        self.inflow = normalize("input", inflow)
        self.outflow = normalize("output", outflow)

        # Per transition, derived once from its arcs, as a net never changes: its variables in declaration
        # order, its standard ones, its fresh ones, variable -> (in vector, out vector), the standard ones
        # in name order, and per variable in name order the positions there of those declared before it.
        self._tables: dict[str, tuple] = {}
        self._zeros = ((0,) * len(self.places),) * 2  # the vectors of a variable not on t
        for t in self.transitions:
            arcs = (self.inflow[t], self.outflow[t])
            used = dict.fromkeys(v for flow in arcs for ms in flow.values() for v in ms.support())
            xs, fresh = [tuple(v for v in group if v in used) for group in (self.standard_vars, self.fresh_vars)]
            vectors = {v: tuple(tuple(flow.get(p, EMPTY).count(v) for p in self.places) for flow in arcs) for v in used}
            names = sorted(xs)
            before = [[j for j, y in enumerate(names) if xs.index(y) < xs.index(x)] for x in names]
            self._tables[t] = (xs + fresh, xs, fresh, vectors, names, before)

    # -- per-transition views ------------------------------------------------

    def _table(self, t: str) -> tuple:
        if t not in self._tables:
            raise ValueError(f"net {self.name}: unknown transition {t!r}")
        return self._tables[t]

    def vars_of(self, t: str) -> tuple[str, ...]:
        """Variables on any arc of t, in declaration order."""
        return self._table(t)[0]

    def standard_vars_of(self, t: str) -> tuple[str, ...]:
        return self._table(t)[1]

    def fresh_vars_of(self, t: str) -> tuple[str, ...]:
        return self._table(t)[2]

    def in_vector(self, t: str, v: str) -> tuple[int, ...]:
        """Tokens demanded per place by variable v on t's input arcs."""
        return self._table(t)[3].get(v, self._zeros)[0]

    def out_vector(self, t: str, v: str) -> tuple[int, ...]:
        return self._table(t)[3].get(v, self._zeros)[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NuNet):
            return NotImplemented
        return (
            self.name == other.name
            and self.places == other.places
            and self.transitions == other.transitions
            and self.standard_vars == other.standard_vars
            and self.fresh_vars == other.fresh_vars
            and self.inflow == other.inflow
            and self.outflow == other.outflow
        )

    def __repr__(self) -> str:
        return f"NuNet({self.name!r}, {len(self.places)} places, {len(self.transitions)} transitions)"


def validate(net: NuNet) -> list[str]:
    """Well-formedness violations, empty when the net is usable.

    Checks, per transition: fresh variables only on output arcs; output
    standard variables consumed somewhere on the inputs; output arcs either
    all-standard or exactly one fresh variable.  Net-wide: at least one
    place, and a single designated fresh variable on all creating arcs.
    """
    issues: list[str] = []
    if not net.places:
        issues.append("net must declare at least one place")
    fresh = set(net.fresh_vars)
    creating: dict[str, str] = {}
    for t in net.transitions:
        in_vars = {v for v in net.vars_of(t) if any(net.in_vector(t, v))}
        out_vars = {v for v in net.vars_of(t) if any(net.out_vector(t, v))}
        for v in sorted(in_vars & fresh):
            issues.append(f"transition {t}: fresh variable {v} on an input arc")
        for v in sorted((out_vars - fresh) - in_vars):
            issues.append(f"transition {t}: output variable {v} not consumed on any input arc")
        for p, ms in sorted(net.outflow[t].items()):
            fresh_here = [v for v in ms.support() if v in fresh]
            if not fresh_here:
                continue
            if len(fresh_here) > 1 or ms.total() != 1:
                issues.append(
                    f"transition {t}: output arc to {p} must be standard variables only"
                    f" or exactly one fresh variable"
                )
            else:
                creating.setdefault(fresh_here[0], f"{t}->{p}")
    if len(creating) > 1:
        names = ", ".join(sorted(creating))
        issues.append(f"output arcs use distinct fresh variables: {names}")
    return issues


def size(net: NuNet) -> int:
    """max(place count, transition count, total arc label weight)."""
    weight = sum(
        ms.total()
        for flow in (net.inflow, net.outflow)
        for arcs in flow.values()
        for ms in arcs.values()
    )
    return max(len(net.places), len(net.transitions), weight)


# -- configurations ----------------------------------------------------------


def config(net: NuNet, vectors: Iterable[Sequence[int]]) -> Multiset:
    """Build a configuration, checking that every vector fits the net: one
    non-negative int per place.  The one check of this rule; the parsers and
    the compiler call it too."""
    out = []
    arity = len(net.places)
    for vec in vectors:
        tup = tuple(vec)
        if len(tup) != arity:
            raise ValueError(f"vector {list(tup)} has arity {len(tup)}, net has {arity} places")
        for k in tup:
            if isinstance(k, bool) or not isinstance(k, int):
                raise ValueError(f"non-integer entry in {list(tup)}")
            if k < 0:
                raise ValueError(f"negative entry in {list(tup)}")
        out.append(tup)
    return Multiset(out)


class NuMode(NamedTuple):
    """Chosen tuple occurrence per standard variable.

    Indices refer to the canonical enumeration of the configuration's
    occurrences (Multiset.elements()).
    """

    assignment: tuple[tuple[str, int], ...]

    @classmethod
    def make(cls, pairs: Iterable[tuple[str, int]]) -> "NuMode":
        return cls(tuple(sorted(pairs)))


def _picks(net: NuNet, configuration: Multiset, t: str) -> Iterator[tuple[NuMode, tuple]]:
    """The enabled modes, one per effect (the tuple each variable picks), in effect order, each with
    the tuples it picks in name order, lazily.  The one mode enumerator.

    The k-th variable, in declaration order, to pick a tuple takes its k-th
    occurrence if there is one: the effect's first assignment in permutation order.
    The product runs over the variables in name order, each over its fitting tuples
    in canonical order, so the modes come out sorted without a sort.  The net built
    that name order, and which variables precede each in declaration order, with
    the transition; one pass over the canonical items gives each tuple its first
    occurrence and its count."""
    items = configuration.items()
    starts = itertools.accumulate((count for _, count in items), initial=0)
    spans = {tup: (at, count) for (tup, count), at in zip(items, starts)}  # tuple -> (first occurrence, count)
    _, _, _, vectors, names, before = net._table(t)
    choices = [[tup for tup in spans if all(map(le, vectors[x][0], tup))] for x in names]
    for picks in itertools.product(*choices):
        idxs = []
        for tup, earlier in zip(picks, before):
            first, count = spans[tup]
            k = [picks[j] for j in earlier].count(tup)
            if k == count:
                break
            idxs.append(first + k)
        else:
            yield NuMode(tuple(zip(names, idxs))), picks


def enabled_modes(net: NuNet, configuration: Multiset, t: str) -> list[NuMode]:
    """Enabled modes, one per effect, sorted by effect: the modes of _picks."""
    return [mode for mode, _ in _picks(net, configuration, t)]


def _apply(configuration: Multiset, vectors: dict, fresh: Sequence[str], xs: Sequence[str], picks: Sequence[tuple]) -> Multiset:
    """Update each tuple of picks by the (in, out) vectors of its variable in xs, and mint one tuple
    per fresh variable.  The one update rule: the search and the checked step both call it."""
    updated = [(tuple(m - d + o for m, d, o in zip(tup, *vectors[x])), 1) for x, tup in zip(xs, picks)]
    return configuration.replace([(tup, 1) for tup in picks], updated + [(vectors[v][1], 1) for v in fresh])


def fire(net: NuNet, configuration: Multiset, t: str, mode: NuMode) -> Multiset:
    """The checked replay step: a mode of t's variables that picks distinct occurrences, each able to
    pay its variable's demand, updates the picked tuples and mints the fresh ones."""
    occ = configuration.elements()
    _, xs, fresh, vectors, names, _ = net._table(t)
    if sorted(v for v, _ in mode.assignment) != names:
        raise NotEnabledError(f"mode variables {mode.assignment} do not match {t!r} (expects {xs})")
    idxs = [i for _, i in mode.assignment]
    if len(set(idxs)) != len(idxs) or any(i < 0 or i >= len(occ) for i in idxs):
        raise NotEnabledError(f"mode {mode.assignment} does not pick distinct occurrences of {configuration}")
    for x, i in mode.assignment:
        if any(d > m for d, m in zip(vectors[x][0], occ[i])):
            raise NotEnabledError(f"occurrence {occ[i]} cannot pay {t!r}'s demand for {x}")
    return _apply(configuration, vectors, fresh, [x for x, _ in mode.assignment], [occ[i] for i in idxs])


def successors(net: NuNet, configuration: Multiset) -> Iterator[tuple[tuple[str, NuMode], Multiset]]:
    """((transition, mode), next configuration) pairs, lazily: transitions in
    declaration order, each one's modes in effect order as _picks yields them.
    Each next configuration is built from the tuples the mode picked, so a
    search builds no mode list, no occurrence list and checks no mode again,
    and fires nothing past its answer."""
    for t in net.transitions:
        _, _, fresh, vectors, names, _ = net._table(t)
        for mode, picks in _picks(net, configuration, t):
            yield (t, mode), _apply(configuration, vectors, fresh, names, picks)


def step_bound(net: NuNet, target: Multiset) -> Callable[[Multiset], float]:
    """A function from a configuration to a lower bound on the steps it needs
    to reach one that covers target, by embedding and so by inclusion too: 0
    or more, or math.inf.

    One step changes each tuple its mode picks by the picking variable's
    out - in vector and leaves every other tuple alone, so on place q a name
    gains at most g_q, the largest such entry (or 0), per step; a fresh
    variable mints a name with its out vector.  A target tuple is covered by
    one name, which is a tuple sigma now or is minted later, so from sigma it
    needs max over q of ceil((target_q - sigma_q)+ / g_q) steps (infinite
    where a deficit has no gain), and from a minted vector one step more.
    The bound is the largest over the target's non-zero tuples of the
    cheapest of these costs.  It is 0 on every covering configuration and
    falls by at most 1 per step, so a bounded search may drop a configuration
    found at depth d once d plus the bound exceeds its depth.

    Per target tuple the function keeps a witness: the configuration tuple
    (or a minted name) that gave its cost last time, and that cost.  A target
    tuple whose witness is gone is scanned first; one whose witness is still
    present is scanned only if that witness costs more than the bound found
    so far, and a scan stops at the first tuple that costs no more.  So the
    function keeps one witness per target tuple, not one cost per pair, and
    a search whose states share most tuples scans few of them."""
    gains = [0] * len(net.places)
    minted = []
    for t in net.transitions:
        _, xs, fresh, vectors, _, _ = net._table(t)
        for x in xs:
            gains = [max(g, o - d) for g, d, o in zip(gains, *vectors[x])]
        minted += [vectors[v][1] for v in fresh]

    def cost(goal: tuple, tup: tuple) -> float:
        steps = 0
        for want, have, gain in zip(goal, tup, gains):
            if want > have:
                if not gain:
                    return math.inf
                steps = max(steps, -(-(want - have) // gain))
        return steps

    def scan(entry: list, configuration: Multiset, steps: float) -> float:
        """steps, or the cheapest cost of entry's target tuple where that is higher.  A scan stops
        at the first tuple that costs no more than steps, and files the cheapest lineage found
        (a tuple, or None for a minted name) with its cost in entry."""
        goal, best, witness = entry[0], entry[1], None
        for tup, _ in configuration.counts():
            here = cost(goal, tup)
            if here < best:
                best, witness = here, tup
                if best <= steps:
                    break
        entry[2:] = witness, best
        return max(steps, best)

    # per non-zero target tuple: [it, its cost from a minted name, its last witness, the witness's cost]
    goals = None

    def bound(configuration: Multiset) -> float:
        nonlocal goals
        if goals is None:  # built on the first call: a search whose initial configuration covers makes none
            goals = []
            for goal, _ in target.counts():
                if any(goal):
                    born = min((1 + cost(goal, tup) for tup in minted), default=math.inf)
                    goals.append([goal, born, None, born])
        steps = 0
        kept = []  # the goals whose witness is still here: scanned last, once the bound is highest
        for entry in goals:
            if entry[2] is None or entry[2] in configuration:
                kept.append(entry)
            else:
                steps = scan(entry, configuration, steps)
        for entry in kept:
            if entry[3] > steps:  # else its witness shows that it cannot raise the bound
                steps = scan(entry, configuration, steps)
        return steps

    return bound


def _dominators(new: list[tuple], goals: list[tuple]) -> dict[tuple, list[int]]:
    """Per tuple of new, the ascending indices g of the goals it dominates.

    Bit g of a mask stands for goals[g].  Per coordinate, one sweep up the column sorted in ascending
    order ANDs the mask of each tuple of new with the goals at most as large there.  The tuples of new
    go 1024 at a time, which bounds the masks alive at once."""
    out: dict[tuple, list[int]] = {}
    for arity in {len(tup) for tup in new}:
        same = [g for g, tup in enumerate(goals) if len(tup) == arity]
        start = -1 if arity else sum(1 << g for g in same)  # a coordinate sweep sets only this arity
        columns = [sorted(same, key=lambda g: goals[g][k]) for k in range(arity)]
        tuples = [tup for tup in new if len(tup) == arity]
        for at in range(0, len(tuples), 1024):
            chunk = tuples[at:at + 1024]
            masks = dict.fromkeys(chunk, start)
            for k, column in enumerate(columns):
                chunk.sort(key=itemgetter(k))
                buf = bytearray(len(goals) // 8 + 1)
                passed, size = 0, len(column)
                for tup in chunk:
                    while passed < size and goals[column[passed]][k] <= tup[k]:
                        g = column[passed]
                        buf[g >> 3] |= 1 << (g & 7)
                        passed += 1
                    masks[tup] &= int.from_bytes(buf, "little")
            for tup, mask in masks.items():
                low = max((mask & -mask).bit_length() - 1, 0)  # the lowest set bit
                bits = bin(mask >> low)[:1:-1]  # bit low + g at position g
                g = bits.find("1")
                out[tup] = ones = []
                while g >= 0:
                    ones.append(low + g)
                    g = bits.find("1", g + 1)
    return out


def covers(configuration: Multiset, target: Multiset, exact: bool = False, *, memo: dict | None = None) -> bool:
    """Domination of a target configuration.

    Default reading: an injective assignment of target tuples to
    configuration tuples with componentwise <=.  With exact=True plain
    multiset inclusion is required instead.

    The matching's edges come from a dominance index over distinct tuples
    (_dominators).  Each distinct configuration tuple is a right vertex
    holding up to its count, and each distinct target tuple a group of copies.

    A search may pass memo, a dict it keeps for its own life.  Per target it
    holds the target's distinct tuples and, per configuration tuple seen so
    far, the indices of those it dominates, so _dominators runs only on the
    tuples new to the search.  A call without memo uses a throwaway one.
    exact=True never reads the memo."""
    if exact:
        return target.leq(configuration)
    if len(target) > len(configuration):
        return False
    if memo is None:
        memo = {}
    # Keyed by the target's identity: a lone call on a large target would pay for
    # its hash and gain nothing.  The entry holds the target, so the id stays its own.
    entry = memo.get(id(target))
    if entry is None:
        entry = memo[id(target)] = (target, list(target.counts()), {})
    _, goals, known = entry  # known: configuration tuple -> ascending indices into goals
    rows = list(configuration.counts())
    new = [tup for tup, _ in rows if tup not in known]
    if new:
        known.update(_dominators(new, [tup for tup, _ in goals]))
    fits = [[] for _ in goals]
    for i, (tup, _) in enumerate(rows):
        for g in known[tup]:
            fits[g].append(i)
    if not all(fits):  # most configurations of a search fail here, before any matching
        return False
    return has_perfect_left_matching([(fit, count) for fit, (_, count) in zip(fits, goals)], [count for _, count in rows])
