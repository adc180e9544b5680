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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

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
        # order, its standard ones, its fresh ones, and variable -> (in vector, out vector).
        self._tables: dict[str, tuple] = {}
        self._zeros = ((0,) * len(self.places),) * 2  # the vectors of a variable not on t
        for t in self.transitions:
            arcs = (self.inflow[t], self.outflow[t])
            used = dict.fromkeys(v for flow in arcs for ms in flow.values() for v in ms.support())
            xs, fresh = [tuple(v for v in group if v in used) for group in (self.standard_vars, self.fresh_vars)]
            vectors = {v: tuple(tuple(flow.get(p, EMPTY).count(v) for p in self.places) for flow in arcs) for v in used}
            self._tables[t] = (xs + fresh, xs, fresh, vectors)

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
            if not isinstance(k, int):
                raise ValueError(f"non-integer entry in {list(tup)}")
            if k < 0:
                raise ValueError(f"negative entry in {list(tup)}")
        out.append(tup)
    return Multiset(out)


@dataclass(frozen=True)
class NuMode:
    """Chosen tuple occurrence per standard variable.

    Indices refer to the canonical enumeration of the configuration's
    occurrences (Multiset.elements()).
    """

    assignment: tuple[tuple[str, int], ...]

    @classmethod
    def make(cls, pairs: Iterable[tuple[str, int]]) -> "NuMode":
        return cls(tuple(sorted(pairs)))


def enabled_modes(net: NuNet, configuration: Multiset, t: str) -> list[NuMode]:
    """Enabled modes, one per effect (the tuple each variable picks), sorted by effect.

    The k-th variable, in declaration order, to pick a tuple takes its k-th
    occurrence if there is one: the effect's first assignment in permutation order.
    """
    occ = configuration.elements()
    first: dict[tuple, int] = {}
    for i, tup in enumerate(occ):
        first.setdefault(tup, i)
    _, xs, _, vectors = net._table(t)
    choices = [[tup for tup in first if all(d <= m for d, m in zip(vectors[x][0], tup))] for x in xs]
    modes = []
    for picks in itertools.product(*choices):
        idxs = [first[tup] + picks[:k].count(tup) for k, tup in enumerate(picks)]
        if all(i < len(occ) and occ[i] == tup for i, tup in zip(idxs, picks)):
            modes.append(NuMode.make(zip(xs, idxs)))
    return sorted(modes, key=lambda mode: [(v, occ[i]) for v, i in mode.assignment])


def fire(net: NuNet, configuration: Multiset, t: str, mode: NuMode) -> Multiset:
    """One step: update the picked tuples, mint the fresh ones."""
    occ = configuration.elements()
    _, xs, fresh, vectors = net._table(t)
    if sorted(v for v, _ in mode.assignment) != sorted(xs):
        raise NotEnabledError(f"mode variables {mode.assignment} do not match {t!r} (expects {xs})")
    idxs = [i for _, i in mode.assignment]
    if len(set(idxs)) != len(idxs) or any(i < 0 or i >= len(occ) for i in idxs):
        raise NotEnabledError(f"mode {mode.assignment} does not pick distinct occurrences of {configuration}")
    updated = []
    for x, i in mode.assignment:
        (din, dout), tup = vectors[x], occ[i]
        if any(d > m for d, m in zip(din, tup)):
            raise NotEnabledError(f"occurrence {tup} cannot pay {t!r}'s demand for {x}")
        updated.append((tuple(m - d + o for m, d, o in zip(tup, din, dout)), 1))
    return configuration.replace([(occ[i], 1) for i in idxs], updated + [(vectors[v][1], 1) for v in fresh])


def _dominators(distinct: list[tuple], wanted: list[tuple]) -> dict[tuple, list[int]]:
    """Per wanted tuple, the ascending indices j of the distinct tuples that dominate it.

    Bit j of a mask stands for distinct[j].  Per coordinate, one sweep down
    the column sorted in descending order ANDs the mask of every wanted
    tuple in a chunk of 1024 with the tuples at least as large there, and
    the chunks bound how many masks are alive at once.
    """
    out: dict[tuple, list[int]] = {}
    for arity in {len(tup) for tup in wanted}:
        same = [j for j, tup in enumerate(distinct) if len(tup) == arity]
        start = -1 if arity else sum(1 << j for j in same)  # a coordinate sweep sets only this arity
        columns = [sorted(same, key=lambda j: distinct[j][k], reverse=True) for k in range(arity)]
        goals = [tup for tup in wanted if len(tup) == arity]
        for at in range(0, len(goals), 1024):
            chunk = goals[at:at + 1024]
            masks = dict.fromkeys(chunk, start)
            for k, column in enumerate(columns):
                chunk.sort(key=itemgetter(k), reverse=True)
                buf = bytearray(len(distinct) // 8 + 1)
                passed, size = 0, len(column)
                for tup in chunk:
                    while passed < size and distinct[column[passed]][k] >= tup[k]:
                        j = column[passed]
                        buf[j >> 3] |= 1 << (j & 7)
                        passed += 1
                    masks[tup] &= int.from_bytes(buf, "little")
            for tup, mask in masks.items():
                low = max((mask & -mask).bit_length() - 1, 0)  # the lowest set bit
                bits = bin(mask >> low)[:1:-1]  # bit low + j at position j
                j = bits.find("1")
                out[tup] = ones = []
                while j >= 0:
                    ones.append(low + j)
                    j = bits.find("1", j + 1)
    return out


def covers(configuration: Multiset, target: Multiset, exact: bool = False) -> bool:
    """Domination of a target configuration.

    Default reading: an injective assignment of target tuples to
    configuration tuples with componentwise <=.  With exact=True plain
    multiset inclusion is required instead.

    The matching's edges come from a dominance index over distinct tuples
    (_dominators).  Each distinct configuration tuple is a right vertex
    holding up to its count, and each distinct target tuple a group of copies.
    """
    if exact:
        return target.leq(configuration)
    if len(target) > len(configuration):
        return False
    rows, goals = list(configuration.counts()), list(target.counts())
    edges = _dominators([tup for tup, _ in rows], [tup for tup, _ in goals])
    groups = [(edges[tup], count) for tup, count in goals]
    return has_perfect_left_matching(groups, [count for _, count in rows])
