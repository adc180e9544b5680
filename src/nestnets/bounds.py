"""Lower bounds on the steps a state needs to reach one that covers a target.

A cover search drops each state whose bound exceeds the steps it has left
(coverability._search), so a bound must be 0 on every covering state and
fall by at most 1 per step.  Both net kinds build theirs from the two rules
here: the deficit rule, _steps, and the lineage term, _lineage_term.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Iterable


def _steps(demands: Iterable[tuple[Hashable, int, int]], have: Callable[[Hashable], int]) -> float:
    """The steps to raise have(c) to want at each (c, want, gain) of demands,
    where one step adds at most gain at c: the largest ceil((want - have(c)) /
    gain) over the coordinates in deficit, 0 where there is none, and
    math.inf where a deficit has no gain."""
    steps = 0
    for c, want, gain in demands:
        short = want - have(c)
        if short > 0:
            if not gain:
                return math.inf
            if short > steps * gain:  # ceil(short / gain) > steps
                steps = -(-short // gain)
    return steps


def _lineage_term(
    goals: Iterable[tuple[object, list, Iterable[Hashable]]],
    grows: Callable[[object, object], Iterable[Hashable]],
    holds: Callable[[Hashable], Callable[[Hashable], int]],
) -> Callable[[object, float], float]:
    """The lineage term of a step bound: a function term(state, steps=0) that
    returns the larger of steps and the term at state.  Each call builds a
    fresh one, which keeps its witnesses for one search.

    A goal, a target tuple or a target token's inner marking, is covered by
    one element that holds it, a name or a token: an element of the state
    now, or one born later.  goals gives each goal as (key, demands,
    births): its demands for _steps, each a coordinate with what the goal
    wants there and the most one step adds to one element there, and its
    births, each the most a step makes a new element with.  grows(key,
    state) gives the elements of state that may grow into the goal, and
    holds(element) what an element holds, as a function of the coordinate.
    An element needs _steps(demands, holds(element)) steps to grow into the
    goal, and a birth one step more.  The term is the largest over the goals
    of the cheapest of these lineages.  It is 0 on a covering state and
    falls by at most 1 per step, as one step moves each element at most one
    step along its lineage and each new element is a birth.

    Per goal the term keeps a witness: the element that gave the goal's cost
    last time (None for a birth), and that cost.  A goal whose witness is
    gone is scanned first; one whose witness is still present is scanned
    only if that witness costs more than the bound found so far, and a scan
    stops at the first element that costs no more.  So the term keeps one
    witness per goal, not one cost per (goal, element) pair, and a search
    whose states share most elements scans few of them.  goals is read on
    the first call, so a search whose initial state covers reads none."""
    entries = None  # per goal: [(key, demands), its cost from a birth, its last witness, the witness's cost]

    def scan(entry: list, state: object, steps: float) -> float:
        """steps, or the cheapest cost of entry's goal where that is higher, filing the cheapest
        lineage found and its cost in entry."""
        (key, demands), best, witness = entry[0], entry[1], None
        for element in grows(key, state):
            here = _steps(demands, holds(element))
            if here < best:
                best, witness = here, element
                if best <= steps:
                    break
        entry[2:] = witness, best
        return max(steps, best)

    def term(state: object, steps: float = 0) -> float:
        nonlocal entries
        if entries is None:
            entries = []
            for key, demands, births in goals:
                born = min((1 + _steps(demands, holds(birth)) for birth in births), default=math.inf)
                entries.append([(key, demands), born, None, born])
        for entry in entries:  # the goals whose witness is gone
            if entry[2] is not None and entry[2] not in state:
                steps = scan(entry, state, steps)
        for entry in entries:  # then, once the bound is highest, those whose witness could raise it
            if entry[3] > steps:
                steps = scan(entry, state, steps)
        return steps

    return term
