"""Lower bounds on the steps a state needs to reach one that covers a target.

A cover search drops each state whose bound exceeds the steps it has left
(coverability._search), so a bound must be 0 on every covering state and
fall by at most 1 per step.  Both net kinds build theirs from the two rules
here: the deficit rule, _steps, and the lineage term, _lineage_term.  Both
read holdings: a holding h holds h[c] at coordinate c, as a name's tuple
does per place and a token's inner marking per inner place.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Iterable, Mapping


def _steps(demands: Iterable[tuple[Hashable, int, int]], have) -> float:
    """The steps to raise holding have to want at each (c, want, gain) of demands,
    one step adding at most gain at c: the largest ceil((want - have[c]) / gain)
    over the coordinates in deficit, 0 if none, math.inf if one has no gain."""
    steps = 0
    for c, want, gain in demands:
        short = want - have[c]
        if short > 0:
            if not gain:
                return math.inf
            if short > steps * gain:  # ceil(short / gain) > steps
                steps = -(-short // gain)
    return steps


def _lineage_term(goals: Iterable[tuple[Hashable, list, Iterable]]) -> Callable[[Mapping, float], float]:
    """The lineage term of a step bound: a function term(held, steps=0) that
    returns the larger of steps and the term at a state, where held[key]
    lists once each holding of the state's elements that may grow into a
    goal under key.  Each call builds a fresh one, for one search's witnesses.

    A goal, a target tuple or a target token's inner marking, is covered by
    one element that holds it, a name or a token: an element of the state
    now, or one born later.  goals gives each goal as (key, demands,
    births): its demands for _steps, each a coordinate with what the goal
    wants there and the most one step adds to one element there, and its
    births, each the most a step makes a new element hold.  An element
    needs _steps(demands, holding) steps to grow into the goal, and a birth
    one step more, so elements with equal holdings cost the same.  The term
    is the largest over the goals of the cheapest of these lineages.  It is
    0 on a covering state and falls by at most 1 per step, as one step
    moves each element at most one step along its lineage and each new
    element is a birth.

    Per goal the term keeps a witness: the holding that gave the goal's cost
    last time (None for a birth), and that cost.  A goal whose witness is no
    longer held (a token that only changes place still holds it) is scanned
    first; one whose witness is still held is scanned only if that witness
    costs more than the bound found so far, and a scan stops at the first
    holding that costs no more.  So the term keeps one witness per goal, not
    one cost per (goal, holding) pair, and a search whose states share most
    holdings scans few of them.  goals is read on the first call, so a
    search whose initial state covers reads none."""
    entries = None  # per goal: [key, demands, its cost from a birth, its last witness, the witness's cost]

    def scan(entry: list, holdings: Iterable, steps: float) -> float:
        """steps, or the cost of entry's goal where higher; files the cheapest lineage found and its cost."""
        demands, best, witness = entry[1], entry[2], None
        for holding in holdings:
            here = _steps(demands, holding)
            if here < best:
                best, witness = here, holding
                if best <= steps:
                    break
        entry[3:] = witness, best
        return max(steps, best)

    def term(held: Mapping, steps: float = 0) -> float:
        nonlocal entries
        if entries is None:
            entries = []
            for key, demands, births in goals:
                born = min((1 + _steps(demands, birth) for birth in births), default=math.inf)
                entries.append([key, demands, born, None, born])
        for entry in entries:  # the goals whose witness is gone
            if entry[3] is not None and entry[3] not in held[entry[0]]:
                steps = scan(entry, held[entry[0]], steps)
        for entry in entries:  # then, once the bound is highest, those whose witness could raise it
            if entry[4] > steps:
                steps = scan(entry, held[entry[0]], steps)
        return steps

    return term
