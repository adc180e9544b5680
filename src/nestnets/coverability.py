"""Bounded forward exploration, coverability queries, and the two
correctness harnesses for the compiler.

One BFS core, explore and cover serve both net kinds through a per-kind
adapter: validate(state), successors(state), covers(state, target) and
step(state, action).  Replaying a witness folds step over it.  The public
*_nunet and *_object_system functions only pick the adapter.

All searches are breadth first with deduplication and two explicit
resource bounds: a depth budget and a state cap.  Exceeding the state cap
raises SearchLimitReached; running out of depth is an ordinary NotCovered
answer carrying the depth actually explored.  States are found in a fixed
enumeration order (a layer in the order its states were first reached,
actions in declaration order, modes sorted) and never sorted, so repeated
runs produce byte-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from types import SimpleNamespace
from typing import Any, Iterable

from .multisets import Multiset
from .nunet import NuNet, NuMode, config as nu_config, covers as nu_covers, enabled_modes as nu_enabled_modes, fire as nu_fire
from .objectsystem import EventMode, ObjectSystem, _by_place, covers as os_covers, fire as os_fire
from .petri import NotEnabledError
from .reduction import (
    CONTROL,
    Reduction,
    decode_config,
    encode_config,
    max_run_length,
    reduce_nunet,
)

DEFAULT_MAX_STATES = 10**6


class SearchLimitReached(Exception):
    """A resource cap was hit before the search finished."""

    def __init__(self, limit: str, value: int):
        super().__init__(f"search exceeded {limit} = {value}")
        self.limit = limit
        self.value = value


@dataclass
class ExploreResult:
    """States and edges discovered within the depth budget.

    states are listed layer by layer, each layer in the order its states
    were first found in the fixed enumeration order; edges originate from
    expanded states only (those strictly below the depth budget).
    frontier_exhausted reports whether the search closed before running
    out of depth.
    """

    states: list[Multiset]
    edges: list[tuple[Multiset, Any, Multiset]]
    frontier_exhausted: bool
    depth_reached: int


@dataclass
class CoverAnswer:
    """Outcome of a bounded coverability query.

    covered = True comes with the covering state and a shortest witness,
    the first found in a fixed enumeration order; covered = False reports
    how deep the search actually looked and whether it closed the state
    space.
    """

    covered: bool
    witness: list | None
    state: Multiset | None
    depth: int
    exhausted: bool = False


def _search(
    kind: SimpleNamespace,
    initial: Multiset,
    depth: int,
    max_states: int,
    target: Multiset | None = None,
    edges: list | None = None,
):
    """Shared BFS core: explores up to `depth` layers, optionally stopping
    at the shallowest state covering `target` first found in the fixed
    enumeration order (see the module docstring), and appending every edge
    to `edges` when given.  Returns the states, whether the space closed,
    the depth reached, the covering state (or None), and parents, which
    maps each state found to (parent, action) and the initial state to
    None."""
    parents: dict[Multiset, tuple[Multiset, Any] | None] = {initial: None}
    states: list[Multiset] = [initial]
    frontier = [initial]
    d = 0
    while True:
        if target is not None:
            for s in frontier:
                if kind.covers(s, target):
                    return states, False, d, s, parents
        if d >= depth:
            return states, False, d, None, parents
        layer: list[Multiset] = []
        for s in frontier:
            for action, nxt in kind.successors(s):
                if edges is not None:
                    edges.append((s, action, nxt))
                if nxt not in parents:
                    if len(parents) >= max_states:
                        raise SearchLimitReached("max_states", max_states)
                    parents[nxt] = (s, action)
                    layer.append(nxt)
        if not layer:
            return states, True, d, None, parents
        states.extend(layer)
        d += 1
        frontier = layer


def _explore(kind: SimpleNamespace, initial: Multiset, depth: int, max_states: int) -> ExploreResult:
    kind.validate(initial)
    edges: list[tuple[Multiset, Any, Multiset]] = []
    states, exhausted, d, _, _ = _search(kind, initial, depth, max_states, edges=edges)
    return ExploreResult(states, edges, exhausted, d)


def _cover(kind: SimpleNamespace, initial: Multiset, target: Multiset, depth: int, max_states: int) -> CoverAnswer:
    kind.validate(initial)
    kind.validate(target)
    _, exhausted, d, hit, parents = _search(kind, initial, depth, max_states, target)
    if hit is None:
        return CoverAnswer(False, None, None, d, exhausted)
    witness = []
    state = hit
    while parents[state] is not None:
        state, action = parents[state]
        witness.append(action)
    return CoverAnswer(True, witness[::-1], hit, d)


# -- net kinds and their public searches ---------------------------------------
#
# A net kind is what the search core sees of a net: validate(state) raises if
# a state does not fit the net; successors(state) lists (action, next state)
# pairs in a fixed enumeration order (declaration order, modes sorted);
# covers(state, target) says whether a state dominates a target; step(state,
# action) fires one action, raising if it is not enabled.  The factories below
# look up nu_* and os_* in this module's globals at each call, so wrappers put
# there (benches/layertrace.py) see every call.
#
# An object-system adapter memoises mode lists for its own life (one search):
# an event's modes depend only on the tokens on its input places, with their
# inner markings and counts, so they are keyed on the event's index and those
# tokens, grouped as enabled_modes groups them, in the marking's insertion
# order (equal tokens met in another order miss, which stays exact), and a hit
# fires the same modes that enabled_modes would return.  On a miss,
# enabled_modes looks up each choice of consumed tokens in a second memo of the
# adapter's, keyed by (event, consumed multiset), because different input
# tokens often share those choices.  Neither memo is kept on the ObjectSystem,
# so a long-lived system does not grow between queries.


def _name_net_kind(net: NuNet, exact: bool = False) -> SimpleNamespace:
    """Configurations, (transition, NuMode) actions, embedding order (inclusion when exact)."""
    return SimpleNamespace(
        validate=lambda configuration: nu_config(net, configuration.support()),  # the vectors fit the net
        successors=lambda configuration: [
            ((t, mode), nu_fire(net, configuration, t, mode))
            for t in net.transitions
            for mode in nu_enabled_modes(net, configuration, t)
        ],
        covers=lambda configuration, target: nu_covers(configuration, target, exact=exact),
        step=lambda configuration, action: nu_fire(net, configuration, *action),
    )


def _object_system_kind(system: ObjectSystem) -> SimpleNamespace:
    """Markings, event-mode actions, token-wise domination."""

    def step(marking: Multiset, mode: EventMode) -> Multiset:
        # os_fire checks only that the consumed tokens are present.
        if not system.enabled(marking, mode):
            raise NotEnabledError(f"witness step {mode.event.name!r} is not enabled")
        return os_fire(marking, mode)

    # Modes per (event index, tokens on its input places); see above.  An
    # event whose input places are not all occupied has no mode and is skipped.
    inputs = []
    for i, e in enumerate(system.events):
        places = [p for p, _ in system._shape(e)[0]]
        inputs.append((i, e, places, frozenset(places)))
    memo: dict[tuple, list[EventMode]] = {}
    lam_memo: dict = {}

    def successors(marking: Multiset) -> list[tuple[EventMode, Multiset]]:
        by_place = _by_place(marking)
        occupied = frozenset(by_place)
        out = []
        for i, e, places, needed in inputs:
            if not needed <= occupied:
                continue
            key = (i, *(tuple(by_place[p]) for p in places))
            modes = memo.get(key)
            if modes is None:
                modes = memo[key] = system.enabled_modes(marking, e, lam_memo=lam_memo)
            out.extend((mode, os_fire(marking, mode)) for mode in modes)
        return out

    return SimpleNamespace(
        validate=system.validate_marking,
        successors=successors,
        covers=lambda marking, target: os_covers(marking, target),
        step=step,
    )


def explore_nunet(
    net: NuNet, initial: Multiset, depth: int, max_states: int = DEFAULT_MAX_STATES
) -> ExploreResult:
    return _explore(_name_net_kind(net), initial, depth, max_states)


def cover_nunet(
    net: NuNet,
    initial: Multiset,
    target: Multiset,
    depth: int,
    max_states: int = DEFAULT_MAX_STATES,
    exact: bool = False,
) -> CoverAnswer:
    return _cover(_name_net_kind(net, exact), initial, target, depth, max_states)


def replay_nunet(net: NuNet, initial: Multiset, witness: Iterable[tuple[str, NuMode]]) -> Multiset:
    """Fire a witness step by step; raises if any step is not enabled."""
    return reduce(_name_net_kind(net).step, witness, initial)


def explore_object_system(
    system: ObjectSystem, initial: Multiset, depth: int, max_states: int = DEFAULT_MAX_STATES
) -> ExploreResult:
    return _explore(_object_system_kind(system), initial, depth, max_states)


def cover_object_system(
    system: ObjectSystem,
    initial: Multiset,
    target: Multiset,
    depth: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> CoverAnswer:
    return _cover(_object_system_kind(system), initial, target, depth, max_states)


def replay_object_system(system: ObjectSystem, initial: Multiset, witness: Iterable[EventMode]) -> Multiset:
    return reduce(_object_system_kind(system).step, witness, initial)


# -- compiler harnesses --------------------------------------------------------


def minimal_runs(
    reduction: Reduction,
    start: Multiset,
    max_len: int,
    max_expansions: int = DEFAULT_MAX_STATES,
) -> list[tuple[list[EventMode], Multiset]]:
    """All runs from an encoding that keep the control place empty until
    they end on another encoding, up to max_len steps.

    Runs are mode sequences; interleavings of the commuting object-update
    steps count separately.  Paths reaching a control-marked marking that
    is not an encoding are dead ends and are dropped.
    """
    net = reduction.net
    successors = _object_system_kind(reduction.system).successors
    if decode_config(net, start) is None:
        raise ValueError("start marking is not an encoding of a configuration")
    runs: list[tuple[list[EventMode], Multiset]] = []
    budget = [max_expansions]

    def walk(marking: Multiset, prefix: list[EventMode]) -> None:
        if len(prefix) >= max_len:
            return
        for mode, nxt in successors(marking):
            budget[0] -= 1
            if budget[0] < 0:
                raise SearchLimitReached("max_expansions", max_expansions)
            if CONTROL in nxt:
                if decode_config(net, nxt) is not None:
                    runs.append((prefix + [mode], nxt))
            else:
                walk(nxt, prefix + [mode])

    walk(start, [])
    return runs


def _gadget_ends(
    reduction: Reduction,
    start: Multiset,
    max_len: int,
    max_expansions: int = DEFAULT_MAX_STATES,
) -> tuple[frozenset[Multiset], int]:
    """The endpoints of minimal_runs(reduction, start, max_len) and the
    number of its runs, without listing them.

    The walk goes forward one step at a time.  A layer maps each
    control-free marking reached in that many steps to the number of run
    prefixes that reach it, so a marking is expanded once per step count
    however many interleavings lead to it, and a run ending on an encoding
    adds its prefix count.  max_expansions bounds those expansions.
    """
    net = reduction.net
    successors = _object_system_kind(reduction.system).successors
    if decode_config(net, start) is None:
        raise ValueError("start marking is not an encoding of a configuration")
    ends: set[Multiset] = set()
    runs = expanded = 0
    layer = {start: 1}
    for _ in range(max_len):
        following: dict[Multiset, int] = {}
        for marking, prefixes in layer.items():
            expanded += 1
            if expanded > max_expansions:
                raise SearchLimitReached("max_expansions", max_expansions)
            for _, nxt in successors(marking):
                if CONTROL not in nxt:
                    following[nxt] = following.get(nxt, 0) + prefixes
                elif nxt in ends or decode_config(net, nxt) is not None:
                    ends.add(nxt)
                    runs += prefixes
        layer = following
    return frozenset(ends), runs


@dataclass
class SimulationReport:
    """One-step equivalence check between a net and its compilation.

    s1: successors of the configuration in the source net.
    s2: decoded endpoints of the minimal runs of the compiled system.
    run_count: how many minimal runs there are, interleavings counted
    separately (counted over distinct markings, not listed).
    """

    configuration: Multiset
    s1: list[Multiset]
    s2: list[Multiset]
    run_count: int
    max_len: int
    passed: bool


def check_simulation(
    net: NuNet, configuration: Multiset, *, reduction: Reduction | None = None
) -> SimulationReport:
    """The configuration's successors against the decoded endpoints of the
    compiled runs, which the net bounds by its longest gadget run."""
    red = reduction if reduction is not None else reduce_nunet(net)
    max_len = max_run_length(net)
    s1 = {nxt for _, nxt in _name_net_kind(net).successors(configuration)}
    ends, run_count = _gadget_ends(red, encode_config(net, configuration), max_len)
    s2 = {decode_config(net, end) for end in ends}
    return SimulationReport(
        configuration,
        sorted(s1, key=Multiset.sort_key),
        sorted(s2, key=Multiset.sort_key),
        run_count,
        max_len,
        s1 == s2,
    )


@dataclass
class TransferReport:
    """Coverability agreement between a net and its compilation."""

    source: CoverAnswer
    compiled: CoverAnswer
    depth: int
    budget: int
    run_bound: int

    @property
    def agree(self) -> bool:
        return self.source.covered == self.compiled.covered


def check_transfer(
    net: NuNet,
    initial: Multiset,
    target: Multiset,
    depth: int,
    max_states: int = DEFAULT_MAX_STATES,
    reduction: Reduction | None = None,
) -> TransferReport:
    """Compare a bounded cover query with the same query on the compiled
    system, giving the compiled side one full gadget run per source step."""
    red = reduction if reduction is not None else reduce_nunet(net)
    bound = max_run_length(net)
    source = cover_nunet(net, initial, target, depth, max_states)
    compiled = cover_object_system(
        red.system,
        encode_config(net, initial),
        encode_config(net, target),
        depth * bound,
        max_states,
    )
    return TransferReport(source, compiled, depth, depth * bound, bound)
