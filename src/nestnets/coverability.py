"""Bounded forward exploration, coverability queries, and the two
correctness harnesses for the compiler.

One BFS core serves both net kinds.  It takes the net's successor
function, which iterates (action, next state) pairs lazily in a fixed
enumeration order, and for a cover query a one-argument test that closes
over the target.  Each public *_nunet and *_object_system search checks its
states, then builds those two functions from public names of nunet and
objectsystem when it starts, together with the memos that live as long as
the search; each replay fires the witness with its module's checked step.

All searches are breadth first with deduplication and two explicit
resource bounds: a depth budget and a state cap.  A cover query tests each
state when it is first found and stops at the first that covers, so a
covering state among the first max_states found is an answer.  Recording
one more state raises SearchLimitReached; running out of depth is an
ordinary NotCovered answer carrying the depth actually explored.  A cover
query also drops, uncounted, each state that its net's step bound
(nunet.step_bound or ObjectSystem.step_bound) shows cannot cover within the
depth it has left.  States are found in a fixed enumeration order (a layer
in the order its states were first reached, actions in declaration order,
modes in canonical order) and never sorted, so repeated runs produce
byte-identical results.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .multisets import Multiset
from .nunet import NuNet, NuMode, config as nu_config, covers as nu_covers, fire as nu_fire
from .nunet import step_bound as nu_step_bound, successors as nu_successors
from .objectsystem import EventMode, ObjectSystem, covers as os_covers
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


class ExploreResult(NamedTuple):
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


class CoverAnswer(NamedTuple):
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
    successors: Callable[[Multiset], Iterator[tuple[Any, Multiset]]],
    initial: Multiset,
    depth: int,
    max_states: int,
    covers: Callable[[Multiset], bool] | None = None,
    edges: list | None = None,
    bound: Callable[[Multiset], float] | None = None,
):
    """Shared BFS core: explores up to `depth` layers and appends every edge
    to `edges` when given.  With a cover test, it tests each state right
    after recording it (the initial one first), after the cap check, and
    stops at the first that covers: the shallowest first found in the fixed
    order.  Returns whether the space closed, the depth reached, the
    covering state (or None), and parents, which maps each state found,
    layer by layer in the order found, to (parent, action) and the initial
    state to None.

    bound, when given, maps a state to a lower bound on the steps it needs
    to reach a covering state, one that falls by at most 1 per step.  A state
    first found at depth g is dropped when g plus its bound exceeds depth,
    before the cap check, so it is neither recorded nor counted, and meeting
    it again costs one lookup.  Only kept states with bound 0 are tested.
    Every kept state's first parent is kept, so each layer is the unpruned
    one without its dropped states, in the same order, and the answer is
    the unpruned search's.  A search that drops a state has not closed the
    space: it ends at the full depth when it runs out of states."""
    parents: dict[Multiset, tuple[Multiset, Any] | None] = {initial: None}
    if covers is not None and covers(initial):
        return False, 0, initial, parents
    if bound is not None and bound(initial) > depth:
        return False, depth, None, parents
    dropped: set[Multiset] = set()
    frontier = [initial]
    d = 0
    while d < depth:
        layer: list[Multiset] = []
        for s in frontier:
            for action, nxt in successors(s):
                if edges is not None:
                    edges.append((s, action, nxt))
                if nxt not in parents:
                    steps = 0
                    if bound is not None:
                        if nxt in dropped:
                            continue
                        steps = bound(nxt)
                        if d + 1 + steps > depth:
                            dropped.add(nxt)
                            continue
                    if len(parents) >= max_states:
                        raise SearchLimitReached("max_states", max_states)
                    parents[nxt] = (s, action)
                    if not steps and covers is not None and covers(nxt):
                        return False, d + 1, nxt, parents
                    layer.append(nxt)
        if not layer:
            return (False, depth, None, parents) if dropped else (True, d, None, parents)
        d += 1
        frontier = layer
    return False, d, None, parents


def _explore(successors: Callable, initial: Multiset, depth: int, max_states: int) -> ExploreResult:
    edges: list[tuple[Multiset, Any, Multiset]] = []
    exhausted, d, _, parents = _search(successors, initial, depth, max_states, edges=edges)
    return ExploreResult(list(parents), edges, exhausted, d)


def _cover(
    successors: Callable, covers: Callable, initial: Multiset, depth: int, max_states: int, bound: Callable | None = None
) -> CoverAnswer:
    exhausted, d, hit, parents = _search(successors, initial, depth, max_states, covers, bound=bound)
    if hit is None:
        return CoverAnswer(False, None, None, d, exhausted)
    witness = []
    state = hit
    while parents[state] is not None:
        state, action = parents[state]
        witness.append(action)
    return CoverAnswer(True, witness[::-1], hit, d)


# -- public searches -----------------------------------------------------------


def explore_nunet(
    net: NuNet, initial: Multiset, depth: int, max_states: int = DEFAULT_MAX_STATES
) -> ExploreResult:
    nu_config(net, initial.support())  # the vectors fit the net
    return _explore(partial(nu_successors, net), initial, depth, max_states)


def cover_nunet(
    net: NuNet,
    initial: Multiset,
    target: Multiset,
    depth: int,
    max_states: int = DEFAULT_MAX_STATES,
    exact: bool = False,
) -> CoverAnswer:
    """Covering is embedding, or inclusion when exact.  Either way the search
    drops the configurations that nunet.step_bound shows cannot embed the
    target in the steps they have left, as inclusion implies embedding."""
    nu_config(net, initial.support())
    nu_config(net, target.support())
    memo: dict = {}  # nu_covers' domination memo
    covers = lambda configuration: nu_covers(configuration, target, exact=exact, memo=memo)
    return _cover(partial(nu_successors, net), covers, initial, depth, max_states, nu_step_bound(net, target))


def replay_nunet(net: NuNet, initial: Multiset, witness: Iterable[tuple[str, NuMode]]) -> Multiset:
    """Fire a witness step by step; raises if any step is not enabled."""
    state = initial
    for action in witness:
        state = nu_fire(net, state, *action)
    return state


def explore_object_system(
    system: ObjectSystem, initial: Multiset, depth: int, max_states: int = DEFAULT_MAX_STATES
) -> ExploreResult:
    system.validate_marking(initial)
    modes: dict = {}  # ObjectSystem.successors' mode memo and lam memo
    lams: dict = {}
    return _explore(lambda marking: system.successors(marking, modes, lams), initial, depth, max_states)


def cover_object_system(
    system: ObjectSystem,
    initial: Multiset,
    target: Multiset,
    depth: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> CoverAnswer:
    system.validate_marking(initial)
    system.validate_marking(target)
    modes: dict = {}
    lams: dict = {}
    successors = lambda marking: system.successors(marking, modes, lams)
    covers = lambda marking: os_covers(marking, target)
    return _cover(successors, covers, initial, depth, max_states, system.step_bound(target))


def replay_object_system(system: ObjectSystem, initial: Multiset, witness: Iterable[EventMode]) -> Multiset:
    state = initial
    for mode in witness:
        state = system.step(state, mode)
    return state


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
    if decode_config(net, start) is None:
        raise ValueError("start marking is not an encoding of a configuration")
    modes: dict = {}
    lams: dict = {}
    runs: list[tuple[list[EventMode], Multiset]] = []
    budget = [max_expansions]

    def walk(marking: Multiset, prefix: list[EventMode]) -> None:
        if len(prefix) >= max_len:
            return
        for mode, nxt in reduction.system.successors(marking, modes, lams):
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
    if decode_config(net, start) is None:
        raise ValueError("start marking is not an encoding of a configuration")
    modes: dict = {}
    lams: dict = {}
    ends: set[Multiset] = set()
    runs = expanded = 0
    layer = {start: 1}
    for _ in range(max_len):
        following: dict[Multiset, int] = {}
        for marking, prefixes in layer.items():
            expanded += 1
            if expanded > max_expansions:
                raise SearchLimitReached("max_expansions", max_expansions)
            for _, nxt in reduction.system.successors(marking, modes, lams):
                if CONTROL not in nxt:
                    following[nxt] = following.get(nxt, 0) + prefixes
                elif nxt in ends or decode_config(net, nxt) is not None:
                    ends.add(nxt)
                    runs += prefixes
        layer = following
    return frozenset(ends), runs


class SimulationReport(NamedTuple):
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
    s1 = {nxt for _, nxt in nu_successors(net, configuration)}
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


class TransferReport(NamedTuple):
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
