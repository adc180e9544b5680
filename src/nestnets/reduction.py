"""Compiling a name net into an equivalent conservative object system.

Every name in a configuration becomes one object token on the place
``sim``: an inner marking of the object net ``data``, which has the same
places as the source net and one transition ``t::obj::x`` per source
transition t and variable x (the restriction of t's arcs to x).

A single control token cycles through ``selectTran``: each source
transition t becomes a gadget that (a) picks one object out of ``sim`` per
standard variable of t, in declaration order, (b) releases one run token
per variable, (c) fires ``t::obj::x`` on each picked object and mints the
fresh object, each such step sending its object back to ``sim`` and one
token to ``t::report``, and (d) collects all report tokens back into the
control token.  Between (a) and (d) the control place stays empty, so
complete gadget runs are exactly the one-step firings of the source net.

Transitions without variables degenerate to a single no-op transition that
recycles the control token.  Picked-object updates in step (c) commute, so
runs of the same gadget differ only by that interleaving.
"""

from __future__ import annotations

from typing import NamedTuple

from .multisets import EMPTY, Multiset
from .nunet import NuNet, config, validate
from .objectsystem import IDLE_PREFIX, Event, NestedToken, ObjectSystem
from .petri import BLACK_ID, PetriNet

SIM = "sim"
SELECT_TRAN = "selectTran"
DATA_ID = "data"

# Transition t generates the ids t::..., so t = "idle" would generate ids in the idle namespace.
_RESERVED = {SIM, SELECT_TRAN, DATA_ID, BLACK_ID, IDLE_PREFIX.removesuffix("::")}

# The control token: selectTran is black-typed, so this is the only token it can hold.
CONTROL = NestedToken(SELECT_TRAN, EMPTY)


class NameEntry(NamedTuple):
    """Provenance of one generated id."""

    role: str
    source_transition: str | None = None
    source_variable: str | None = None


class Reduction(NamedTuple):
    """A compiled net: the object system plus the id provenance table."""

    system: ObjectSystem
    net: NuNet
    name_table: dict[str, NameEntry]


def obj_id(t: str, v: str) -> str:
    return f"{t}::obj::{v}"


def object_net(net: NuNet) -> PetriNet:
    """The per-name object net: one transition per (transition, variable)."""
    transitions: list[str] = []
    pre: dict[str, Multiset] = {}
    post: dict[str, Multiset] = {}
    for t in net.transitions:
        for v in net.vars_of(t):
            tid = obj_id(t, v)
            transitions.append(tid)
            pre[tid] = _vector_marking(net, net.in_vector(t, v))
            post[tid] = _vector_marking(net, net.out_vector(t, v))
    return PetriNet(DATA_ID, net.places, transitions, pre, post)


def _vector_marking(net: NuNet, vector: tuple[int, ...]) -> Multiset:
    return Multiset.from_counts({p: k for p, k in zip(net.places, vector) if k})


def run_length(net: NuNet, t: str) -> int:
    """Steps in a complete gadget run for t (closed form)."""
    n = len(net.standard_vars_of(t))
    return 2 * n + 3 if net.fresh_vars_of(t) else 2 * n + 1


def max_run_length(net: NuNet) -> int:
    return max((run_length(net, t) for t in net.transitions), default=1)


def reduce_nunet(net: NuNet) -> Reduction:
    """Compile a validated name net into a conservative object system."""
    issues = validate(net)
    if issues:
        raise ValueError(f"net {net.name}: cannot compile an invalid net: " + "; ".join(issues))
    for i in net.places + net.transitions + net.standard_vars + net.fresh_vars:
        if "::" in i or i in _RESERVED:
            raise ValueError(f"net {net.name}: id {i!r} collides with the generated namespace")

    data = object_net(net)
    table: dict[str, NameEntry] = {
        SIM: NameEntry("sim"),
        SELECT_TRAN: NameEntry("selectTran"),
    }
    places: list[str] = [SIM, SELECT_TRAN]
    typing: dict[str, str] = {SIM: DATA_ID, SELECT_TRAN: BLACK_ID}
    transitions: list[str] = []
    pre: dict[str, Multiset] = {}
    post: dict[str, Multiset] = {}
    events: list[Event] = []

    def add_place(pid: str, net_id: str, entry: NameEntry) -> None:
        places.append(pid)
        typing[pid] = net_id
        table[pid] = entry

    def add_transition(tid: str, p: Multiset, q: Multiset, entry: NameEntry, theta_var: str | None) -> None:
        transitions.append(tid)
        pre[tid], post[tid] = p, q
        table[tid] = entry
        theta = {DATA_ID: Multiset([obj_id(entry.source_transition, theta_var)])} if theta_var else {}
        events.append(Event.make(tid, tid, theta))

    for t in net.transitions:
        xs = net.standard_vars_of(t)
        fresh = net.fresh_vars_of(t)
        chain = xs + fresh

        if not chain:
            add_transition(
                f"{t}::done", Multiset([SELECT_TRAN]), Multiset([SELECT_TRAN]),
                NameEntry("done", t), None,
            )
            continue

        run = {v: f"{t}::run::{v}" for v in chain}
        selected = {x: f"{t}::selected::{x}" for x in xs}
        report = f"{t}::report"
        entry_place = {chain[0]: SELECT_TRAN}
        for v in chain[1:]:
            entry_place[v] = f"{t}::select::{v}"

        for v in chain[1:]:
            add_place(entry_place[v], BLACK_ID, NameEntry("select-place", t, v))
        for x in xs:
            add_place(selected[x], DATA_ID, NameEntry("selected-place", t, x))
        for v in chain:
            add_place(run[v], BLACK_ID, NameEntry("run-place", t, v))
        add_place(report, BLACK_ID, NameEntry("report-place", t))

        all_runs = Multiset(run[v] for v in chain)
        for i, v in enumerate(chain):
            tid = f"{t}::pick::{v}"
            if v in fresh:
                add_transition(
                    tid, Multiset([entry_place[v]]), all_runs,
                    NameEntry("pick", t, v), None,
                )
            else:
                taken = Multiset([entry_place[v], SIM])
                moved = Multiset([selected[v]])
                if i + 1 < len(chain):
                    produced = moved + Multiset([entry_place[chain[i + 1]]])
                else:
                    produced = moved + all_runs  # no fresh variable: the last pick releases the runs
                add_transition(tid, taken, produced, NameEntry("pick", t, v), None)

        for v in chain:
            add_transition(
                f"{t}::fire::{v}",
                # a standard variable also moves its selected token back to sim
                Multiset([run[v]] if v in fresh else [selected[v], run[v]]),
                Multiset([SIM, report]),
                NameEntry("fire", t, v),
                v,
            )

        add_transition(
            f"{t}::done",
            Multiset([report]) * len(chain),
            Multiset([SELECT_TRAN]),
            NameEntry("done", t),
            None,
        )

    for t in net.transitions:
        for v in net.vars_of(t):
            table[obj_id(t, v)] = NameEntry("object-transition", t, v)

    system_net = PetriNet("compiled", places, transitions, pre, post)
    system = ObjectSystem(system_net, [data], typing, events)
    return Reduction(system, net, table)


def encode_config(net: NuNet, configuration: Multiset) -> Multiset:
    """One object token per name, plus the control token."""
    config(net, configuration.support())  # raises unless every vector fits the net
    tokens = [CONTROL]
    for vec, c in configuration.items():
        tokens.extend([NestedToken(SIM, _vector_marking(net, vec))] * c)
    return Multiset(tokens)


def decode_config(net: NuNet, marking: Multiset) -> Multiset | None:
    """Inverse of encode_config; None when the marking is not an encoding."""
    place_index = {p: i for i, p in enumerate(net.places)}
    vectors = []
    control = 0
    for tok, c in marking.counts():
        if tok == CONTROL:
            control += c
        elif tok.place == SIM:
            vec = [0] * len(net.places)
            for p, k in tok.inner.counts():
                if p not in place_index:
                    return None
                vec[place_index[p]] = k
            vectors.extend([tuple(vec)] * c)
        else:
            return None
    if control != 1:
        return None
    return Multiset(vectors)
