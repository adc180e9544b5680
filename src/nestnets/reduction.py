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

A run takes 2·|vars(t)| + 1 steps: a pick and a fire per variable (the
fresh variable's pick takes no object and releases the run tokens), then
done.  A transition without variables compiles to done alone, which
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


def _generated_id(t: str, kind: str, v: str | None = None) -> str:
    """The one id rule of the compiler: t::kind, or t::kind::v for a variable v of t."""
    return f"{t}::{kind}::{v}" if v else f"{t}::{kind}"


def obj_id(t: str, v: str) -> str:
    return _generated_id(t, "obj", v)


def object_net(net: NuNet) -> PetriNet:
    """The per-name object net: one transition per (transition, variable)."""
    pre: dict[str, Multiset] = {}  # also the order of the transitions
    post: dict[str, Multiset] = {}
    for t in net.transitions:
        for v in net.vars_of(t):
            tid = obj_id(t, v)
            pre[tid] = _vector_marking(net, net.in_vector(t, v))
            post[tid] = _vector_marking(net, net.out_vector(t, v))
    return PetriNet(DATA_ID, net.places, pre, pre, post)


def _vector_marking(net: NuNet, vector: tuple[int, ...]) -> Multiset:
    return Multiset.from_counts({p: k for p, k in zip(net.places, vector) if k})


def run_length(net: NuNet, t: str) -> int:
    """Steps in a complete gadget run for t: a pick and a fire per variable, then done."""
    return 2 * len(net.vars_of(t)) + 1


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

    # The dicts are the only record of order: typing holds the system places and
    # pre the transitions in the order they are made, table every id in that order.
    table: dict[str, NameEntry] = {
        SIM: NameEntry("sim"),
        SELECT_TRAN: NameEntry("selectTran"),
    }
    typing: dict[str, str] = {SIM: DATA_ID, SELECT_TRAN: BLACK_ID}
    pre: dict[str, Multiset] = {}
    post: dict[str, Multiset] = {}
    events: list[Event] = []

    def place(t: str, kind: str, v: str | None = None, net_id: str = BLACK_ID) -> str:
        pid = _generated_id(t, kind, v)
        typing[pid] = net_id
        table[pid] = NameEntry(f"{kind}-place", t, v)
        return pid

    def transition(t: str, kind: str, v: str | None, taken: list[str], given: list[str]) -> None:
        tid = _generated_id(t, kind, v)
        pre[tid], post[tid] = Multiset(taken), Multiset(given)
        table[tid] = NameEntry(kind, t, v)
        # a fire step moves its object along the variable's object transition
        events.append(Event.make(tid, tid, {DATA_ID: Multiset([obj_id(t, v)])} if kind == "fire" else None))

    for t in net.transitions:
        chain = net.vars_of(t)  # the standard variables in declaration order, then the fresh one
        # A gadget's places come before its transitions, and each kind in chain order.
        entries = [SELECT_TRAN] + [place(t, "select", v) for v in chain[1:]]
        selected = {x: place(t, "selected", x, DATA_ID) for x in net.standard_vars_of(t)}
        runs = [place(t, "run", v) for v in chain]
        # without variables, done recycles the control token
        report = place(t, "report") if chain else SELECT_TRAN
        # each pick hands on to the next entry place, except the last, which releases the runs
        for v, entry, handoff in zip(chain, entries, [[e] for e in entries[1:]] + [runs]):
            if v in selected:  # a standard variable also moves an object from sim to selected
                transition(t, "pick", v, [entry, SIM], [selected[v]] + handoff)
            else:
                transition(t, "pick", v, [entry], handoff)
        for v, run in zip(chain, runs):
            # a standard variable also moves its selected token back to sim
            transition(t, "fire", v, [selected[v], run] if v in selected else [run], [SIM, report])
        transition(t, "done", None, [report] * max(len(chain), 1), [SELECT_TRAN])

    for t in net.transitions:
        for v in net.vars_of(t):
            table[obj_id(t, v)] = NameEntry("object-transition", t, v)

    system_net = PetriNet("compiled", typing, pre, pre, post)
    system = ObjectSystem(system_net, [object_net(net)], typing, events)
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
