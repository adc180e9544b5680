"""Graphviz DOT export.

Places are circles (triangles when they hold plain black tokens),
transitions are boxes, object nets sit in their own clusters, and nested
tokens attach to their place as dashed sub-clusters.  Output is fully
deterministic: nodes follow declaration order, tokens canonical order.
"""

from __future__ import annotations

from .multisets import Multiset
from .nunet import NuNet
from .objectsystem import ObjectSystem, inner_text
from .petri import BLACK_ID, PetriNet


def _q(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_nunet(net: NuNet) -> str:
    out = ["digraph nunet {", "  rankdir=LR;"]
    for p in net.places:
        out.append(f"  {_q(p)} [shape=circle];")
    for t in net.transitions:
        out.append(f"  {_q(t)} [shape=box];")
    for t in net.transitions:
        for p in net.places:
            for flow, tail, head in ((net.inflow[t], p, t), (net.outflow[t], t, p)):
                if p in flow:
                    out.append(f"  {_q(tail)} -> {_q(head)} [label={_q(', '.join(flow[p].elements()))}];")
    out.append("}")
    return "\n".join(out) + "\n"


def _emit_arcs(out: list[str], net: PetriNet, t: str, indent: str) -> None:
    """Arcs of one transition, labelled with their weight when above 1."""
    arcs = [(p, t, k) for p, k in net.pre[t].items()] + [(t, p, k) for p, k in net.post[t].items()]
    for tail, head, k in arcs:
        label = f" [label={_q(str(k))}]" if k > 1 else ""
        out.append(f"{indent}{_q(tail)} -> {_q(head)}{label};")


def dot_object_system(system: ObjectSystem, marking: Multiset | None = None) -> str:
    out = ["digraph system {", "  rankdir=LR;"]
    for net in (net for net in system.declared_nets if net.places or net.transitions):
        out.append(f"  subgraph {_q('cluster_' + net.name)} {{")
        out.append(f"    label={_q(net.name)};")
        for p in net.places:
            out.append(f"    {_q(p)} [shape=circle];")
        for t in net.transitions:
            out.append(f"    {_q(t)} [shape=box];")
        for t in net.transitions:
            _emit_arcs(out, net, t, "    ")
        out.append("  }")

    sysnet = system.system
    events_on = {}
    for e in system.events:
        events_on.setdefault(e.transition, []).append(e)
    for p in sysnet.places:
        shape = "triangle" if system.typing[p] == BLACK_ID else "circle"
        out.append(f"  {_q(p)} [shape={shape}];")
    for t in system.declared_transitions:
        label_lines = [t]
        for e in events_on.get(t, []):
            clauses = "; ".join(f"{nid}: " + " ".join(ms.elements()) for nid, ms in e.theta)
            if clauses:
                label_lines.append(f"{e.name} ⟨{clauses}⟩")
            elif e.name != t:
                label_lines.append(e.name)
        out.append(f"  {_q(t)} [shape=box, label={_q(chr(10).join(label_lines))}];")
    for t in system.declared_transitions:
        _emit_arcs(out, sysnet, t, "  ")

    if marking is not None:
        for i, tok in enumerate(marking.elements()):
            node = f"token{i}"
            out.append(f"  subgraph {_q('cluster_' + node)} {{")
            out.append("    style=dashed;")
            out.append('    label="";')
            out.append(f"    {_q(node)} [shape=plaintext, label={_q(inner_text(tok.inner))}];")
            out.append("  }")
            out.append(f"  {_q(node)} -> {_q(tok.place)} [style=dashed, arrowhead=none];")
    out.append("}")
    return "\n".join(out) + "\n"
