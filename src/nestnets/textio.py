"""Line-oriented text formats for both net kinds, plus canonical printers.

The printers emit one canonical text per object and the parsers accept
exactly the documented grammar, so parse(print(x)) == x and
print(parse(s)) is the canonical form of s.  '#' starts a comment,
blank lines are ignored, indentation is free.

Name net files:

    nupn d0
    places p q
    vars x
    fresh nu
    trans t1
      in p : x
      out p : nu
      out q : x
    end
    init [1 0]
    target [0 1]

Object system files:

    eos
    objectnet counter
      places a
      trans inc
        out a
      end
    end
    system main
      places sim:counter ctl:black
      trans step
        in sim
        in ctl
        out sim
        out ctl
      end
    end
    events
      event step = step with counter: inc
    end
    init sim { a:1 } ctl { }

The empty object net `black` is implicit and cannot be redefined; places
typed black carry plain tokens (`ctl { }`).  Idle transitions are never
written; they are re-synthesized when the system is built.
"""

from __future__ import annotations

from typing import Callable

from .multisets import EMPTY, Multiset
from .nunet import NuNet, config, validate
from .objectsystem import IDLE_PREFIX, Event, NestedToken, ObjectSystem
from .petri import BLACK_ID, PetriNet
from .reduction import Reduction


class ParseError(Exception):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class InvalidNetError(ValueError):
    """A structurally parseable net that fails validation."""

    def __init__(self, issues: list[str]):
        super().__init__("; ".join(issues))
        self.issues = issues


def _tokenize(text: str) -> list[tuple[int, list[str]]]:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        for ch in "[]{}":
            body = body.replace(ch, f" {ch} ")
        tokens = body.split()
        if tokens:
            lines.append((lineno, tokens))
    return lines


class _Cursor:
    def __init__(self, text: str):
        self.lines = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[int, list[str]] | None:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def next(self) -> tuple[int, list[str]]:
        line = self.peek()
        if line is None:
            raise ParseError(self.lines[-1][0] if self.lines else 1, "unexpected end of file")
        self.pos += 1
        return line


def _parse_vectors(lineno: int, tokens: list[str]) -> list[tuple[int, ...]]:
    vectors = []
    i = 0
    while i < len(tokens):
        if tokens[i] != "[":
            raise ParseError(lineno, f"expected '[', got {tokens[i]!r}")
        j = i + 1
        entries = []
        while j < len(tokens) and tokens[j] != "]":
            try:
                entries.append(int(tokens[j]))
            except ValueError:
                raise ParseError(lineno, f"expected an integer, got {tokens[j]!r}") from None
            j += 1
        if j == len(tokens):
            raise ParseError(lineno, "unterminated '['")
        vectors.append(tuple(entries))
        i = j + 1
    return vectors


def _config_at(lineno: int, net: NuNet, vectors: list[tuple[int, ...]]) -> Multiset:
    """The configuration of vectors read at lineno, or why they do not fit the net."""
    try:
        return config(net, vectors)
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None


def _parse_trans(
    cur: _Cursor, lineno: int, tokens: list[str], seen: list[str], arc: Callable[[int, list[str], str], None]
) -> str:
    """A 'trans <id> ... end' block: its id joins seen, arc(lineno, tokens, t) reads each in/out line."""
    if len(tokens) != 2:
        raise ParseError(lineno, "expected 'trans <id>'")
    t = tokens[1]
    if t in seen:
        raise ParseError(lineno, f"duplicate transition {t!r}")
    seen.append(t)
    while True:
        lineno, tokens = cur.next()
        if tokens[0] == "end":
            return t
        if tokens[0] not in ("in", "out"):
            raise ParseError(lineno, f"expected 'in', 'out' or 'end', got {tokens[0]!r}")
        arc(lineno, tokens, t)


# -- name nets -----------------------------------------------------------------


def parse_nunet(text: str) -> tuple[NuNet, Multiset | None, Multiset | None]:
    """Parse a name net file; returns (net, init, target).

    Syntax errors raise ParseError and validation failures InvalidNetError.
    """
    cur = _Cursor(text)
    lineno, tokens = cur.next()
    if tokens[0] != "nupn":
        raise ParseError(lineno, f"expected 'nupn' header, got {tokens[0]!r}")
    if len(tokens) > 2:
        raise ParseError(lineno, "expected 'nupn [name]'")
    name = tokens[1] if len(tokens) == 2 else "net"

    places: list[str] = []
    standard: list[str] = []
    fresh: list[str] = []
    transitions: list[str] = []
    inflow: dict[str, dict[str, Multiset]] = {}
    outflow: dict[str, dict[str, Multiset]] = {}
    given: list[tuple[str, int, list[tuple[int, ...]]]] = []  # init/target lines, fitted once the places are known
    header_line = lineno

    def parse_arc(lineno: int, tokens: list[str], t: str) -> None:
        if len(tokens) < 4 or tokens[2] != ":":
            raise ParseError(lineno, f"expected '{tokens[0]} <place> : <var>...'")
        p = tokens[1]
        if p not in places:
            raise ParseError(lineno, f"unknown place {p!r}")
        declared = set(standard) | set(fresh)
        for v in tokens[3:]:
            if v not in declared:
                raise ParseError(lineno, f"undeclared variable {v!r}")
        arcs = (inflow if tokens[0] == "in" else outflow).setdefault(t, {})
        arcs[p] = arcs.get(p, EMPTY) + Multiset(tokens[3:])

    while cur.peek() is not None:
        lineno, tokens = cur.next()
        head = tokens[0]
        if head == "places":
            places.extend(tokens[1:])
        elif head == "vars":
            standard.extend(tokens[1:])
        elif head == "fresh":
            fresh.extend(tokens[1:])
        elif head == "trans":
            _parse_trans(cur, lineno, tokens, transitions, parse_arc)
        elif head in ("init", "target"):
            given.append((head, lineno, _parse_vectors(lineno, tokens[1:])))
        else:
            raise ParseError(lineno, f"unexpected keyword {head!r}")

    try:
        net = NuNet(name, places, transitions, standard, fresh, inflow, outflow)
    except ValueError as exc:
        raise ParseError(header_line, str(exc)) from None
    configs = {head: _config_at(lineno, net, vectors) for head, lineno, vectors in given}  # the last line wins
    issues = validate(net)
    if issues:
        raise InvalidNetError(issues)
    return net, configs.get("init"), configs.get("target")


def format_config(configuration: Multiset) -> str:
    return " ".join("[" + " ".join(str(k) for k in vec) + "]" for vec in configuration.elements())


def parse_config(text: str, net: NuNet) -> Multiset:
    """Inline configuration: zero or more [..] vectors."""
    return _config_at(1, net, _parse_vectors(1, [tok for _, tokens in _tokenize(text) for tok in tokens]))


def print_nunet(net: NuNet, init: Multiset | None = None, target: Multiset | None = None) -> str:
    out = [f"nupn {net.name}"]
    out.append("places " + " ".join(net.places))
    if net.standard_vars:
        out.append("vars " + " ".join(net.standard_vars))
    if net.fresh_vars:
        out.append("fresh " + " ".join(net.fresh_vars))
    for t in net.transitions:
        out.append(f"trans {t}")
        for label, flow in (("in", net.inflow[t]), ("out", net.outflow[t])):
            for p in net.places:
                if p in flow:
                    out.append(f"  {label} {p} : " + " ".join(flow[p].elements()))
        out.append("end")
    if init is not None:
        out.append(("init " + format_config(init)).rstrip())
    if target is not None:
        out.append(("target " + format_config(target)).rstrip())
    return "\n".join(out) + "\n"


# -- object systems --------------------------------------------------------------


def _parse_weighted_arc(lineno: int, tokens: list[str], places: list[str]) -> tuple[str, int]:
    if len(tokens) == 2:
        p, k = tokens[1], 1
    elif len(tokens) == 4 and tokens[2] == ":":
        p = tokens[1]
        try:
            k = int(tokens[3])
        except ValueError:
            raise ParseError(lineno, f"expected an integer weight, got {tokens[3]!r}") from None
        if k <= 0:
            raise ParseError(lineno, f"arc weight must be positive, got {k}")
    else:
        raise ParseError(lineno, f"expected '{tokens[0]} <place>' or '{tokens[0]} <place> : <weight>'")
    if p not in places:
        raise ParseError(lineno, f"unknown place {p!r}")
    return p, k


def _parse_net_body(cur: _Cursor, name: str, typed: bool) -> tuple[PetriNet, dict[str, str]]:
    places: list[str] = []
    typing: dict[str, str] = {}
    transitions: list[str] = []
    pre: dict[str, Multiset] = {}
    post: dict[str, Multiset] = {}

    def parse_arc(lineno: int, tokens: list[str], t: str) -> None:
        p, k = _parse_weighted_arc(lineno, tokens, places)
        store = pre if tokens[0] == "in" else post
        store[t] = store.get(t, EMPTY) + Multiset([p]) * k

    while True:
        lineno, tokens = cur.next()
        head = tokens[0]
        if head == "end":
            break
        if head == "places":
            for tok in tokens[1:]:
                if typed:
                    if ":" not in tok:
                        raise ParseError(lineno, f"system place {tok!r} needs a type: name:Type")
                    p, net_id = tok.rsplit(":", 1)
                    typing[p] = net_id
                else:
                    p = tok
                places.append(p)
        elif head == "trans":
            _parse_trans(cur, lineno, tokens, transitions, parse_arc)
        else:
            raise ParseError(lineno, f"expected 'places', 'trans' or 'end', got {head!r}")
    try:
        net = PetriNet(name, places, transitions, pre, post)
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None
    return net, typing


def _parse_marking_line(lineno: int, tokens: list[str]) -> Multiset:
    toks: list[NestedToken] = []
    i = 0
    while i < len(tokens):
        place = tokens[i]
        if place in ("{", "}"):
            raise ParseError(lineno, f"expected a place name, got {place!r}")
        if i + 1 >= len(tokens) or tokens[i + 1] != "{":
            raise ParseError(lineno, f"expected '{{' after place {place!r}")
        j = i + 2
        counts: dict[str, int] = {}
        while j < len(tokens) and tokens[j] != "}":
            entry = tokens[j]
            if ":" not in entry:
                raise ParseError(lineno, f"expected 'place:count', got {entry!r}")
            p, k = entry.rsplit(":", 1)
            try:
                counts[p] = counts.get(p, 0) + int(k)
            except ValueError:
                raise ParseError(lineno, f"expected an integer count, got {k!r}") from None
            j += 1
        if j == len(tokens):
            raise ParseError(lineno, "unterminated '{'")
        try:
            inner = Multiset.from_counts(counts)
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
        toks.append(NestedToken(place, inner))
        i = j + 1
    return Multiset(toks)


def parse_object_system(text: str) -> tuple[ObjectSystem, Multiset | None, Multiset | None]:
    cur = _Cursor(text)
    lineno, tokens = cur.next()
    if tokens[0] != "eos":
        raise ParseError(lineno, f"expected 'eos' header, got {tokens[0]!r}")

    object_nets: list[PetriNet] = []
    system_net: PetriNet | None = None
    typing: dict[str, str] = {}
    events: list[Event] = []
    init: Multiset | None = None
    target: Multiset | None = None
    system_line = lineno
    marking_lines = {"init": lineno, "target": lineno}

    while cur.peek() is not None:
        lineno, tokens = cur.next()
        head = tokens[0]
        if head == "objectnet":
            if len(tokens) != 2:
                raise ParseError(lineno, "expected 'objectnet <id>'")
            if tokens[1] == BLACK_ID:
                raise ParseError(lineno, f"object net id {BLACK_ID!r} is reserved for the empty net")
            net, _ = _parse_net_body(cur, tokens[1], typed=False)
            object_nets.append(net)
        elif head == "system":
            if len(tokens) > 2:
                raise ParseError(lineno, "expected 'system [name]'")
            system_line = lineno
            system_net, typing = _parse_net_body(cur, tokens[1] if len(tokens) == 2 else "system", typed=True)
        elif head == "events":
            while True:
                lineno2, tokens2 = cur.next()
                if tokens2[0] == "end":
                    break
                if tokens2[0] != "event" or len(tokens2) < 4 or tokens2[2] != "=":
                    raise ParseError(lineno2, "expected 'event <name> = <transition> [with <net>: <t>... ; ...]'")
                ename, etrans = tokens2[1], tokens2[3]
                theta: dict[str, Multiset] = {}
                rest = tokens2[4:]
                if rest:
                    if rest[0] != "with":
                        raise ParseError(lineno2, f"expected 'with', got {rest[0]!r}")
                    for clause in _split_on(rest[1:], ";"):
                        # The net id and the separating colon may arrive as one
                        # token ("data:") or two ("data :").
                        if len(clause) >= 3 and clause[1] == ":":
                            net_id, body = clause[0], clause[2:]
                        elif len(clause) >= 2 and clause[0].endswith(":") and len(clause[0]) > 1:
                            net_id, body = clause[0][:-1], clause[1:]
                        else:
                            raise ParseError(lineno2, "expected '<net>: <transition>...' in event clause")
                        theta[net_id] = theta.get(net_id, EMPTY) + Multiset(body)
                events.append(Event.make(ename, etrans, theta))
        elif head == "init":
            marking_lines["init"] = lineno
            init = _parse_marking_line(lineno, tokens[1:])
        elif head == "target":
            marking_lines["target"] = lineno
            target = _parse_marking_line(lineno, tokens[1:])
        else:
            raise ParseError(lineno, f"unexpected keyword {head!r}")

    if system_net is None:
        raise ParseError(system_line, "missing 'system' section")
    try:
        system = ObjectSystem(system_net, object_nets, typing, events)
    except ValueError as exc:
        raise ParseError(system_line, str(exc)) from None
    for label, marking in (("init", init), ("target", target)):
        if marking is not None:
            try:
                system.validate_marking(marking)
            except ValueError as exc:
                raise ParseError(marking_lines[label], str(exc)) from None
    return system, init, target


def _split_on(tokens: list[str], sep: str) -> list[list[str]]:
    out: list[list[str]] = [[]]
    for tok in tokens:
        if tok == sep:
            out.append([])
        else:
            out[-1].append(tok)
    return [chunk for chunk in out if chunk]


def format_marking(marking: Multiset) -> str:
    return " ".join(str(tok) for tok in marking.elements())


def parse_marking(text: str, system: ObjectSystem) -> Multiset:
    """Inline marking: zero or more 'place { p:k ... }' tokens."""
    tokens = [tok for _, line in _tokenize(text) for tok in line]
    marking = _parse_marking_line(1, tokens)
    try:
        system.validate_marking(marking)
    except ValueError as exc:
        raise ParseError(1, str(exc)) from None
    return marking


def _print_arcs(out: list[str], indent: str, net: PetriNet, t: str) -> None:
    for label, ms in (("in", net.pre[t]), ("out", net.post[t])):
        for p, k in ms.items():
            out.append(f"{indent}{label} {p}" + (f" : {k}" if k > 1 else ""))


def print_object_system(
    system: ObjectSystem, init: Multiset | None = None, target: Multiset | None = None
) -> str:
    out = ["eos"]
    for net in system.object_nets.values():
        if net.name == BLACK_ID:
            continue
        out.append(f"objectnet {net.name}")
        if net.places:
            out.append("  places " + " ".join(net.places))
        for t in net.transitions:
            out.append(f"  trans {t}")
            _print_arcs(out, "    ", net, t)
            out.append("  end")
        out.append("end")
    sysnet = system.system
    out.append(f"system {sysnet.name}")
    out.append("  places " + " ".join(f"{p}:{system.typing[p]}" for p in sysnet.places))
    for t in sysnet.transitions:
        if t.startswith(IDLE_PREFIX):
            continue
        out.append(f"  trans {t}")
        _print_arcs(out, "    ", sysnet, t)
        out.append("  end")
    out.append("end")
    if system.events:
        out.append("events")
        for e in system.events:
            line = f"  event {e.name} = {e.transition}"
            clauses = [f"{net_id}: " + " ".join(ms.elements()) for net_id, ms in e.theta]
            if clauses:
                line += " with " + " ; ".join(clauses)
            out.append(line)
        out.append("end")
    if init is not None:
        out.append(("init " + format_marking(init)).rstrip())
    if target is not None:
        out.append(("target " + format_marking(target)).rstrip())
    return "\n".join(out) + "\n"


# -- reduction sidecar -------------------------------------------------------------


def name_table_tsv(reduction: Reduction) -> str:
    rows = []
    for gid, entry in reduction.name_table.items():
        rows.append("\t".join([
            gid,
            entry.role,
            entry.source_transition or "",
            entry.source_variable or "",
        ]))
    return "\n".join(rows) + "\n"


def sniff_format(text: str) -> str:
    """'nupn' or 'eos' from the first keyword of a file."""
    lines = _tokenize(text)
    if not lines:
        raise ParseError(1, "empty file")
    head = lines[0][1][0]
    if head not in ("nupn", "eos"):
        raise ParseError(lines[0][0], f"expected 'nupn' or 'eos' header, got {head!r}")
    return head
