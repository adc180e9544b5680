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

The empty object net `black` is implicit and cannot be given places or
transitions; places typed black carry plain tokens (`ctl { }`).  Idle
transitions are never written; they are re-synthesized when the system is
built.  Object net ids hold no ':', which separates a place from its type.
"""

from __future__ import annotations

import re
from functools import partial
from itertools import groupby
from operator import itemgetter
from typing import Callable, Generator, Iterable, Iterator, Mapping, TypeVar

from .multisets import EMPTY, Multiset
from .nunet import NuNet, config, validate
from .objectsystem import Event, NestedToken, ObjectSystem
from .petri import PetriNet, _IdError
from .reduction import Reduction

T = TypeVar("T")
_Line = tuple[int, list[str]]  # a line's number and its tokens


class ParseError(Exception):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class InvalidNetError(ValueError):
    """A structurally parseable net that fails validation."""

    def __init__(self, issues: list[str]):
        super().__init__("; ".join(issues))
        self.issues = issues


def _tokenize(text: str) -> Generator[_Line, None, int]:
    """(line number, tokens) of each line that holds a token, read one line at a time; returns
    the number of the last of them (1 if there is none), the line that end of file is reported at."""
    last = 1
    for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1):
        body = raw.split("#", 1)[0]
        for ch in "[]{}":
            body = body.replace(ch, f" {ch} ")
        tokens = body.split()
        if tokens:
            last = lineno
            yield lineno, tokens
    return last


def _at(lineno: int, build: Callable[..., T], *args, declared_at: Mapping | None = None) -> T:
    """build(*args), turning a ValueError it raises into a ParseError; the one place that does.

    The line is the one `declared_at` records for the declaration an _IdError names, keyed by
    (kind, id) or else by id, and lineno for every other error."""
    try:
        return build(*args)
    except ValueError as exc:
        if isinstance(exc, _IdError) and declared_at:
            lineno = declared_at.get((exc.kind, exc.id), declared_at.get(exc.id, lineno))
        raise ParseError(lineno, str(exc)) from None


_integer = re.compile(r"[+-]?\d+(?:_\d+)*").fullmatch  # what int() reads in base 10, without surrounding space


def _int(lineno: int, tok: str, what: str) -> int:
    """tok as an integer; the one reader of integers, which checks the syntax and int()'s digit limit itself."""
    if len(tok) > 4300 or not (tok.isdecimal() or _integer(tok)):  # plain digits skip the pattern, which costs parse_nunet 20 %
        raise ParseError(lineno, f"expected {what}, got {tok!r}")
    return int(tok)


def _fit(items: list[tuple[int, T]], build: Callable[[list[T]], Multiset]) -> Multiset:
    """The sum of build over the items of each line, reporting its errors at that line."""
    out = EMPTY
    for lineno, group in groupby(items, key=itemgetter(0)):
        out = out + _at(lineno, build, [item for _, item in group])
    return out


def _next(lines: Iterator[_Line]) -> _Line:
    """The next of _tokenize's lines; past the last, an 'unexpected end of file' error at its line."""
    try:
        return next(lines)
    except StopIteration as eof:  # the first next() past the end carries _tokenize's return value
        raise ParseError(eof.value, "unexpected end of file") from None


def _body(lines: Iterator[_Line]) -> Iterator[_Line]:
    """The lines of a block up to its 'end', read from lines, which nested blocks share."""
    while (line := _next(lines))[1][0] != "end":
        yield line


def _parse_vectors(lines: Iterable[_Line]) -> list[tuple[int, tuple[int, ...]]]:
    """The [..] vectors on (line number, tokens) lines, each with the line of its '['; one may span lines."""
    vectors = []
    it = ((lineno, tok) for lineno, tokens in lines for tok in tokens)
    for start, tok in it:
        if tok != "[":
            raise ParseError(start, f"expected '[', got {tok!r}")
        entries = []
        for lineno, tok in it:
            if tok == "]":
                break
            entries.append(_int(lineno, tok, "an integer"))
        else:
            raise ParseError(start, "unterminated '['")
        vectors.append((start, tuple(entries)))
    return vectors


def _parse_trans(lines: Iterator[_Line], lineno: int, tokens: list[str], arc: Callable[[int, list[str], str], None]) -> str:
    """A 'trans <id> ... end' block, returning its id; arc(lineno, tokens, t) reads each in/out line."""
    if len(tokens) != 2:
        raise ParseError(lineno, "expected 'trans <id>'")
    t = tokens[1]
    for lineno, tokens in _body(lines):
        if tokens[0] not in ("in", "out"):
            raise ParseError(lineno, f"expected 'in', 'out' or 'end', got {tokens[0]!r}")
        arc(lineno, tokens, t)
    return t


# -- name nets -----------------------------------------------------------------


def parse_nunet(text: str) -> tuple[NuNet, Multiset | None, Multiset | None]:
    """Parse a name net file; returns (net, init, target).

    Syntax errors raise ParseError and validation failures InvalidNetError.
    """
    lines = _tokenize(text)
    lineno, tokens = _next(lines)
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
    given: list[tuple[str, list[tuple[int, tuple[int, ...]]]]] = []  # init/target lines, fitted once the places are known
    declared_at: dict[str, int] = {}  # the line that last declared each id
    declares = {"places": places, "vars": standard, "fresh": fresh}
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

    for lineno, tokens in lines:
        head = tokens[0]
        if head in declares:
            declares[head].extend(tokens[1:])
            declared_at.update(dict.fromkeys(tokens[1:], lineno))
        elif head == "trans":
            transitions.append(_parse_trans(lines, lineno, tokens, parse_arc))
            declared_at[transitions[-1]] = lineno
        elif head in ("init", "target"):
            given.append((head, _parse_vectors([(lineno, tokens[1:])])))
        else:
            raise ParseError(lineno, f"unexpected keyword {head!r}")

    net = _at(header_line, NuNet, name, places, transitions, standard, fresh, inflow, outflow, declared_at=declared_at)
    configs = {head: _fit(vectors, partial(config, net)) for head, vectors in given}  # the last line wins
    issues = validate(net)
    if issues:
        raise InvalidNetError(issues)
    return net, configs.get("init"), configs.get("target")


def format_config(configuration: Multiset) -> str:
    return " ".join("[" + " ".join(str(k) for k in vec) + "]" for vec in configuration.elements())


def parse_config(text: str, net: NuNet) -> Multiset:
    """Inline configuration: zero or more [..] vectors on any lines; errors carry their line."""
    return _fit(_parse_vectors(_tokenize(text)), partial(config, net))


def print_nunet(net: NuNet, init: Multiset | None = None, target: Multiset | None = None) -> str:
    out = [f"nupn {net.name}"]
    out.append("places " + " ".join(net.places))
    out += [f"{head} " + " ".join(ids) for head, ids in (("vars", net.standard_vars), ("fresh", net.fresh_vars)) if ids]
    for t in net.transitions:
        out.append(f"trans {t}")
        for label, flow in (("in", net.inflow[t]), ("out", net.outflow[t])):
            for p in net.places:
                if p in flow:
                    out.append(f"  {label} {p} : " + " ".join(flow[p].elements()))
        out.append("end")
    return _print_states(out, format_config, init, target)


def _print_states(out: list[str], format_state: Callable, init: Multiset | None, target: Multiset | None) -> str:
    """The printed lines out, then the init and target lines of the states given."""
    for head, state in (("init", init), ("target", target)):
        if state is not None:
            out.append(f"{head} {format_state(state)}".rstrip())
    return "\n".join(out) + "\n"


# -- object systems --------------------------------------------------------------


def _parse_weighted_arc(lineno: int, tokens: list[str], places: list[str]) -> tuple[str, int]:
    if len(tokens) == 2:
        p, k = tokens[1], 1
    elif len(tokens) == 4 and tokens[2] == ":":
        p = tokens[1]
        k = _int(lineno, tokens[3], "an integer weight")
        if k <= 0:
            raise ParseError(lineno, f"arc weight must be positive, got {k}")
    else:
        raise ParseError(lineno, f"expected '{tokens[0]} <place>' or '{tokens[0]} <place> : <weight>'")
    if p not in places:
        raise ParseError(lineno, f"unknown place {p!r}")
    return p, k


def _parse_net_body(
    lines: Iterator[_Line], header_line: int, name: str, typed: bool, declared_at: dict
) -> tuple[PetriNet, dict[str, str]]:
    """The body of an 'objectnet' or 'system' block, recording in declared_at where each id was declared."""
    places: list[str] = []
    typing: dict[str, str] = {}
    transitions: list[str] = []
    pre: dict[str, Multiset] = {}
    post: dict[str, Multiset] = {}

    def parse_arc(lineno: int, tokens: list[str], t: str) -> None:
        p, k = _parse_weighted_arc(lineno, tokens, places)
        store = pre if tokens[0] == "in" else post
        store[t] = store.get(t, EMPTY) + Multiset([p]) * k

    for lineno, tokens in _body(lines):
        head = tokens[0]
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
                declared_at[p] = lineno
        elif head == "trans":
            transitions.append(_parse_trans(lines, lineno, tokens, parse_arc))
            declared_at[transitions[-1]] = lineno
        else:
            raise ParseError(lineno, f"expected 'places', 'trans' or 'end', got {head!r}")
    return _at(header_line, PetriNet, name, places, transitions, pre, post, declared_at=declared_at), typing


def _parse_marking(lines: Iterable[_Line]) -> list[tuple[int, NestedToken]]:
    """The 'place { p:k ... }' tokens on (line number, tokens) lines, each with the line of its place."""
    toks = []
    it = ((lineno, tok) for lineno, tokens in lines for tok in tokens)
    for start, place in it:
        if place in ("{", "}"):
            raise ParseError(start, f"expected a place name, got {place!r}")
        if next(it, (0, None))[1] != "{":
            raise ParseError(start, f"expected '{{' after place {place!r}")
        counts: dict[str, int] = {}
        for lineno, entry in it:
            if entry == "}":
                break
            if ":" not in entry:
                raise ParseError(lineno, f"expected 'place:count', got {entry!r}")
            p, k = entry.rsplit(":", 1)
            counts[p] = counts.get(p, 0) + _int(lineno, k, "an integer count")
        else:
            raise ParseError(start, "unterminated '{'")
        toks.append((start, NestedToken(place, _at(start, Multiset.from_counts, counts))))
    return toks


def parse_object_system(text: str) -> tuple[ObjectSystem, Multiset | None, Multiset | None]:
    lines = _tokenize(text)
    lineno, tokens = _next(lines)
    if tokens[0] != "eos":
        raise ParseError(lineno, f"expected 'eos' header, got {tokens[0]!r}")

    object_nets: list[PetriNet] = []
    system_net: PetriNet | None = None
    typing: dict[str, str] = {}
    events: list[Event] = []
    given: list[tuple[str, list[tuple[int, NestedToken]]]] = []  # init/target lines, fitted once the system is built
    declared_at: dict = {}  # the line that last declared each place and transition id, and each (kind, id) of the rest
    system_line = lineno

    for lineno, tokens in lines:
        head = tokens[0]
        if head == "objectnet":
            if len(tokens) != 2:
                raise ParseError(lineno, "expected 'objectnet <id>'")
            declared_at[("object net", tokens[1])] = lineno
            net, _ = _parse_net_body(lines, lineno, tokens[1], typed=False, declared_at=declared_at)
            object_nets.append(net)
        elif head == "system":
            if system_net is not None:
                raise ParseError(lineno, "duplicate 'system' section")
            if len(tokens) > 2:
                raise ParseError(lineno, "expected 'system [name]'")
            system_line = lineno
            name = tokens[1] if len(tokens) == 2 else "system"
            system_net, typing = _parse_net_body(lines, lineno, name, typed=True, declared_at=declared_at)
        elif head == "events":
            for lineno2, tokens2 in _body(lines):
                if tokens2[0] != "event" or len(tokens2) < 4 or tokens2[2] != "=":
                    raise ParseError(lineno2, "expected 'event <name> = <transition> [with <net>: <t>... ; ...]'")
                ename, etrans = tokens2[1], tokens2[3]
                theta: dict[str, Multiset] = {}
                rest = tokens2[4:]
                if rest:
                    if rest[0] != "with":
                        raise ParseError(lineno2, f"expected 'with', got {rest[0]!r}")
                    clauses = [list(g) for is_sep, g in groupby(rest[1:], ";".__eq__) if not is_sep]
                    if len(clauses) != rest.count(";") + 1:  # groupby skips the empty clauses
                        raise ParseError(lineno2, "expected '<net>: <transition>...' in event clause")
                    for clause in clauses:
                        # The net id and the separating colon may arrive as one token ("data:") or two
                        # ("data :").  Net ids hold no ':', so a transition may be ':' ("data: : t").
                        if len(clause) >= 2 and clause[0].endswith(":") and len(clause[0]) > 1:
                            net_id, body = clause[0][:-1], clause[1:]
                        elif len(clause) >= 3 and clause[1] == ":":
                            net_id, body = clause[0], clause[2:]
                        else:
                            raise ParseError(lineno2, "expected '<net>: <transition>...' in event clause")
                        theta[net_id] = theta.get(net_id, EMPTY) + Multiset(body)
                events.append(Event.make(ename, etrans, theta))
                declared_at[("event", ename)] = lineno2
        elif head in ("init", "target"):
            given.append((head, _parse_marking([(lineno, tokens[1:])])))
        else:
            raise ParseError(lineno, f"unexpected keyword {head!r}")

    if system_net is None:
        raise ParseError(system_line, "missing 'system' section")
    system = _at(system_line, ObjectSystem, system_net, object_nets, typing, events, declared_at=declared_at)
    markings = {head: _fit(toks, lambda line: system.validate_marking(Multiset(line)))
                for head, toks in given}  # the last line wins
    return system, markings.get("init"), markings.get("target")


def format_marking(marking: Multiset) -> str:
    return " ".join(str(tok) for tok in marking.elements())


def parse_marking(text: str, system: ObjectSystem) -> Multiset:
    """Inline marking: zero or more 'place { p:k ... }' tokens on any lines; errors carry their line."""
    return _fit(_parse_marking(_tokenize(text)), lambda line: system.validate_marking(Multiset(line)))


def _print_block(out: list[str], header: str, places: Iterable[str] | None, net: PetriNet,
                 transitions: Iterable[str]) -> None:
    """An 'objectnet' or 'system' block: its places line unless places is None, then each transition."""
    out.append(header)
    if places is not None:
        out.append("  places " + " ".join(places))
    for t in transitions:
        out.append(f"  trans {t}")
        for label, ms in (("in", net.pre[t]), ("out", net.post[t])):
            for p, k in ms.items():
                out.append(f"    {label} {p}" + (f" : {k}" if k > 1 else ""))
        out.append("  end")
    out.append("end")


def print_object_system(
    system: ObjectSystem, init: Multiset | None = None, target: Multiset | None = None
) -> str:
    out = ["eos"]
    for net in system.declared_nets:
        _print_block(out, f"objectnet {net.name}", net.places or None, net, net.transitions)
    sysnet = system.system
    _print_block(out, f"system {sysnet.name}", (f"{p}:{system.typing[p]}" for p in sysnet.places), sysnet,
                 system.declared_transitions)
    if system.events:
        out.append("events")
        for e in system.events:
            line = f"  event {e.name} = {e.transition}"
            clauses = [f"{net_id}: " + " ".join(ms.elements()) for net_id, ms in e.theta]
            if clauses:
                line += " with " + " ; ".join(clauses)
            out.append(line)
        out.append("end")
    return _print_states(out, format_marking, init, target)


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
    """'nupn' or 'eos' from the first keyword of a file, reading no further than its line."""
    first = next(_tokenize(text), None)
    if first is None:
        raise ParseError(1, "empty file")
    lineno, (head, *_) = first
    if head not in ("nupn", "eos"):
        raise ParseError(lineno, f"expected 'nupn' or 'eos' header, got {head!r}")
    return head
