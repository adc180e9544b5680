"""Command line front end.

Subcommands: validate, simulate, reduce, cover, cover-transfer,
check-lemma, dot.  Exit codes: 0 success/covered/pass, 1 usage or
parse/validation error, 2 not covered within the depth bound, 3 resource
cap hit, 4 simulation or transfer check failed.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
from types import SimpleNamespace

from .coverability import (
    DEFAULT_MAX_STATES,
    CoverAnswer,
    SearchLimitReached,
    check_simulation,
    check_transfer,
    cover_nunet,
    cover_object_system,
    explore_nunet,
    explore_object_system,
)
from .dot import dot_nunet, dot_object_system
from .multisets import Multiset
from .nunet import NuNet, fire as nu_fire
from .petri import NotEnabledError
from .reduction import encode_config, reduce_nunet
from .textio import (
    InvalidNetError,
    ParseError,
    format_config,
    format_marking,
    name_table_tsv,
    parse_config,
    parse_marking,
    parse_nunet,
    parse_object_system,
    print_object_system,
    sniff_format,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_COVERED = 2
EXIT_LIMIT = 3
EXIT_CHECK_FAILED = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    """An argparse type: an int no smaller than `low`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type when int() rejects the text
    return parse


_COUNT = _int_at_least(0)
_MAX_STATES = _int_at_least(1)  # a search always holds its initial state


@functools.cache  # built on the first main call, then shared: parse_args keeps no state
def _build_parser() -> _Parser:
    parser = _Parser(prog="nestnets", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a net file and report violations")
    p.add_argument("file")

    p = sub.add_parser("simulate", help="fire uniformly random enabled steps")
    p.add_argument("file")
    p.add_argument("--steps", type=_COUNT, default=10)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("reduce", help="compile a name net into an object system")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="output file (default stdout)")
    p.add_argument("--name-table", help="write the generated-id provenance table (TSV)")

    p = sub.add_parser("cover", help="bounded coverability query")
    p.add_argument("file")
    p.add_argument("--target", required=True, help="inline marking/config or a file holding one")
    p.add_argument("--init", help="override the initial marking/config from the file")
    p.add_argument("--depth", type=_COUNT, required=True)
    p.add_argument("--max-states", type=_MAX_STATES, default=DEFAULT_MAX_STATES)
    p.add_argument("--exact", action="store_true",
                   help="name nets: require exact tuple inclusion instead of embedding")

    p = sub.add_parser("cover-transfer", help="compare a cover query with its compiled form")
    p.add_argument("file")
    p.add_argument("--target", required=True)
    p.add_argument("--init", help="override the initial configuration from the file")
    p.add_argument("--depth", type=_COUNT, required=True)
    p.add_argument("--max-states", type=_MAX_STATES, default=DEFAULT_MAX_STATES)

    p = sub.add_parser("check-lemma", help="verify one-step simulation on configurations")
    p.add_argument("file")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--config", help="configuration to check (default: the file's init)")
    which.add_argument("--random", action="store_true", dest="randomized",
                       help="check randomly drawn configurations instead")
    p.add_argument("--trials", type=_COUNT, help="with --random: how many to draw (default 20)")
    p.add_argument("--seed", type=int, help="with --random: the seed of the draw (default 0)")

    p = sub.add_parser("dot", help="export a net file to Graphviz DOT")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="output file (default stdout)")

    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _inline_or_file(arg: str) -> str:
    return _read(arg) if os.path.exists(arg) else arg


def _nu_labels(net: NuNet, configuration: Multiset, actions):
    for t, mode in actions:
        occ = configuration.elements()
        binds = " ".join(f"{x}=[{' '.join(str(k) for k in occ[i])}]" for x, i in mode.assignment)
        yield t + (" " + binds if binds else ""), ""
        configuration = nu_fire(net, configuration, t, mode)


def _formats() -> dict[str, SimpleNamespace]:
    """How the subcommands read, run and print each file format: its name;
    parse(text) -> (net, init, target); parse_state(text, net) -> state;
    format_state(state) -> text; describe(net) -> the summary validate
    prints; dot(net, init) -> Graphviz text; explore(net, state) ->
    ExploreResult of every one-step successor; cover(net, initial, goal,
    args) -> CoverAnswer; and labels(net, state, actions) -> (label,
    detail) per step, where simulate prints only the label.

    Built per call, so wrappers put on this module's globals
    (benches/layertrace.py) see the calls."""
    return {
        "nupn": SimpleNamespace(
            name="nupn", parse=parse_nunet, parse_state=parse_config, format_state=format_config,
            describe=lambda net: f"{net.name} ({len(net.places)} places, {len(net.transitions)} transitions)",
            dot=lambda net, init: dot_nunet(net),
            explore=lambda net, state: explore_nunet(net, state, 1),
            cover=lambda net, initial, goal, args: cover_nunet(
                net, initial, goal, args.depth, args.max_states, exact=args.exact),
            labels=_nu_labels,
        ),
        "eos": SimpleNamespace(
            name="eos", parse=parse_object_system, parse_state=parse_marking, format_state=format_marking,
            describe=lambda system: (
                f"{system.system.name} ({len(system.system.places)} places, {len(system.events)} events, "
                f"{len(system.declared_nets)} object nets)"),
            dot=dot_object_system,
            explore=lambda system, state: explore_object_system(system, state, 1),
            cover=lambda system, initial, goal, args: cover_object_system(
                system, initial, goal, args.depth, args.max_states),
            labels=lambda system, marking, modes: (
                (mode.event.name, f"  take {format_marking(mode.lam)}  put {format_marking(mode.rho)}")
                for mode in modes),
        ),
    }


def _load(path: str):
    """The file's format, then its net, init and target."""
    text = _read(path)
    fmt = _formats()[sniff_format(text)]
    return (fmt, *fmt.parse(text))


def _require_init(init: Multiset | None, override: str | None, parse_state, net) -> Multiset:
    if override is not None:
        return parse_state(_inline_or_file(override), net)
    if init is None:
        raise ValueError("no initial state: the file has no init line and --init was not given")
    return init


def _cmd_validate(args) -> int:
    try:
        fmt, net, _, _ = _load(args.file)
    except InvalidNetError as exc:
        for issue in exc.issues:
            print(f"violation: {issue}")
        return EXIT_USAGE
    print(f"ok: {fmt.name} {fmt.describe(net)}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    fmt, net, init, _ = _load(args.file)
    state = _require_init(init, None, fmt.parse_state, net)
    rng = random.Random(args.seed)
    print(f"0: {fmt.format_state(state)}")
    for i in range(1, args.steps + 1):
        edges = fmt.explore(net, state).edges  # one per enabled step, in declaration order with modes sorted
        if not edges:
            print(f"deadlock after {i - 1} steps")
            return EXIT_OK
        _, action, nxt = rng.choice(edges)
        label, _ = next(fmt.labels(net, state, [action]))
        print(f"{i}: {label} -> {fmt.format_state(nxt)}")
        state = nxt
    return EXIT_OK


def _cmd_reduce(args) -> int:
    net, init, target = parse_nunet(_read(args.file))
    reduction = reduce_nunet(net)
    enc_init = encode_config(net, init) if init is not None else None
    enc_target = encode_config(net, target) if target is not None else None
    _write(args.output, print_object_system(reduction.system, enc_init, enc_target))
    if args.name_table:
        _write(args.name_table, name_table_tsv(reduction))
    return EXIT_OK


def _cmd_cover(args) -> int:
    fmt, net, init, _ = _load(args.file)
    if args.exact and fmt.name != "nupn":
        raise ValueError("--exact only applies to name nets")
    initial = _require_init(init, args.init, fmt.parse_state, net)
    goal = fmt.parse_state(_inline_or_file(args.target), net)
    answer = fmt.cover(net, initial, goal, args)
    if not answer.covered:
        closed = " (state space exhausted)" if answer.exhausted else ""
        print(f"not covered within depth {answer.depth}{closed}")
        return EXIT_NOT_COVERED
    print(f"covered at depth {len(answer.witness)}")
    for i, (label, detail) in enumerate(fmt.labels(net, initial, answer.witness), start=1):
        print(f"  {i}. {label}{detail}")
    print(f"state: {fmt.format_state(answer.state)}")
    return EXIT_OK


def _cmd_cover_transfer(args) -> int:
    net, init, target = parse_nunet(_read(args.file))
    initial = _require_init(init, args.init, parse_config, net)
    goal = parse_config(_inline_or_file(args.target), net)
    report = check_transfer(net, initial, goal, args.depth, args.max_states)
    src, cmp = report.source, report.compiled

    def verdict(a: CoverAnswer, depth: int) -> str:
        if a.covered:
            return f"covered at depth {len(a.witness)}"
        return f"not covered within depth {depth}"

    print(f"source net:   {verdict(src, report.depth)}")
    print(f"compiled:     {verdict(cmp, report.budget)} (budget {report.budget} = depth {report.depth} x run bound {report.run_bound})")
    if not report.agree:
        print("disagreement: the compiled system does not match the source verdict")
        return EXIT_CHECK_FAILED
    print("agreement: yes")
    return EXIT_OK if src.covered else EXIT_NOT_COVERED


def _random_config(rng: random.Random, arity: int) -> Multiset:
    return Multiset(
        tuple(rng.randint(0, 2) for _ in range(arity))
        for _ in range(rng.randint(0, 3))
    )


def _cmd_check_lemma(args) -> int:
    if not args.randomized and (args.trials is not None or args.seed is not None):
        raise ValueError("--trials and --seed apply only with --random")
    net, init, _ = parse_nunet(_read(args.file))
    reduction = reduce_nunet(net)
    if args.randomized:
        rng = random.Random(args.seed or 0)
        configs = [_random_config(rng, len(net.places)) for _ in range(20 if args.trials is None else args.trials)]
    elif args.config is not None:
        configs = [parse_config(_inline_or_file(args.config), net)]
    elif init is not None:
        configs = [init]
    else:
        raise ValueError("no configuration: pass --config, --random, or a file with an init line")
    failures = 0
    for cfg in configs:
        report = check_simulation(net, cfg, reduction=reduction)
        status = "PASS" if report.passed else "FAIL"
        print(f"{status} config {format_config(cfg) or '(empty)'}: "
              f"{len(report.s1)} successor(s), {report.run_count} run(s)")
        if not report.passed:
            failures += 1
            print("  source successors:   " + ("; ".join(format_config(c) for c in report.s1) or "(none)"))
            print("  compiled endpoints:  " + ("; ".join(format_config(c) for c in report.s2) or "(none)"))
    if failures:
        print(f"{failures}/{len(configs)} configurations failed")
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_dot(args) -> int:
    fmt, net, init, _ = _load(args.file)
    _write(args.output, fmt.dot(net, init))
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "simulate": _cmd_simulate,
    "reduce": _cmd_reduce,
    "cover": _cmd_cover,
    "cover-transfer": _cmd_cover_transfer,
    "check-lemma": _cmd_check_lemma,
    "dot": _cmd_dot,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, NotEnabledError, ValueError, OSError) as exc:  # InvalidNetError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SearchLimitReached as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT


if __name__ == "__main__":
    sys.exit(main())
