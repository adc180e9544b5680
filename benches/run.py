"""Benchmark of the nestnets command line on seeded workloads.

One run measures one workload:

    python3 benches/run.py --workload transfer --seed 1 --seconds 35 --trace 0

It generates the workload's model files from the seed under
``benches/.out/<workload>-<seed>/`` (cached there with the reference
verdicts), measures the import of ``nestnets`` and ``nestnets.cli`` in
fresh interpreters, then runs every query in a closed loop in one child
process: one client, one thread, each query one in-process
``nestnets.cli.main(argv)`` call sent after the previous one returned.
The query set repeats in passes for ``--seconds`` (at least once).
Every time is scaled to a reference host speed, measured by the fixed
work of ``calibrate.py`` run just before and after each query (and each
import), so slow spells of a shared host cancel out.  A query's latency
is the median over passes of its scaled time, and throughput is queries
answered over the sum of those latencies.  Every printed verdict is
checked against ``reference.py``.

The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, or its per-layer metrics with
``--trace 1``, where every public function of the measured modules is
wrapped (see ``layertrace.py``) and the spans are written to
``spans.jsonl`` beside the inputs.

BENCHMARK.json lists transfer, lemma and names; eos runs the same way by
hand and in the report.

One command prints everything for people:

    python3 benches/run.py --report [--seed 0] [--seconds 1]

It runs each workload untraced and traced, prints every metric with its
unit and the tracing overhead, then checks that every count repeats
exactly across two runs and two PYTHONHASHSEED values, that the inputs
do not depend on the hash seed, and that the reference successor
functions agree with the brute-force oracles of ``tests/oracles.py``.
It exits with 1 if any check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / ".out"
WORKLOADS = ["transfer", "lemma", "names", "eos"]
RUN_LIMIT_S = 170  # the whole run, child included, ends within this
SETUP_PROBES = 15
IMPORT_PROBE = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import time, calibrate; "
                "calibrate.timed(); before = calibrate.timed(); "
                "t = time.perf_counter(); import nestnets, nestnets.cli; t = time.perf_counter() - t; "
                "print(t, before, calibrate.timed())")


def fail(message: str, code: int = 1):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def child_env(hash_seed: str | None = None) -> dict:
    """Environment of every process started here: src on the path, and a
    fixed hash seed (0 unless the caller set one), because the work some
    nestnets functions do depends on set iteration order."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    env.setdefault("PYTHONHASHSEED", "0")
    return env


# -- inputs ------------------------------------------------------------------------


def code_key() -> str:
    h = hashlib.sha256()
    for path in (BENCH / "workloads.py", BENCH / "reference.py", ROOT / "tests" / "oracles.py"):
        h.update(path.read_bytes())
    return h.hexdigest()


def build(workload: str, seed: int, directory: Path, use_cache: bool = True) -> dict:
    """Write the workload's files and queries; returns the build record."""
    import workloads

    meta_path = directory / "build.json"
    key = code_key()
    if use_cache and meta_path.exists():
        meta = json.loads(meta_path.read_text())
        if meta.get("key") == key:
            return meta
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    rel = directory.relative_to(ROOT).as_posix()
    builder = workloads.Builder(workload, seed, rel)
    start = time.perf_counter()
    workloads.BUILDERS[workload](builder)
    build_s = time.perf_counter() - start
    digest = hashlib.sha256()
    for name in sorted(builder.files):
        (directory / name).write_text(builder.files[name], encoding="utf-8")
        digest.update(name.encode() + b"\0" + builder.files[name].encode() + b"\0")
    digest.update(json.dumps(builder.queries, sort_keys=True).replace(rel, "@dir").encode())
    (directory / "queries.json").write_text(json.dumps(builder.queries), encoding="utf-8")
    meta = {"key": key, "digest": digest.hexdigest(), "build_s": build_s,
            "queries": len(builder.queries)}
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    return meta


# -- checking ------------------------------------------------------------------------


def _depth_after(line: str, prefix: str) -> int | None:
    if line.startswith(prefix):
        return int(line[len(prefix):].split()[0])
    return None


def judge(query: dict, rc, out: str) -> str | None:
    """None when the printed answer agrees with the reference, else why not."""
    expect = query["expect"]
    command = query["argv"][0]
    lines = out.splitlines()
    if command == "check-lemma":
        if rc != 0 or not lines or not lines[0].startswith("PASS "):
            return f"exit {rc}, expected PASS"
        found = int(lines[0].rsplit(":", 1)[1].split()[0])
        if found != expect["successors"]:
            return f"{found} successors, reference has {expect['successors']}"
        return None
    if command == "cover-transfer":
        verdicts = {}
        for line in lines:
            head, _, rest = line.partition(":")
            verdicts[head.strip()] = rest.strip()
        src, cmp = verdicts.get("source net", ""), verdicts.get("compiled", "")
        if verdicts.get("agreement") != "yes":
            return f"exit {rc}, no agreement"
        if expect["covered"]:
            if rc != 0 or _depth_after(src, "covered at depth ") != expect["depth"]:
                return f"exit {rc}, source '{src}', reference depth {expect['depth']}"
            d = _depth_after(cmp, "covered at depth ")
            if d is None or d > expect["budget"]:
                return f"compiled '{cmp}' over budget {expect['budget']}"
            return None
        if rc != 2 or not src.startswith("not covered") or not cmp.startswith("not covered"):
            return f"exit {rc}, expected not covered"
        return None
    # cover
    if expect["covered"]:
        d = _depth_after(lines[0], "covered at depth ") if lines else None
        steps = sum(1 for line in lines if line.startswith("  "))
        if rc != 0 or d != expect["depth"] or steps != d:
            return f"exit {rc}, '{lines[0] if lines else ''}', reference depth {expect['depth']}"
        return None
    if rc != 2 or not lines or not lines[0].startswith("not covered"):
        return f"exit {rc}, expected not covered"
    return None


def evaluate(queries: list[dict], result: dict) -> dict:
    passes = result["passes"]
    first = passes[0]["records"]
    outcomes, problems = [], []
    wrong = 0
    for i, (q, rec) in enumerate(zip(queries, first)):
        stable = all(p["records"][i]["rc"] == rec["rc"] and p["records"][i]["out_sha"] == rec["out_sha"]
                     and p["records"][i]["exc"] == rec["exc"] for p in passes)
        if rec["exc"] is not None:
            outcome, why = "failed", f"{rec['exc']} escaped main"
        elif not stable:
            outcome, why = "failed", "output differs between passes"
            wrong += 1
        elif rec["rc"] == 3:
            outcome, why = "undecided", None
        else:
            why = judge(q, rec["rc"], rec["out"])
            outcome = "verdict" if why is None else "failed"
            wrong += why is not None
        outcomes.append(outcome)
        if outcome == "failed":
            stderr = rec["err"].strip().splitlines()
            problems.append(f"{q['id']} [{q['stratum']}] {why}" + (f" ({stderr[-1]})" if stderr else ""))
    n = len(queries)
    # A query's latency is the median over passes of its time scaled to
    # the reference host speed.  Inputs repeat across passes, so the
    # program must not carry results from one query to the next.
    per_query = [statistics.median(calibrate.scaled(p["records"][i]["s"], *p["records"][i]["cal"])
                                   for p in passes) for i in range(n)]
    measured = [statistics.median(p["records"][i]["s"] for p in passes) for i in range(n)]
    latencies = sorted(math.inf if o == "failed" else t for o, t in zip(outcomes, per_query))
    answered = sum(o != "failed" for o in outcomes)
    times = [sum(r["s"] for r in p["records"]) for p in passes]
    fastest = times.index(min(times))
    tail_at = max(0, n - 11)  # the highest percentile with 10 queries beyond it
    return {
        "n": n,
        "passes": len(passes),
        "fastest": fastest,
        "failed": outcomes.count("failed"),
        "decided": outcomes.count("verdict"),
        "wrong": wrong,
        "problems": problems,
        "queries_per_s": answered / sum(per_query),
        "measured_queries_per_s": answered / sum(measured),
        "host_speed": calibrate.REFERENCE_S / statistics.median(
            c for p in passes for r in p["records"] for c in r["cal"]),
        "tail_percentile": 100.0 * (tail_at + 1) / n,
        "tail_beyond": n - 1 - tail_at,
        "tail_ms": latencies[tail_at] * 1000.0,
        "p50_ms": statistics.median(latencies) * 1000.0,
    }


def lemma_totals(queries: list[dict], records: list[dict]) -> tuple[int, int]:
    runs = endpoints = 0
    for q, rec in zip(queries, records):
        if q["argv"][0] == "check-lemma" and rec["out"]:
            for line in rec["out"].splitlines():
                if line.startswith(("PASS ", "FAIL ")):
                    tail = line.rsplit(":", 1)[1].split()
                    endpoints += int(tail[0])
                    runs += int(tail[2])
    return runs, endpoints


# -- one run -----------------------------------------------------------------------------


def measure(args) -> int:
    from layertrace import layer_metrics

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = time.perf_counter()
    directory = OUT / f"{args.workload}-{args.seed}"
    meta = build(args.workload, args.seed, directory)
    queries = json.loads((directory / "queries.json").read_text())
    env = child_env()

    setup = []
    if not args.trace:
        probe = [sys.executable, "-c", IMPORT_PROBE]
        subprocess.run(probe, cwd=ROOT, env=env, capture_output=True, timeout=60, check=True)  # writes bytecode
        setup = [calibrate.scaled(*map(float, subprocess.run(
            probe, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True).stdout.split()))
            for _ in range(SETUP_PROBES)]

    trace = "1" if args.trace else "0"
    out_path = directory / f"result-{trace}.json"
    budget = RUN_LIMIT_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(directory / "queries.json"),
                               str(args.seconds), trace, str(out_path)],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        fail(f"the measured process did not finish within {budget:.0f} s")
    if proc.returncode != 0:
        fail(f"the measured process exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(out_path.read_text())
    setup.append(calibrate.scaled(result["setup_s"], *result["setup_cal"]))
    ev = evaluate(queries, result)

    print(f"workload {args.workload}, seed {args.seed}: {ev['n']} queries x {ev['passes']} passes, "
          f"inputs sha256 {meta['digest'][:16]}, built in {meta['build_s']:.2f} s, "
          f"trace {'on' if args.trace else 'off'}")
    print(f"  verdicts {ev['decided']}, undecided (exit 3) {ev['n'] - ev['decided'] - ev['failed']}, "
          f"failed {ev['failed']} ({ev['wrong']} wrong answers)")
    for line in ev["problems"][:10]:
        print(f"  failed: {line}")

    if args.trace:
        snaps = [p["trace"] for p in result["passes"]]
        runs, endpoints = lemma_totals(queries, result["passes"][0]["records"])
        first = layer_metrics(snaps[0], runs, endpoints)
        fastest = layer_metrics(snaps[ev["fastest"]], runs, endpoints)
        # times from the fastest pass, counts from the first
        timed = [name for name in first if name.endswith(("_s", ".s"))]
        values = {name: fastest[name] if name in timed else first[name] for name in first}
        values["trace.queries_per_s"] = ev["queries_per_s"]
        units = {name: "s" if name in timed else "ratio" if isinstance(v, float) else "count"
                 for name, v in values.items()}
        units.update({m["name"]: m["unit"] for m in spec["per_layer"]})
        # Times of layers a workload may never call would read 0 on every
        # run; they are printed here but left out of BENCHMARK.json.
        listed = {m["name"] for m in spec["per_layer"]}
        for name in [n for n in values if n not in listed]:
            print(f"  {name} = {values.pop(name):.6g} {units[name]} (printed only)")
    else:
        values = {
            "setup_s": statistics.median(setup),
            "queries_per_s": ev["queries_per_s"],
            "query_p50_ms": ev["p50_ms"],
            "query_tail_ms": ev["tail_ms"],
            "decided_frac": ev["decided"] / ev["n"],
            "answered_frac": (ev["n"] - ev["failed"]) / ev["n"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        print(f"  query_tail_ms is p{ev['tail_percentile']:.1f} of {ev['n']} queries "
              f"({ev['tail_beyond']} beyond it); failed queries count as slower than any limit")
        print(f"  times are scaled to the reference host speed; this host ran at {ev['host_speed']:.3f} of it "
              f"(median calibration), and queries_per_s as measured = {ev['measured_queries_per_s']:.6g} 1/s")
    for name, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            values[name] = 1e9
            print(f"  {name}: more failed queries than the percentile can absorb, reported as 1e9")
        print(f"  {name} = {values[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": ev["wrong"] == 0,
        "attempted": ev["n"] * ev["passes"],
        "failed": ev["failed"] * ev["passes"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


# -- the one command ------------------------------------------------------------------------


def run_one(workload: str, seed: int, seconds: float, trace: int, hash_seed: str | None = None) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, env=child_env(hash_seed), capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail(f"{workload} run failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    return {"lines": lines[:-1], "result": json.loads(lines[-1])}


def digest_under(workload: str, seed: int, hash_seed: str) -> str:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                           "--digest-only"],
                          cwd=ROOT, env=child_env(hash_seed), capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail(f"{workload} build failed:\n{proc.stderr[-2000:]}")
    return proc.stdout.split()[-1]


def oracle_cross_check(seed: int) -> list[str]:
    """Reference successors against tests/oracles.py on small random states."""
    import random
    from collections import Counter

    import reference as ref
    import workloads
    from nestnets import Multiset, NestedToken, parse_nunet, parse_object_system
    from oracles import eos_successors, nu_successors

    rng = random.Random(seed)
    problems = []
    for i in range(40):
        net = workloads.small_name_net(rng, f"c{i}", rng.randint(1, 3), 3, 0.5)
        config = workloads.random_config(rng, rng.randint(0, 4))
        parsed, init, _ = parse_nunet(workloads.nupn_text(net, config))
        oracle = set()
        for t in parsed.transitions:
            oracle |= nu_successors(parsed, init, t)
        if {Multiset(s).sort_key() for s in ref.nu_successors(net, config)} != oracle:
            problems.append(f"name net {i}: reference successors differ from the oracle")
    for i in range(20):
        system = workloads.split_system(rng, rng.randint(2, 3))
        size = rng.randint(0, 4)
        a = rng.randint(0, size)
        marking = tuple(sorted([ref.token("i", Counter({"a": a, "b": size - a})), ref.token("s", Counter())]))
        parsed, init, _ = parse_object_system(workloads.eos_text(system, marking))
        oracle = set()
        for event in parsed.events:
            oracle |= eos_successors(parsed, init, event)
        mine = {Multiset(NestedToken(p, Multiset.from_counts(dict(inner))) for p, inner in m).sort_key()
                for m in ref.eos_successors(system, marking)}
        if mine != oracle:
            problems.append(f"object system {i}: reference successors differ from the oracle")
    return problems


def report(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    checks: dict[str, list[str]] = {
        "outputs match the reference on every workload": [],
        "every count repeats exactly across two runs": [],
        "every count repeats exactly across PYTHONHASHSEED 0 and 1": [],
        "generated inputs are identical across PYTHONHASHSEED 0 and 1": [],
        "reference successors agree with tests/oracles.py on small states": oracle_cross_check(args.seed),
    }
    names = list(checks)
    for workload in WORKLOADS:
        plain = run_one(workload, args.seed, args.seconds, 0)
        traced = run_one(workload, args.seed, args.seconds, 1)
        print(f"== {workload}")
        for line in plain["lines"]:
            print(line)
        for name, m in traced["result"]["metrics"].items():
            print(f"  traced {name} = {m['value']:.6g} {m['unit']}")
        for line in traced["lines"]:
            if line.endswith("(printed only)"):
                print("  traced " + line.strip())
        overhead = (traced["result"]["metrics"]["trace.queries_per_s"]["value"]
                    - plain["result"]["metrics"]["queries_per_s"]["value"])
        print(f"  tracing overhead: traced minus untraced queries_per_s = {overhead:.6g} 1/s")
        if not (plain["result"]["correct"] and traced["result"]["correct"]):
            checks[names[0]].append(f"{workload}: wrong answers")
        again = run_one(workload, args.seed, args.seconds, 1, "0")
        other = run_one(workload, args.seed, args.seconds, 1, "1")
        for check, a, b in ((names[1], traced, again), (names[2], again, other)):
            for name in counts:
                seen = [r["result"]["metrics"][name]["value"] for r in (a, b)]
                if seen[0] != seen[1]:
                    checks[check].append(f"{workload}: {name} {seen[0]} vs {seen[1]}")
        digests = {digest_under(workload, args.seed, h)[:16] for h in ("0", "1")}
        digests.add(plain["lines"][0].split("sha256 ")[1][:16])
        if len(digests) != 1:
            checks[names[3]].append(f"{workload}: {sorted(digests)}")
    print("== self-checks")
    for check, problems in checks.items():
        print(f"  {'FAIL' if problems else 'PASS'} {check}")
        for line in problems:
            print(f"       {line}")
    return 1 if any(checks.values()) else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true", help="run every workload and the self-checks")
    parser.add_argument("--digest-only", action="store_true", help="build the inputs afresh and print their digest")
    args = parser.parse_args()
    for needed in (ROOT / "src" / "nestnets" / "cli.py", ROOT / "tests" / "oracles.py", ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            fail(f"{needed.relative_to(ROOT)} is missing: run from a nestnets source checkout", 2)
    sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]
    if args.report:
        return report(args)
    if args.workload is None:
        parser.error("--workload is required unless --report is given")
    if args.digest_only:
        directory = OUT / f"check-{args.workload}-{args.seed}-{os.environ.get('PYTHONHASHSEED', 'random')}"
        meta = build(args.workload, args.seed, directory, use_cache=False)
        shutil.rmtree(directory)
        print(meta["digest"])
        return 0
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
