"""Measuring process: runs one workload's queries in a closed loop.

Usage: python3 benches/child.py QUERIES_JSON SECONDS TRACE OUT_JSON
(with ``src`` on PYTHONPATH).  One client, one thread: each query is one
in-process ``nestnets.cli.main(argv)`` call, sent after the previous one
returned.  The whole query set runs in passes while another pass fits in
SECONDS (at least one pass).  Each query is timed between two runs of
``calibrate.work()``, whose times are recorded beside it.  Writes
per-pass, per-query results to OUT_JSON.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time

import calibrate

MAX_PASSES = 50


def run_pass(cli_main, queries, tracer):
    records = []
    for q in queries:
        if tracer is not None:
            tracer.query = q["id"]
        out, err = io.StringIO(), io.StringIO()
        exc = None
        gc.collect()  # start every query from a clean heap, as a fresh CLI process would
        before = calibrate.timed()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = cli_main(q["argv"])
            except SystemExit as stop:
                rc = stop.code if isinstance(stop.code, int) else 1
            except Exception as error:  # counted as a failed query, never skipped
                rc, exc = None, type(error).__name__
            elapsed = time.perf_counter() - start
        after = calibrate.timed()
        text = out.getvalue()
        records.append({"rc": rc, "s": elapsed, "cal": [before, after], "exc": exc, "out": text,
                        "out_sha": hashlib.sha256(text.encode()).hexdigest()[:16],
                        "err": err.getvalue()[-300:]})
    return records


def main(argv):
    queries_path, seconds, trace, out_path = argv[0], float(argv[1]), argv[2] == "1", argv[3]
    calibrate.timed()  # warm-up
    before = calibrate.timed()
    start = time.perf_counter()
    import nestnets.cli  # the set-up a user of the CLI pays before the first query

    setup_s = time.perf_counter() - start
    setup_cal = [before, calibrate.timed()]
    with open(queries_path, encoding="utf-8") as fh:
        queries = json.load(fh)
    tracer = None
    if trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    passes = []
    spent = 0.0
    while not passes or (spent + passes[-1]["wall_s"] <= seconds and len(passes) < MAX_PASSES):
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        records = run_pass(nestnets.cli.main, queries, tracer)
        wall = time.perf_counter() - start
        spent += wall
        if passes:  # keep the printed output of the first pass only
            for r in records:
                r["out"] = None
        passes.append({"wall_s": wall, "records": records,
                       "trace": tracer.snapshot() if tracer is not None else None})
        if len(passes) == 1:  # later passes would add this process's own bookkeeping
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.write_spans(os.path.join(os.path.dirname(out_path), "spans.jsonl"))
    result = {
        "setup_s": setup_s,
        "setup_cal": setup_cal,
        "peak_rss_mb": peak_rss_mb,
        "passes": passes,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
