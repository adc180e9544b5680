"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces the public functions and methods of each
nestnets module with timing wrappers: on the module or class, and on every
nestnets module that imported the function under its own name (for
example ``coverability.nu_enabled_modes`` or ``cli.check_transfer``), so
``src/`` stays untouched.

Every wrapped call is aggregated per function as calls, inclusive time and
self time (inclusive time minus the time of wrapped calls made inside
it).  Calls of the coarse layer boundaries (CLI, parsing, compilation,
searches) are also recorded as spans ``(name, start, end, parent, query)``
kept in memory until ``write_spans``.  Hot calls, such as the multiset
methods, are aggregated only, so a trace stays bounded.

Tiny accessors are not wrapped; their time is their caller's self time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = ["multisets", "petri", "nunet", "objectsystem", "matching",
          "coverability", "reduction", "textio", "cli"]

# Calls recorded as spans as well as aggregated.
SPANS = {
    "cli.main",
    "textio.parse_nunet", "textio.parse_object_system",
    "reduction.reduce_nunet",
    "coverability.cover_nunet", "coverability.cover_object_system",
    "coverability.explore_nunet", "coverability.explore_object_system",
    "coverability.check_transfer", "coverability.check_simulation",
    "coverability.minimal_runs",
}
# Searches: mode enumeration, firing and covers checks inside them are
# the BFS's expanded states, edges and new states.
SEARCHES = {"coverability.cover_nunet", "coverability.cover_object_system",
            "coverability.explore_nunet", "coverability.explore_object_system"}
MODES = {"nunet.enabled_modes", "objectsystem.ObjectSystem.enabled_modes"}
FIRES = {"nunet.fire", "objectsystem.fire"}
COVERS = {"nunet.covers", "objectsystem.covers"}
CANONICAL = {f"multisets.Multiset.{m}" for m in ("support", "items", "elements", "__iter__", "sort_key")}
# Hot dunders worth wrapping; other dunders are left alone.
DUNDERS = {"__iter__", "__add__", "__sub__", "__mul__"}
SKIP = {
    "multisets.Multiset.count", "multisets.sort_key",
    "petri.PetriNet.pre_of", "petri.PetriNet.post_of",
    "objectsystem.NestedToken.sort_key", "objectsystem.EventMode.sort_key",
    "objectsystem.Event.theta_of", "objectsystem.idle_id",
    "nunet.NuMode.sort_key", "nunet.NuMode.index_of",
    "nunet.NuNet.in_vector", "nunet.NuNet.out_vector", "nunet.NuNet.vars_of",
    "nunet.NuNet.standard_vars_of", "nunet.NuNet.fresh_vars_of",
    "reduction.obj_id",
}


class Tracer:
    def __init__(self):
        self.query: str | None = None
        self.stack: list[list] = []  # [start, child time, span id or None]
        self.spans: list[list] = []
        self.agg: dict[str, list] = {}  # name -> [calls, inclusive s, self s, items out, errors]
        self.counts: Counter = Counter()
        self._searching = 0
        self._coverability = 0
        self._last_state = None

    def reset(self) -> None:
        self.agg = {name: [0, 0.0, 0.0, 0, 0] for name in self.agg}
        self.counts = Counter()

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer."""
        modules = {name: importlib.import_module(f"nestnets.{name}") for name in LAYERS}
        replaced: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    if name not in SKIP:
                        wrapper = self._wrap(name, obj)
                        replaced[id(obj)] = (obj, wrapper)
                        setattr(mod, attr, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nestnets" or mod_name.startswith("nestnets.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in SKIP:
                continue
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(name, raw))

    def _wrap(self, name: str, fn):
        tracer = self
        stack = self.stack
        self.agg.setdefault(name, [0, 0.0, 0.0, 0, 0])
        is_span = name in SPANS
        is_search = name in SEARCHES
        is_coverability = name.startswith("coverability.")
        is_modes = name in MODES
        is_fire = name in FIRES
        is_covers = name in COVERS
        is_reduce = name == "reduction.reduce_nunet"

        def wrapper(*args, **kwargs):
            if is_modes and tracer._searching and args[1] is not tracer._last_state:
                tracer._last_state = args[1]
                tracer.counts["expanded"] += 1
            elif is_fire:
                tracer.counts["fires"] += 1
                if tracer._searching:
                    tracer.counts["edges"] += 1
            elif is_covers and tracer._searching:
                tracer.counts["new_states"] += 1
            if is_search:
                tracer._searching += 1
                tracer._last_state = None
            if is_coverability:
                tracer._coverability += 1
            span_id = None
            if is_span:
                parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                span_id = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0, parent, tracer.query])
            frame = [0.0, 0.0, span_id]
            stack.append(frame)
            start = frame[0] = perf_counter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            except BaseException as exc:
                if is_coverability and tracer._coverability == 1 and type(exc).__name__ == "SearchLimitReached":
                    tracer.counts["limit_hits"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                a = tracer.agg[name]
                a[0] += 1
                a[1] += duration
                a[2] += duration - frame[1]
                if failed:
                    a[4] += 1
                if span_id is not None:
                    tracer.spans[span_id][1] = start
                    tracer.spans[span_id][2] = end
                if is_search:
                    tracer._searching -= 1
                if is_coverability:
                    tracer._coverability -= 1
            if is_modes:
                a[3] += len(result)
            elif is_reduce:
                tracer.counts["ir_events"] += len(result.system.events)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- results ----------------------------------------------------------------

    def snapshot(self) -> dict:
        return {"agg": {k: list(v) for k, v in self.agg.items()}, "counts": dict(self.counts)}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, query in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "query": query}) + "\n")


def layer_metrics(snap: dict, runs: int, endpoints: int) -> dict[str, float]:
    """Per-layer metrics from one pass's aggregates.

    runs and endpoints come from check-lemma's printed summaries.
    """
    agg, counts = snap["agg"], snap["counts"]

    def calls(*names):
        return sum(agg.get(n, [0])[0] for n in names)

    def incl(*names):
        return sum(agg.get(n, [0, 0.0])[1] for n in names)

    def self_s(layer):
        return sum(v[2] for k, v in agg.items() if k.split(".")[0] == layer)

    def ratio(a, b):
        return a / b if b else 0.0

    canon = calls(*CANONICAL)
    edges = counts.get("edges", 0)
    new_states = counts.get("new_states", 0)
    parse = [n for n in agg if n.startswith("textio.parse_") or n == "textio.sniff_format"]
    fmt = [n for n in agg if n.startswith(("textio.format_", "textio.print_")) or n == "textio.name_table_tsv"]
    return {
        "multisets.canon_calls": canon,
        "multisets.canon_per_edge": ratio(canon, counts.get("fires", 0)),
        "multisets.self_s": self_s("multisets"),
        "petri.sum_calls": calls("petri.PetriNet.pre_sum", "petri.PetriNet.post_sum"),
        "objectsystem.modes_calls": calls("objectsystem.ObjectSystem.enabled_modes"),
        "objectsystem.modes_out": agg.get("objectsystem.ObjectSystem.enabled_modes", [0, 0, 0, 0])[3],
        "objectsystem.modes_s": incl("objectsystem.ObjectSystem.enabled_modes"),
        "objectsystem.fire_s": incl("objectsystem.fire"),
        "objectsystem.covers_s": incl("objectsystem.covers"),
        "nunet.modes_calls": calls("nunet.enabled_modes"),
        "nunet.modes_out": agg.get("nunet.enabled_modes", [0, 0, 0, 0])[3],
        "nunet.modes_s": incl("nunet.enabled_modes"),
        "nunet.fire_s": incl("nunet.fire"),
        "nunet.covers_s": incl("nunet.covers"),
        "matching.calls": calls("matching.has_perfect_left_matching"),
        "matching.s": incl("matching.has_perfect_left_matching"),
        "matching.errors": agg.get("matching.has_perfect_left_matching", [0, 0, 0, 0, 0])[4],
        "coverability.expanded": counts.get("expanded", 0),
        "coverability.edges": edges,
        "coverability.new_states": new_states,
        "coverability.useful_ratio": ratio(new_states, edges),
        "coverability.self_s": self_s("coverability"),
        "coverability.limit_hits": counts.get("limit_hits", 0),
        "coverability.runs": runs,
        "coverability.runs_per_endpoint": ratio(runs, endpoints),
        "coverability.minimal_runs_s": incl("coverability.minimal_runs"),
        "reduction.compile_s": incl("reduction.reduce_nunet"),
        "reduction.ir_events": counts.get("ir_events", 0),
        "reduction.codec_s": incl("reduction.encode_config", "reduction.decode_config"),
        "textio.parse_s": incl(*parse),
        "textio.format_s": incl(*fmt),
        "cli.self_s": self_s("cli"),
    }
