"""Seeded workload generators.

Each workload is a fixed list of CLI queries built from one seed.  Model
files are written as text by this module (not by the nestnets printers),
so the parser under test reads independent input.  Every query carries
the verdict the reference semantics in ``reference.py`` predicts.

Each query kind (verdict, and whether the search runs into its state
cap) has a fixed quota, filled by queries spread evenly over the search
effort the reference predicts (``fill``), so different seeds give
different nets with the same mix of work.
"""

from __future__ import annotations

import random
from collections import Counter

import reference as ref

# Per-query state caps.  Negative queries explore every state within the
# depth; the cap turns the heaviest of them into "undecided" (exit 3) and
# bounds the latency tail.
TRANSFER_MAX_STATES = 300
NAMES_MAX_STATES = 400
EOS_MAX_STATES = 400


class Builder:
    """Collects model files and queries for one workload and seed."""

    def __init__(self, workload: str, seed: int, rel_dir: str):
        self.rng = random.Random(f"{workload}:{seed}")
        self.rel_dir = rel_dir
        self.files: dict[str, str] = {}
        self.queries: list[dict] = []

    def add(self, suffix: str, text: str, args: list[str], expect: dict, stratum: str,
            extra_files: dict[str, str] | None = None, effort: dict | None = None) -> None:
        """Add one query: args[0] is the subcommand, the model file follows it.

        effort records the search work the reference predicts for it.
        """
        qid = f"q{len(self.queries):04d}"
        name = f"{qid}.{suffix}"
        self.files[name] = text
        argv = [args[0], f"{self.rel_dir}/{name}"] + args[1:]
        for fname, ftext in (extra_files or {}).items():
            self.files[f"{qid}-{fname}"] = ftext
            argv = [a.replace("@" + fname, f"{self.rel_dir}/{qid}-{fname}") for a in argv]
        self.queries.append({"id": qid, "argv": argv, "expect": expect, "stratum": stratum,
                             "effort": effort or {}})


# -- text writers ------------------------------------------------------------------


def vectors_text(config) -> str:
    return " ".join("[" + " ".join(map(str, v)) + "]" for v in config)


def nupn_text(net: dict, init) -> str:
    out = [f"nupn {net['name']}", "places " + " ".join(net["places"])]
    if net["vars"]:
        out.append("vars " + " ".join(net["vars"]))
    if net["fresh"]:
        out.append("fresh " + " ".join(net["fresh"]))
    for t in net["trans"]:
        out.append(f"trans {t['name']}")
        for label in ("in", "out"):
            for p in net["places"]:
                if t[label].get(p):
                    out.append(f"  {label} {p} : " + " ".join(t[label][p]))
        out.append("end")
    out.append(("init " + vectors_text(init)).rstrip())
    return "\n".join(out) + "\n"


def marking_text(marking) -> str:
    return " ".join(
        f"{place} {{ " + "".join(f"{p}:{k} " for p, k in inner) + "}" for place, inner in marking
    )


def _arc_lines(pre: Counter, post: Counter, indent: str) -> list[str]:
    out = []
    for label, arcs in (("in", pre), ("out", post)):
        for p in sorted(arcs):
            out.append(f"{indent}{label} {p}" + (f" : {arcs[p]}" if arcs[p] > 1 else ""))
    return out


def eos_text(system: dict, init) -> str:
    inner = system["inner"]
    out = ["eos", "objectnet data", "  places " + " ".join(inner["places"])]
    for u in sorted(inner["trans"]):
        out.append(f"  trans {u}")
        out += _arc_lines(*inner["trans"][u], "    ")
        out.append("  end")
    out += ["end", "system sys",
            "  places " + " ".join(f"{p}:{typ}" for p, typ in system["places"].items())]
    for t in sorted(system["trans"]):
        out.append(f"  trans {t}")
        out += _arc_lines(*system["trans"][t], "    ")
        out.append("  end")
    out += ["end", "events"]
    for name, t, theta in system["events"]:
        line = f"  event {name} = {t}"
        if theta:
            line += " with data: " + " ".join(u for u in sorted(theta) for _ in range(theta[u]))
        out.append(line)
    out += ["end", ("init " + marking_text(init)).rstrip()]
    return "\n".join(out) + "\n"


# -- shared target construction ------------------------------------------------------


def random_walk(rng: random.Random, successors, state, steps: int):
    for _ in range(steps):
        nxt = sorted(successors(state))
        if not nxt:
            break
        state = rng.choice(nxt)
    return state


def weaken_config(rng: random.Random, config) -> tuple:
    kept = [tuple(max(0, k - rng.randint(0, 1)) for k in v) for v in config if rng.random() >= 0.4]
    return ref.canon(kept)


def weaken_marking(rng: random.Random, marking) -> tuple:
    kept = []
    for place, inner in marking:
        if rng.random() < 0.3:
            continue
        kept.append((place, tuple((p, k - d) for p, k in inner
                                  for d in [rng.randint(0, min(k, 2))] if k - d)))
    return tuple(sorted(kept))


# -- transfer: cover-transfer on small name nets ----------------------------------------


def small_name_net(rng: random.Random, name: str, n_vars: int, n_trans: int,
                   fresh_p: float) -> dict:
    """A valid-by-construction name net over places p0..p2."""
    places = ["p0", "p1", "p2"]
    variables = ["x", "y", "z"][:n_vars]
    trans = []
    for i in range(n_trans):
        used = [x for x in variables if rng.random() < 0.6] or [rng.choice(variables)]
        t_in: dict[str, list[str]] = {}
        t_out: dict[str, list[str]] = {}
        for x in used:
            for _ in range(rng.randint(1, 2)):
                t_in.setdefault(rng.choice(places), []).append(x)
            for _ in range(rng.randint(0, 2)):
                t_out.setdefault(rng.choice(places), []).append(x)
        free = [p for p in places if p not in t_out]
        if free and rng.random() < fresh_p:
            t_out[rng.choice(free)] = ["nu"]
        trans.append({"name": f"t{i}",
                      "in": {p: sorted(v) for p, v in t_in.items()},
                      "out": {p: sorted(v) for p, v in t_out.items()}})
    return {"name": name, "places": places, "vars": variables, "fresh": ["nu"], "trans": trans}


def compiled_events(net: dict) -> int:
    """Events of the compilation: per transition, one pick and one fire per
    variable plus done; a transition without variables compiles to done."""
    total = 0
    for t in net["trans"]:
        xs, _, _, minted = ref.transition_shape(net, t)
        total += 2 * (len(xs) + len(minted)) + 1
    return total


def run_bound(net: dict) -> int:
    """Longest gadget run of the compilation (2 per standard variable + 1, +2 if fresh)."""
    best = 1
    for t in net["trans"]:
        xs, _, _, minted = ref.transition_shape(net, t)
        best = max(best, 2 * len(xs) + (3 if minted else 1))
    return best


def unreachable_vector(rng: random.Random, net: dict, init, steps: int) -> tuple:
    bound = ref.nu_growth_bound(net, init, steps)
    p = rng.randrange(len(bound))
    return tuple(bound[i] + 1 if i == p else 0 for i in range(len(bound)))


def random_config(rng: random.Random, names: int, distinct=None) -> tuple:
    if distinct is None:
        return ref.canon(tuple(rng.randint(0, 2) for _ in range(3)) for _ in range(names))
    return ref.canon(rng.choice(distinct) for _ in range(names))


POOL_FACTOR = 2  # candidates pooled per query kept


def fill(b: Builder, slots: list[tuple[str, float, float, int]], draw) -> None:
    """Add the queries each slot (kind, lowest cost, highest cost, count) asks for.

    draw() returns (kind, predicted latency in ms, query) or None.  Each
    candidate joins the first slot of its kind whose cost range holds it,
    until every slot has POOL_FACTOR times its count; then the slot keeps
    the candidates at evenly spaced quantiles of predicted cost.  So every
    seed gets different nets with the same mix of cheap and costly queries.
    Narrow slots with many queries at the median and at the tail make
    query_p50_ms and query_tail_ms order statistics of similar queries.
    """
    pools: list[list] = [[] for _ in slots]
    for attempt in range(1000 * sum(s[3] for s in slots)):
        if all(len(pool) >= POOL_FACTOR * s[3] for pool, s in zip(pools, slots)):
            break
        got = draw()
        if got is None:
            continue
        kind, cost, query = got
        for pool, (k, lo, hi, count) in zip(pools, slots):
            if k == kind and lo <= cost < hi:
                if len(pool) < POOL_FACTOR * count:
                    pool.append((cost, attempt, query))
                break
    else:
        raise RuntimeError(f"slots left unfilled: {[len(p) for p in pools]} of {slots}")
    chosen = []
    for pool, (_, _, _, count) in zip(pools, slots):
        pool.sort(key=lambda c: (c[0], c[1]))
        chosen += [pool[(2 * i + 1) * len(pool) // (2 * count)] for i in range(count)]
    for _, _, query in sorted(chosen, key=lambda c: c[1]):
        b.add(**query)


# Slots (kind, predicted ms from, to, count).  "pos0" targets are covered
# by the initial configuration; "-limit" queries run into the state cap
# (exit 3) and form the tail.  The predicted latency is a linear fit of
# latencies measured at the benchmark's first commit on the search work the
# reference counts; queries.json keeps those counts ("effort") for refits.
TRANSFER_SLOTS = [
    ("pos0", 0, 5, 28), ("pos", 0, 9, 20), ("neg", 0, 9, 20),
    ("pos", 10, 13, 20), ("neg", 10, 13, 20),
    ("pos", 13, 70, 14), ("neg", 13, 70, 14),
    ("pos-limit", 80, 100, 8), ("neg-limit", 80, 100, 32),
]


def build_transfer(b: Builder) -> None:
    """Nets of 3 places, x and y plus nu, 3 transitions; 1-4 names; depth
    k 1-3.  Targets are weakened random-walk endpoints, or carry a vector
    no name can reach within k*L steps."""
    rng = b.rng

    def draw():
        net = small_name_net(rng, f"tr{len(b.queries)}", 2, 3, 0.5)
        init = random_config(rng, rng.randint(1, 4))
        k = rng.randint(1, 3)
        succ = lambda c: ref.nu_successors(net, c)
        target = weaken_config(rng, random_walk(rng, succ, init, k))
        budget = k * run_bound(net)
        negative = rng.random() < 0.5
        if negative:
            target = ref.canon(target + (unreachable_vector(rng, net, init, budget),))
        source = ref.search_cost(succ, ref.nu_covers, init, target, k, TRANSFER_MAX_STATES)
        if source["outcome"] == "limit":
            return None
        compiled = ref.search_cost(ref.compiled_successors(net), ref.compiled_covers, (init, ()),
                                   target, budget, TRANSFER_MAX_STATES)
        if negative:
            kind, expect = "neg", {"covered": False}
        else:
            kind = "pos0" if source["depth"] == 0 else "pos"
            expect = {"covered": True, "depth": source["depth"]}
        expect["budget"] = budget
        if compiled["outcome"] == "limit":
            kind += "-limit"
        events = compiled_events(net)
        cost = (1.67 + 0.014 * compiled["states"] * events
                + (0.0175 * len(init) + 0.0224) * compiled["edges"])
        return kind, cost, {
            "suffix": "nupn", "text": nupn_text(net, init),
            "args": ["cover-transfer", "--target", vectors_text(target), "--depth", str(k),
                     "--max-states", str(TRANSFER_MAX_STATES)],
            "expect": expect, "stratum": kind,
            "effort": {**compiled, "names": len(init), "events": events}}

    fill(b, TRANSFER_SLOTS, draw)


# -- lemma: check-lemma on three-variable nets ---------------------------------------------


def lemma_net(rng: random.Random, name: str) -> dict:
    """Three standard variables plus nu; t0 always uses all three."""
    while True:
        net = small_name_net(rng, name, 3, rng.randint(2, 3), 0.5)
        t0 = net["trans"][0]
        used = {v for arcs in (t0["in"], t0["out"]) for vs in arcs.values() for v in vs}
        if {"x", "y", "z"} <= used:
            return net


LEMMA_SLOTS = [("lemma", 0, 35, 20), ("lemma", 45, 55, 20), ("lemma", 120, 160, 20)]


def build_lemma(b: Builder) -> None:
    """Nets with x, y, z plus nu, where t0 uses all three; configurations
    of 3-5 names.  The successor count check-lemma prints is checked
    against both reference.py and tests/oracles.py."""
    from nestnets import Multiset, NuNet
    from oracles import nu_successors as oracle_successors

    rng = b.rng

    def draw():
        net = lemma_net(rng, f"lm{len(b.queries)}")
        config = random_config(rng, rng.randint(3, 5))
        walks = ref.gadget_walks(net, config, run_bound(net))
        if walks >= 2 ** 9:
            return None
        successors = ref.nu_successors(net, config)
        parsed = NuNet("n", net["places"], [t["name"] for t in net["trans"]], net["vars"], net["fresh"],
                       {t["name"]: {p: Multiset(v) for p, v in t["in"].items()} for t in net["trans"]},
                       {t["name"]: {p: Multiset(v) for p, v in t["out"].items()} for t in net["trans"]})
        oracle = set()
        for t in parsed.transitions:
            oracle |= oracle_successors(parsed, Multiset(config), t)
        if {Multiset(s).sort_key() for s in successors} != oracle:
            raise AssertionError(f"reference and oracle disagree on {net['name']}")
        events = compiled_events(net)
        return "lemma", 0.4 + walks * (0.0146 * events + 0.0376 * len(config)), {
            "suffix": "nupn", "text": nupn_text(net, config),
            "args": ["check-lemma", "--config", vectors_text(config)],
            "expect": {"successors": len(successors)}, "stratum": "lemma",
            "effort": {"walks": walks, "names": len(config), "events": events}}

    fill(b, LEMMA_SLOTS, draw)


# -- names: cover on name nets, many equal names and big domination checks ------------------


def chain_instance(rng: random.Random, n: int):
    """Target (i, n-i) against config (j+1, n-j), shifted: every target
    tuple fits exactly two config tuples, so a matching search that takes
    the first fit must walk an augmenting path as long as the chain."""
    o0, o1 = rng.randint(0, 5), rng.randint(0, 5)
    target = ref.canon((i + o0, n - i + o1) for i in range(n))
    config = ref.canon((j + 1 + o0, n - j + o1) for j in range(n))
    pairs = [(i, i) for i in range(n)]  # both lists sort by the first entry
    if not ref.matching_certificate_ok(config, target, pairs):
        raise AssertionError(f"chain of {n} tuples lacks its matching")
    return config, target


def _permutations(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= n - i
    return out


def assignments(net: dict, config, t: dict) -> int:
    """Assignments of distinct occurrences to t's variables that pay its demand."""
    counts = Counter(config)
    total = 0
    for effect in ref.nu_effects(net, config, t):
        ways = 1
        for v, k in Counter(effect).items():
            ways *= _permutations(counts[v], k)
        total += ways
    return total


# As many queries below the median slot as above it (chains included), and
# the tail rank (10 queries beyond it) in the middle of the 54-68 ms slots:
# dense slots there keep p50 and tail steady across seeds.
NAMES_SLOTS = [
    ("pos", 0, 6, 13), ("neg", 0, 6, 13),
    ("pos", 8, 10.5, 13), ("neg", 8, 10.5, 13),
    ("pos", 40, 54, 5), ("neg", 40, 54, 5),
    ("pos", 54, 68, 6), ("neg", 54, 68, 6),
]
# Chains from 1000 tuples on raised RecursionError in matching when this
# benchmark was added: the slice stays so that a fix shows.
CHAIN_SIZES = (200, 500, 1000, 1200)


def build_names(b: Builder) -> None:
    """Slice (a): 24-64 names over 3-4 distinct vectors, depth 2-3.
    Slice (b): depth 0-1 domination checks on chains of 200-1224 tuples."""
    rng = b.rng

    def draw():
        net = small_name_net(rng, f"nm{len(b.queries)}", 2, rng.randint(2, 3), 0.6)
        distinct = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(rng.randint(3, 4))]
        init = random_config(rng, rng.randint(24, 64), distinct)
        depth = rng.randint(2, 3)
        end = random_walk(rng, lambda c: ref.nu_successors(net, c), init, depth)
        changed = ref.canon((Counter(end) - Counter(init)).elements())[:4]
        negative = rng.random() < 0.5
        if negative:
            target = ref.canon(changed[:2] + (unreachable_vector(rng, net, init, depth),))
        elif changed:
            target = changed
        else:
            return None
        shapes = [ref.transition_shape(net, t) for t in net["trans"]]
        work = [0, 0]

        def succ(c):
            work[0] += sum(_permutations(len(c), len(xs)) for xs, _, _, _ in shapes)
            work[1] += sum(assignments(net, c, t) for t in net["trans"])
            return ref.nu_successors(net, c)

        cost = ref.search_cost(succ, ref.nu_covers, init, target, depth, NAMES_MAX_STATES)
        if cost["outcome"] == "limit" or work[0] >= 2 ** 17 or (not negative and cost["depth"] == 0):
            return None
        kind = "neg" if negative else "pos"
        expect = {"covered": False} if negative else {"covered": True, "depth": cost["depth"]}
        latency = 1.63 + 0.00169 * work[0] + 0.00294 * work[1] + 0.00283 * cost["states"] * len(init)
        return kind, latency, {
            "suffix": "nupn", "text": nupn_text(net, init),
            "args": ["cover", "--target", vectors_text(target), "--depth", str(depth),
                     "--max-states", str(NAMES_MAX_STATES)],
            "expect": expect, "stratum": f"a-{kind}",
            "effort": {**cost, "permutations": work[0], "assignments": work[1], "names": len(init)}}

    fill(b, NAMES_SLOTS, draw)
    chain_net = {"name": "dom", "places": ["p0", "p1"], "vars": ["x"], "fresh": ["nu"],
                 "trans": [{"name": "t0", "in": {"p0": ["x"]}, "out": {"p1": ["x"], "p0": ["nu"]}}]}
    for size in CHAIN_SIZES:
        config, target = chain_instance(rng, size + rng.randint(0, size // 50))
        b.add("nupn", nupn_text(chain_net, config),
              ["cover", "--target", "@target", "--depth", str(rng.randint(0, 1))],
              {"covered": True, "depth": 0}, f"b-{size}",
              {"target": vectors_text(target) + "\n"})


# -- eos: cover on object systems that split inner markings -----------------------------------


def split_system(rng: random.Random, outputs: int) -> dict:
    """One data token on i is split over `outputs` places of its type;
    further events move, merge and rewrite inner tokens."""
    inner_places = ["a", "b", "c"]
    inner_trans = {}
    for u in ("u0", "u1", "u2"):
        src, dst = rng.sample(inner_places, 2)
        inner_trans[u] = (Counter({src: 1}), Counter({dst: rng.randint(1, 2)} if u == "u2" else {dst: 1}))
    outs = [f"o{i}" for i in range(outputs)]
    places = {"i": "data", **{o: "data" for o in outs}, "s": "black"}
    trans = {
        "split": (Counter({"i": 1}), Counter(outs)),
        "merge": (Counter(rng.sample(outs, 2)), Counter({"i": 1})),
        "move": (Counter({outs[0]: 1}), Counter({outs[-1]: 1, "s": 1})),
    }
    events = [
        ("split", "split", {rng.choice(["u0", "u1"]): 1} if rng.random() < 0.5 else {}),
        ("merge", "merge", {}),
        ("move", "move", {"u1": 1}),
        ("rewrite", f"idle::{outs[0]}", {"u2": 1}),
    ]
    return {"inner": {"places": inner_places, "trans": inner_trans},
            "places": places, "trans": trans, "events": events}


def eos_growth_bound(system: dict, marking, steps: int) -> int:
    """Largest inner token count one token can carry after `steps` events."""
    total = sum(k for _, inner in marking for _, k in inner)
    gain = 0
    for _, _, theta in system["events"]:
        delta = sum(k * (sum(system["inner"]["trans"][u][1].values())
                         - sum(system["inner"]["trans"][u][0].values())) for u, k in theta.items())
        gain = max(gain, delta)
    return total + steps * gain


EOS_SLOTS = [
    ("pos", 0, 5.5, 40), ("neg", 0, 5.5, 35),
    ("pos", 6, 8, 30), ("neg", 6, 8, 30),
    ("pos", 9, 35, 25), ("neg", 9, 35, 20),
    ("pos-limit", 40, 55, 12), ("neg-limit", 40, 55, 14),
]


def build_eos(b: Builder) -> None:
    """Split systems with 2 or 3 outputs; one token of 4-8 inner tokens;
    depth 2-3.  Plus the one-state blow-up: i { a:12 b:12 } split three
    ways, covered at depth 1."""
    rng = b.rng

    def draw():
        system = split_system(rng, rng.randint(2, 3))
        size = rng.randint(4, 8)
        a = rng.randint(0, size)
        init = (ref.token("i", Counter({"a": a, "b": size - a})),)
        depth = rng.randint(2, 3)
        succ = lambda m: ref.eos_successors(system, m)
        target = weaken_marking(rng, random_walk(rng, succ, init, depth))
        negative = rng.random() < 0.4
        if negative:
            big = eos_growth_bound(system, init, depth) + 1
            target = tuple(sorted(target + (ref.token("o0", Counter({"a": big})),)))
        cost = ref.search_cost(succ, ref.eos_covers, init, target, depth, EOS_MAX_STATES)
        if cost["edges"] < 16 or (not negative and cost["depth"] == 0):
            return None
        kind = "neg" if negative else "pos"
        expect = {"covered": False} if negative else {"covered": True, "depth": cost["depth"]}
        if cost["outcome"] == "limit":
            kind += "-limit"
        latency = 1.11 + 0.0528 * cost["edges"] + 0.00448 * cost["states"] + 0.112 * cost["expanded"]
        return kind, latency, {
            "suffix": "eos", "text": eos_text(system, init),
            "args": ["cover", "--target", marking_text(target), "--depth", str(depth),
                     "--max-states", str(EOS_MAX_STATES)],
            "expect": expect, "stratum": kind,
            "effort": {**cost, "inner": size}}

    fill(b, EOS_SLOTS, draw)
    for _ in range(2):
        system = split_system(rng, 3)
        system["events"] = [("split", "split", {})]
        init = (ref.token("i", Counter({"a": 12, "b": 12})),)
        target = (ref.token("o2", Counter({"a": rng.randint(1, 12), "b": rng.randint(1, 12)})),)
        b.add("eos", eos_text(system, init),
              ["cover", "--target", marking_text(target), "--depth", "1", "--max-states", str(10 ** 5)],
              {"covered": True, "depth": 1}, "blowup")


BUILDERS = {
    "transfer": build_transfer,
    "lemma": build_lemma,
    "names": build_names,
    "eos": build_eos,
}
