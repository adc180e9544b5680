"""Compiling a name net into an object system, and checking that the
compilation behaves.

The compiled system keeps one control token: selecting a transition locks
it, a chain of picks chooses the names the variables bind to, the fires
apply the per-name updates, and a final done step releases the control
token.  One source step becomes a fixed-length run of the compiled
system, so depth budgets scale by the longest run length.

Run with:  python3 demos/04_compile_and_verify.py
"""

from nestnets import (
    Multiset,
    NuNet,
    check_simulation,
    check_transfer,
    cover_nunet,
    cover_object_system,
    decode_config,
    encode_config,
    max_run_length,
    minimal_runs,
    name_table_tsv,
    nu_config,
    reduce_nunet,
)

net = NuNet(
    name="d0",
    places=("p", "q"),
    transitions=("t1",),
    standard_vars=("x",),
    fresh_vars=("nu",),
    inflow={"t1": {"p": Multiset(["x"])}},
    outflow={"t1": {"q": Multiset(["x"]), "p": Multiset(["nu"])}},
)

red = reduce_nunet(net)
print("compiled places     :", list(red.system.system.places))
print("events              :", [e.name for e in red.system.events])
print("run length of t1    :", max_run_length(net))
print("type-conserving     :", red.system.is_conservative())
print()
print("generated id table:")
print(name_table_tsv(red))

# Configurations encode as nested markings: one sim token per name, inner
# marking counting its place occurrences, plus the control token.
init = nu_config(net, [(1, 0)])
enc = encode_config(net, init)
print("encode:", enc)
print("decode:", decode_config(net, enc))
print()

# Every way the source can make one step must match every complete
# gadget run of the compiled system, endpoint for endpoint.
report = check_simulation(net, init)
print("one-step check:", "pass" if report.passed else "FAIL")
print("  source successors :", [str(c) for c in report.s1])
print("  decoded run ends  :", [str(c) for c in report.s2])
print("  runs found        :", report.run_count, "(interleavings count separately)")
# check_simulation counts the runs over distinct markings; listing them
# one by one must find as many.
runs = minimal_runs(red, enc, max_run_length(net))
assert len(runs) == report.run_count, (len(runs), report.run_count)
for seq, _ in runs:
    print("   ", " -> ".join(mode.event.name for mode in seq))
print()

# Coverability transfers: target coverable at source depth k iff the
# encoded target is coverable with k complete runs of budget.
target = nu_config(net, [(0, 1)])
k = 1
budget = k * max_run_length(net)
src = cover_nunet(net, init, target, k)
cmp_ = cover_object_system(red.system, enc, encode_config(net, target), budget)
print(f"source covers {target} at depth {k}: {src.covered}")
print(f"compiled covers the encoding within budget {budget}: {cmp_.covered}"
      f" (witness length {len(cmp_.witness)})")
print("agree:", check_transfer(net, init, target, k).agree)
print()

# The budget is tight in one direction only.  A cheap creator transition
# (short run) can outpace an expensive one inside the same budget, so a
# target that needs k+1 source steps may still fall inside k * L compiled
# steps.  Coverable-within-k and not-coverable-within-k*L both transfer;
# the band in between does not.
gap = NuNet(
    "gap", ("p", "q"), ("tf", "tb"),
    standard_vars=("x", "y"),
    fresh_vars=("nu",),
    inflow={"tb": {"p": Multiset(["x", "y"])}},
    outflow={
        "tf": {"p": Multiset(["nu"])},
        "tb": {"p": Multiset(["x", "y"]), "q": Multiset(["nu"])},
    },
)
two_names = nu_config(gap, [(1, 0), (1, 0)])
rep = check_transfer(gap, Multiset(), two_names, 1)
print("gap net, depth 1   :", f"source {rep.source.covered}, compiled {rep.compiled.covered},",
      f"agree {rep.agree}")
rep = check_transfer(gap, Multiset(), two_names, 2)
print("gap net, depth 2   :", f"source {rep.source.covered}, compiled {rep.compiled.covered},",
      f"agree {rep.agree}")
