"""Self-tests of the benchmark's output gate and tracer.

    PYTHONPATH=src python3 perfbench/selftest.py

Gate: for every workload, the stored reference passes its own gate, an
output inside the stated tolerance passes, and perturbed outputs fail.
Tracer: wrappers reach every module binding and are restored, nested calls
nest (adaptive_bh -> bh_stepup, oracle_lfdr_rule ->
region_from_lfdr_threshold -> lfdr), self times add up to the operation's
time, and ``check_invariants`` flags a broken span tree.
Prints one line per check and exits 1 if any fails.
"""

import copy
import sys
from pathlib import Path

import numpy as np

import lfdr_lab
from lfdr_lab import core_model, estimation, oracle, procedures, simulation

import tracing
import workloads

FAILURES = []


def expect(condition, what: str):
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        FAILURES.append(what)


def gate_replication(tmp):
    for name in ("replication_m5000", "replication_dependent"):
        w = workloads.build(name, tmp)
        key = w.pool[0]
        ref = w.expected(key)
        expect(w.check(key, copy.deepcopy(ref)) == [], f"{name}: reference passes")
        expect(w.check(key, w.perturb(ref)) != [], f"{name}: perturbed output fails")
        proc = next(iter(ref))
        if w.se_fraction is not None:
            inside = copy.deepcopy(ref)
            inside[proc]["mfnr"] += 0.9 * w.se_fraction * ref[proc]["mfnr_se"]
            expect(w.check(key, inside) == [], f"{name}: mfnr moved by 0.9 x tolerance passes")
            outside = copy.deepcopy(ref)
            outside[proc]["mfnr"] -= 1.1 * w.se_fraction * ref[proc]["mfnr_se"]
            expect(w.check(key, outside) != [], f"{name}: mfnr moved by 1.1 x tolerance fails")
        else:
            bad = copy.deepcopy(ref)
            bad[proc]["mean_rejections"] *= 1 + 1e-9
            expect(w.check(key, bad) != [], f"{name}: mean_rejections off by 1e-9 relative fails")
        missing = {k: v for k, v in ref.items() if k != proc}
        expect(w.check(key, missing) != [], f"{name}: a missing procedure fails")


def gate_analyze(tmp):
    w = workloads.build("analyze_1e5", tmp)
    key = w.pool[0]
    good = w.expected(key)
    lfdr, reject = good["lfdr_hat"], good["reject"]
    expect(w.check(key, good) == [], "analyze_1e5: reference passes")
    expect(w.check(key, w.perturb(good)) != [], "analyze_1e5: perturbed output fails")
    expect(w.check(key, {"rc": 4}) != [], "analyze_1e5: nonzero exit code fails")

    nudged = dict(good, lfdr_hat=np.clip(lfdr + 0.9e-3 * np.where(reject, -1, 1), 0, 1))
    expect(w.check(key, nudged) == [], "analyze_1e5: |d lfdr_hat| = 9e-4 passes")

    rejected = np.nonzero(reject)[0]
    rejected = rejected[np.argsort(-lfdr[rejected], kind="stable")]
    limit = int(w.max_flip_share * lfdr.size)
    for flips, passes in ((limit, True), (limit + 1, False)):
        r = reject.copy()
        r[rejected[:flips]] = False  # dropping the largest rejected lfdr_hat lowers the mean
        expect((w.check(key, dict(good, reject=r)) == []) == passes,
               f"analyze_1e5: {flips} flipped decisions {'pass' if passes else 'fail'}")

    raised = dict(good, lfdr_hat=np.where(reject, np.minimum(lfdr + 0.9e-3, 1.0), lfdr))
    if float(raised["lfdr_hat"][reject].mean()) > workloads.ALPHA:
        expect(any("mean lfdr_hat" in f for f in w.check(key, raised)),
               "analyze_1e5: rejected-set mean above alpha fails")


def gate_oracle(tmp):
    w = workloads.build("oracle_figures", tmp)
    for key in w.pool:
        ref = w.expected(key)
        expect(w.check(key, copy.deepcopy(ref)) == [], f"oracle_figures {key}: reference passes")
        expect(w.check(key, w.perturb(ref)) != [], f"oracle_figures {key}: perturbed output fails")
        inside = copy.deepcopy(ref)
        inside["rows"][-1][1] += 0.5 * w.abs_tol
        expect(w.check(key, inside) == [], f"oracle_figures {key}: mfnr moved by 5e-10 passes")
    ref = w.expected("2")
    ref["probes"][0][1] = not ref["probes"][0][1]
    expect(w.check("2", ref) != [], "oracle_figures 2: a flipped probe decision fails")


def bindings(fn):
    return [(name, attr) for name, mod in sys.modules.items()
            if name == "lfdr_lab" or name.startswith("lfdr_lab.")
            for attr, value in vars(mod).items() if value is fn]


def trace_real_calls():
    originals = [
        (module, attr, getattr(module, attr))
        for module in (lfdr_lab, lfdr_lab.cli, core_model, estimation, oracle, procedures, simulation)
        for attr in dir(module) if not attr.startswith("_")
    ]
    lfdr_fn = core_model.lfdr
    n_bindings = len(bindings(lfdr_fn))
    tracer = tracing.Tracer()
    p = np.linspace(1e-6, 1.0, 2000)
    with tracer.installed():
        expect(bindings(lfdr_fn) == [] and core_model.lfdr is oracle.lfdr
               and oracle.lfdr is simulation.lfdr and lfdr_lab.lfdr is simulation.lfdr,
               f"lfdr is wrapped at all {n_bindings} of its bindings with one wrapper")
        expect(lfdr_lab.cli.estimate_null_ecf is estimation.estimate_null_ecf
               and bindings(estimation.estimate_null_ecf.__wrapped__) == [],
               "cli's binding of estimate_null_ecf is wrapped")
        with tracer.op(0):
            procedures.adaptive_bh(p, 0.1, 0.8)
        with tracer.op(1):
            oracle.oracle_lfdr_rule(simulation.eq1_default_model(), 0.1)
    expect(all(getattr(module, attr) is value for module, attr, value in originals),
           "every binding is restored")

    spans = tracer.spans
    names = [s[tracing.NAME] for s in spans]
    adaptive = names.index("procedures.adaptive_bh")
    bh = names.index("procedures.bh_stepup")
    expect(spans[bh][tracing.PARENT] == adaptive, "bh_stepup nests under adaptive_bh")
    own = tracing.self_times(spans)
    dur = [s[tracing.END] - s[tracing.START] for s in spans]
    expect(own[adaptive] == dur[adaptive] - dur[bh], "adaptive_bh self time = duration - bh_stepup")
    expect(tracing.check_invariants(spans) == [], "real span tree satisfies the invariants")
    for op in (0, 1):
        root = next(i for i, s in enumerate(spans) if s[tracing.OP] == op and s[tracing.NAME] == "op")
        total = sum(t for s, t in zip(spans, own) if s[tracing.OP] == op)
        expect(total == dur[root], f"op {op}: self times sum to the op's time exactly")
    metrics = tracing.layer_metrics(spans, tracer.counts, 2, 1.0, 1.0)
    expect(metrics["oracle.region_scans_per_rule"] > 1, "region scans inside oracle_lfdr_rule are counted")
    expect(metrics["oracle.lfdr_points_per_rule"] > 0, "lfdr points inside oracle_lfdr_rule are counted")
    expect(0 <= metrics["trace.unattributed_share"] < 1, "unattributed share lies in [0, 1)")


def trace_broken_tree():
    good = [["op", 0, 100, -1, 0, 0], ["a", 10, 50, 0, 0, 0], ["b", 60, 90, 0, 0, 0]]
    expect(tracing.check_invariants(good) == [], "well-formed synthetic tree passes")
    expect(tracing.self_times(good) == [30, 40, 30], "synthetic self times")
    child_too_long = copy.deepcopy(good)
    child_too_long[2][tracing.END] = 120
    expect(tracing.check_invariants(child_too_long) != [], "a child outlasting its parent is flagged")
    overlap = copy.deepcopy(good)
    overlap[2][tracing.START] = 40
    expect(tracing.check_invariants(overlap) != [], "overlapping siblings are flagged")
    orphan = good + [["c", 95, 99, -1, None, 0]]
    expect(tracing.check_invariants(orphan) != [], "a span outside any operation is flagged")


def main() -> int:
    workdir = Path(".perfbench_out/selftest")  # never written: no operation runs
    gate_replication(workdir)
    gate_analyze(workdir)
    gate_oracle(workdir)
    trace_real_calls()
    trace_broken_tree()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
