"""One fresh benchmark process: import lfdr_lab, run one workload closed
loop (one client, operations back to back), gate every output, and write
the raw measurements as JSON for ``run.py``.

    python3 perfbench/worker.py --import-probe
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out FILE

``run.py`` starts it with ``src`` on PYTHONPATH and every thread count
pinned to 1.  Durations are CPU time of this process (``process_time``):
on a host whose virtual CPUs are shared, wall time also counts time the
hypervisor gives to other guests, which varies by a factor of two from
second to second.  Wall times are recorded beside them.  After each
untraced operation the worker runs ``speed_probe`` for a tenth of the
operation's time; run.py scales each operation by the probes just before
and after it to a reference host speed (see README.md).

With ``--trace 1`` each operation runs once untraced and once traced,
alternating which goes first.
"""

import time

_CPU0, _WALL0 = time.process_time(), time.perf_counter()
import lfdr_lab  # noqa: E402
import lfdr_lab.cli  # noqa: E402,F401

IMPORT_S = time.process_time() - _CPU0
IMPORT_WALL_S = time.perf_counter() - _WALL0

import argparse  # noqa: E402
import gzip  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


PROBE_X = np.random.default_rng(0).standard_normal(1_000_000)
PROBE_BUF = np.empty_like(PROBE_X)
PROBE_SHARE = 0.1
IMPORT_PROBE_REPEATS = 10


def speed_probe() -> float:
    """CPU seconds of a fixed kernel that mixes interpreted Python with
    vector math on arrays larger than the L2 cache, as the library does; it
    reads how fast the host runs now.  It allocates nothing, so the
    library's use of the heap cannot change its speed."""
    t0 = time.process_time_ns()
    s = 0
    for i in range(60_000):
        s += i * i
    np.multiply(PROBE_X, PROBE_X, out=PROBE_BUF)
    np.multiply(PROBE_BUF, -0.5, out=PROBE_BUF)
    np.exp(PROBE_BUF, out=PROBE_BUF)
    PROBE_BUF.sum()
    return (time.process_time_ns() - t0) / 1e9


def probe_after(seconds: float, probes: list):
    """Run the probe for PROBE_SHARE of an operation's time (at least once)."""
    spent = 0.0
    while spent == 0.0 or spent < PROBE_SHARE * seconds:
        probes.append(speed_probe())
        spent += probes[-1]


def run_op(workload, key, op_id, tracer=None) -> dict:
    """Build, time, collect and gate one operation."""
    fn = workload.op(key)
    failure = None
    wall0, cpu0 = time.perf_counter_ns(), time.process_time_ns()
    try:
        if tracer is None:
            raw = fn()
        else:
            with tracer.installed(), tracer.op(op_id):
                raw = fn()
    except Exception:
        failure = traceback.format_exc(limit=3)
    cpu, wall = time.process_time_ns() - cpu0, time.perf_counter_ns() - wall0
    record = {"key": key, "seconds": cpu / 1e9, "wall_seconds": wall / 1e9,
              "units": 0, "digest": None, "failures": []}
    if failure is None:
        try:
            out = workload.collect(key, raw)
            record["failures"] = workload.check(key, out)
        except Exception:
            failure = traceback.format_exc(limit=3)
    if failure is not None:
        record["failures"] = [failure]
    elif not record["failures"]:
        record["units"] = workload.units(out)
        record["digest"] = workload.digest(out)
        record["_out"] = out
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--import-probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.import_probe:
        probes = [speed_probe() for _ in range(IMPORT_PROBE_REPEATS)]
        print(json.dumps([IMPORT_S, IMPORT_WALL_S, probes]))
        return 0

    out_path = Path(args.out)
    workload = workloads.build(args.workload, out_path.parent / f"{args.workload}-work")
    keys = workloads.order(args.workload, args.seed, workload.pool)

    # Traced and untraced runs of the same operation alternate in order, so
    # trace.overhead_ratio compares like with like; one warm-up operation
    # absorbs first-call costs first.
    warmup = [run_op(workload, keys[0], -1)] if args.trace else []
    for record in warmup:
        record.pop("_out", None)
    tracer = tracing.Tracer() if args.trace else None
    ops, traced = [], []
    gate_selftest = None
    start = time.perf_counter()
    # Runs end where the next step would overrun --seconds; a step is one
    # operation, or one pass over the pool for a workload whose inputs
    # differ in cost, so that every run measures the same mix.
    step = len(keys) if workload.whole_cycles else 1
    step_began = start
    for op_id, key in enumerate(itertools.cycle(keys)):
        if tracer is None:
            modes = (None,)
        else:
            modes = (None, tracer) if op_id % 2 == 0 else (tracer, None)
        for mode in modes:
            record = run_op(workload, key, op_id, mode)
            (ops if mode is None else traced).append(record)
            out = record.pop("_out", None)
            if gate_selftest is None and out is not None:
                gate_selftest = bool(workload.check(key, workload.perturb(out)))
            if tracer is None:
                record["probe_s"] = []
                probe_after(record["seconds"], record["probe_s"])
        if (op_id + 1) % step == 0:
            now = time.perf_counter()
            if now - start + (now - step_began) > args.seconds:
                break
            step_began = now

    result = {
        "import_s": IMPORT_S,
        "import_wall_s": IMPORT_WALL_S,
        "describe": workload.describe(),
        "unit": workload.unit,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "lfdr_lab": lfdr_lab.__version__},
        "ops": ops,
        "warmup_ops": warmup,
        "traced_ops": traced,
        "gate_selftest": gate_selftest,
    }

    if args.trace:
        spans = tracer.spans
        n_ops = len(traced)
        result["trace"] = {
            "n_ops": n_ops,
            "n_spans": len(spans),
            "problems": tracing.check_invariants(spans)[:20],
            "metrics": tracing.layer_metrics(
                spans, tracer.counts, n_ops,
                untraced_s=sum(r["seconds"] for r in ops),
                traced_s=sum(r["seconds"] for r in traced),
            ),
            "functions": tracing.function_table(spans, n_ops),
        }
        names = sorted({s[tracing.NAME] for s in spans})
        index = {name: i for i, name in enumerate(names)}
        spans_path = out_path.with_suffix("").with_suffix(".spans.json.gz")
        with gzip.open(spans_path, "wt", compresslevel=1) as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "points"],
                       "names": names,
                       "spans": [[index[s[0]], *s[1:]] for s in spans]}, fh)
        result["trace"]["spans_file"] = str(spans_path)

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
