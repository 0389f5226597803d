"""Run one lfdr_lab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/lfdr_lab``.  The workload
runs in a fresh process (``worker.py``) with ``src`` on PYTHONPATH and
LFDR_LAB_THREADS and every BLAS/OpenMP thread count pinned to 1; set-up
time is the median over that process and ``IMPORT_PROBES`` more fresh
processes that only import the library.  Times are CPU time of the
single-threaded worker, scaled to a reference host speed measured by a
probe the worker runs between operations (see README.md for why); the
report also prints the unscaled CPU and wall-clock figures.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` its per-layer metrics.
The report goes to standard output, the last line being one JSON object;
a run record (machine, versions, seed, output digests, all timings) is
written to ``.perfbench_out/``.  Workloads, metrics and the predictions
they test are described in ``perfbench/README.md``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
IMPORT_PROBES = 5
# Speed-probe CPU time that defines the reference host speed: about what the
# probe takes on the 2-vCPU Xeon virtual machine the benchmark was defined on.
REFERENCE_PROBE_S = 0.007
WORKER_TIMEOUT_S = 150
THREAD_ENV = {
    "LFDR_LAB_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args: list, timeout: float) -> str:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {timeout} s: {' '.join(args)}")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc.stdout


def tail_percentile(latencies: list):
    """Highest whole percentile (nearest rank) with at least ten samples
    beyond it, as (percentile, value, samples beyond); None if too few."""
    xs = sorted(latencies)
    n = len(xs)
    for q in range(99, 49, -1):
        rank = math.ceil(q * n / 100)
        if rank >= 1 and n - rank >= 10:
            return q, xs[rank - 1], n - rank
    return None


def machine() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                     text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"git_sha": git_sha, "src_sha256": src.hexdigest(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "thread_env": THREAD_ENV}


def end_to_end(raw: dict, import_probes: list) -> tuple:
    """End-to-end metrics.  Durations are CPU seconds scaled to the
    reference host speed: an operation by REFERENCE_PROBE_S / (median of the
    speed probes run just before and just after it), an import by the
    probes of its own process."""
    ops = raw["ops"]
    cpu = [r["seconds"] for r in ops]
    walls = [r["wall_seconds"] for r in ops]
    near = [(ops[i - 1]["probe_s"] if i else []) + r["probe_s"] for i, r in enumerate(ops)]
    scaled = [c * REFERENCE_PROBE_S / statistics.median(p) for c, p in zip(cpu, near)]
    probes = [p for r in ops for p in r["probe_s"]]
    scale = REFERENCE_PROBE_S / statistics.median(probes)
    units = sum(r["units"] for r in ops)
    setup = [c * REFERENCE_PROBE_S / statistics.median(p) for c, _, p in import_probes]
    setup.append(raw["import_s"] * scale)
    setup_cpu = [c for c, _, _ in import_probes] + [raw["import_s"]]
    setup_wall = [w for _, w, _ in import_probes] + [raw["import_wall_s"]]
    metrics = {
        "setup_s": statistics.median(setup),
        "throughput_per_s": units / sum(scaled),
        "op_p50_s": statistics.median(scaled),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    tail = tail_percentile(scaled)
    lines = [
        f"op: {raw['describe']}",
        f"setup_s          {metrics['setup_s']:.4f} s   median of {len(setup)} fresh imports "
        f"of lfdr_lab + lfdr_lab.cli",
        f"throughput_per_s {metrics['throughput_per_s']:.6g} 1/s  {raw['unit']}/s "
        f"({units} in {sum(scaled):.3f} s of operations)",
        f"op_p50_s         {metrics['op_p50_s']:.4f} s   n={len(scaled)} operations",
        (f"op_tail_s        {tail[1]:.4f} s   p{tail[0]}, n={len(scaled)}, {tail[2]} beyond"
         if tail else
         f"op_tail_s        omitted: n={len(scaled)} operations, no percentile >= p50 "
         f"has 10 samples beyond it"),
        f"peak_rss_mb      {metrics['peak_rss_mb']:.1f} MB  one fresh process",
        f"host speed: speed probe median {statistics.median(probes) * 1e3:.3f} ms over "
        f"{len(probes)} probes (reference {REFERENCE_PROBE_S * 1e3:g} ms); CPU time of all "
        f"operations scaled by {sum(scaled) / sum(cpu):.4f}",
        f"unscaled CPU: op p50 {statistics.median(cpu):.4f} s, throughput "
        f"{units / sum(cpu):.6g} 1/s, import p50 {statistics.median(setup_cpu):.4f} s",
        f"wall clock:   op p50 {statistics.median(walls):.4f} s, throughput "
        f"{units / sum(walls):.6g} 1/s, import p50 {statistics.median(setup_wall):.4f} s; "
        f"CPU share of wall {sum(cpu) / sum(walls):.3f}",
    ]
    return metrics, lines


def per_layer(raw: dict) -> tuple:
    trace = raw["trace"]
    metrics = dict(trace["metrics"])
    lines = [f"traced {trace['n_ops']} operations, {trace['n_spans']} spans "
             f"(written to {trace['spans_file']})"]
    for name, value in metrics.items():
        lines.append(f"  {name:42s} {value:.6g}")
    lines.append("  self time per op by function (ms): self / total, calls")
    table = sorted(trace["functions"].items(), key=lambda kv: -kv[1]["self_ms"])
    for name, row in table:
        lines.append(f"    {name:40s} {row['self_ms']:10.3f} / {row['total_ms']:10.3f}  "
                     f"{row['calls']:g}")
    if trace["problems"]:
        lines.append("trace invariants FAILED:")
        lines.extend(f"  {p}" for p in trace["problems"])
    else:
        lines.append("trace invariants hold: children inside parents, self times sum "
                     "to each op's time")
    return metrics, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "lfdr_lab" / "__init__.py").is_file():
            raise BenchError(f"no lfdr_lab sources under {ROOT / 'src'}")
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        raw_path = OUT_DIR / f"{stem}.raw.json"
        raw_path.unlink(missing_ok=True)

        probes = [json.loads(run_worker(["--import-probe"], 60)) for _ in range(IMPORT_PROBES)]
        run_worker(["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--out", str(raw_path)], WORKER_TIMEOUT_S)
        raw = json.loads(raw_path.read_text())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    ops = raw["ops"] + raw["warmup_ops"] + raw["traced_ops"]
    failed = [r for r in ops if r["failures"]]
    if args.trace:
        metrics, lines = per_layer(raw)
        wanted = spec["per_layer"]
    else:
        metrics, lines = end_to_end(raw, probes)
        wanted = spec["end_to_end"]
    trace_ok = not raw.get("trace", {}).get("problems")
    correct = not failed and raw["gate_selftest"] is True and trace_ok

    digests = {}
    for r in ops:
        if r["digest"]:
            digests.setdefault(str(r["key"]), r["digest"])
    reference = json.loads((BENCH_DIR / "reference" / f"{args.workload}.json").read_text())
    same = sum(1 for k, d in digests.items() if reference["digests"].get(k) == d)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  closed loop, 1 client")
    for line in lines:
        print(line)
    print(f"ops_failed / ops_attempted  {len(failed)} / {len(ops)}")
    for r in failed[:5]:
        print(f"  failed op on input {r['key']}: {r['failures'][0].strip()[:300]}")
    print(f"gate self-test: perturbed output counted as failed: {raw['gate_selftest']}")
    print(f"output digests: {len(digests)} distinct inputs, {same} byte-identical to reference")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "versions": raw["versions"],
        "import_probes": probes, "import_s": raw["import_s"], "import_wall_s": raw["import_wall_s"],
        "speed_probe_s": [r.get("probe_s", []) for r in raw["ops"]], "metrics": metrics,
        "ops_attempted": len(ops), "ops_failed": len(failed), "gate_selftest": raw["gate_selftest"],
        "output_digests": digests, "digests_identical_to_reference": same,
        "op_seconds": [r["seconds"] for r in raw["ops"]],
        "op_wall_seconds": [r["wall_seconds"] for r in raw["ops"]],
        "failures": [{"key": r["key"], "failures": r["failures"]} for r in failed],
    }
    if args.trace:
        record["trace"] = raw["trace"]
    record_path = OUT_DIR / f"{stem}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"run record: {record_path.relative_to(ROOT)}")

    result = {
        "correct": bool(correct),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
