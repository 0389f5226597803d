"""Write the reference outputs the benchmark gates against.

    PYTHONPATH=src LFDR_LAB_THREADS=1 python3 perfbench/make_reference.py

Runs every key of every workload's input pool once, untimed, and stores
the outputs under ``perfbench/reference/``.  The references belong to the
commit that defined the benchmark; a change that claims a speed-up is
gated against them and does not rewrite them.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import workloads

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def main() -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        for name in [w["name"] for w in json.loads(BENCHMARK.read_text())["workloads"]]:
            workload = workloads.build(name, Path(tmp))
            entries, digests = {}, {}
            for key in workload.pool:
                out = workload.collect(key, workload.op(key)())
                entries[str(key)] = workload.reference(out)
                digests[str(key)] = workload.digest(out)
                print(name, key, digests[str(key)][:16], flush=True)
            if name == "analyze_1e5":
                arrays = {}
                for key, entry in entries.items():
                    arrays[f"lfdr_q_{key}"] = entry["lfdr_q"]
                    arrays[f"reject_bits_{key}"] = entry["reject_bits"]
                np.savez_compressed(workloads.REFERENCE_DIR / f"{name}.npz", **arrays)
                entries = None
            doc = {"workload": name, "describe": workload.describe(), "digests": digests}
            if entries is not None:
                doc["outputs"] = entries
            path = workloads.REFERENCE_DIR / f"{name}.json"
            path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
