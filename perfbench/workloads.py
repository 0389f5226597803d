"""The benchmark's four workloads.

Each workload turns the workload seed into an order over a fixed pool of
input keys, builds one operation per key, and gates the operation's output
against the reference that ``make_reference.py`` stored in ``reference/``
for that key.  Operations call the library through module attributes
(``simulation.run_replicated``, ``cli.main``) so a traced run sees them.

Interface of a workload:
  pool                        input keys with a stored reference
  whole_cycles                whether a run ends only after a full pass over pool
  op(key) -> callable         the timed operation, built outside the timer
  collect(key, raw) -> out    the operation's output in checkable form
  units(out) -> int           work items the operation completed
  digest(out) -> str          sha256 of the output (recorded, never gating)
  expected(key) -> out        the stored reference, in the form of ``out``
  check(key, out) -> [str]    gate failures; empty means the output passes
  perturb(out) -> out         a copy the gate must reject (gate self-test)
  reference(out) -> entry     what ``make_reference.py`` stores for a key
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import random
from dataclasses import asdict
from pathlib import Path

import numpy as np

from lfdr_lab import cli, simulation

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
ALPHA = 0.10
M_STUDY = 5000
STUDY_POOL = tuple(20081000 + k for k in range(64))
ANALYZE_POOL = tuple(20082000 + k for k in range(4))
ANALYZE_M = 100_000
FIGURES = ("1a", "1b", "1c", "1d", "2")
# lfdr_hat references are stored as round(lfdr_hat * 65535) in uint16, so the
# stored value is within 7.7e-6 of the original.
LFDR_QUANT = 65535


def order(name: str, seed: int, pool) -> list:
    """The workload seed's permutation of the input pool (cycled by the
    runner); the same seed always gives the same inputs."""
    return random.Random(f"{name}:{seed}").sample(list(pool), len(pool))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _close(a, b, tol) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol


class Replication:
    """``run_replicated`` studies on the eq1 model at m = 5000; one study
    of ``reps`` replications per operation, with the study's master seed
    taken from ``STUDY_POOL``."""

    pool = STUDY_POOL
    unit = "replications"
    whole_cycles = False

    def __init__(self, name, rho, procedures, reps, se_fraction=None, rel_tol=None):
        self.name = name
        self.rho = rho
        self.procedures = procedures
        self.reps = reps
        self.se_fraction = se_fraction
        self.rel_tol = rel_tol
        self.model = simulation.eq1_default_model()
        self._ref = None

    def describe(self) -> str:
        return (f"run_replicated: eq1 model, m={M_STUDY}, reps={self.reps}, rho={self.rho}, "
                f"alpha={ALPHA}, procedures={list(self.procedures)}")

    def op(self, key):
        config = simulation.SimConfig(
            model=self.model, m=M_STUDY, reps=self.reps, alpha=ALPHA,
            seed=key, rho=self.rho, procedures=self.procedures,
        )
        return lambda: simulation.run_replicated(config)

    def collect(self, key, raw):
        return {proc: asdict(stats) for proc, stats in raw.per_procedure.items()}

    def units(self, out) -> int:
        return self.reps

    def digest(self, out) -> str:
        return _sha(json.dumps(out, sort_keys=True))

    def reference(self, out):
        return out

    def expected(self, key):
        if self._ref is None:
            self._ref = json.loads((REFERENCE_DIR / f"{self.name}.json").read_text())
        return copy.deepcopy(self._ref["outputs"][str(key)])

    def check(self, key, out) -> list:
        ref = self.expected(key)
        if sorted(out) != sorted(ref):
            return [f"procedures {sorted(out)} differ from reference {sorted(ref)}"]
        failures = []
        for proc, want in ref.items():
            got = out[proc]
            if self.se_fraction is not None:
                for rate, se in (("mfdr", "mfdr_se"), ("mfnr", "mfnr_se")):
                    tol = max(self.se_fraction * want[se], 1e-12)
                    if not abs(got[rate] - want[rate]) <= tol:
                        failures.append(f"{proc}.{rate} = {got[rate]!r}, reference {want[rate]!r} "
                                        f"+- {tol:.3g} ({self.se_fraction} SE)")
            else:
                for stat, value in want.items():
                    if not math.isclose(got[stat], value, rel_tol=self.rel_tol, abs_tol=0.0):
                        failures.append(f"{proc}.{stat} = {got[stat]!r}, reference {value!r}")
        return failures

    def perturb(self, out):
        bad = copy.deepcopy(out)
        stats = next(iter(bad.values()))
        stats["mfdr"] += max(stats["mfdr_se"], 1e-6)
        return bad


class Analyze:
    """In-process ``lfdr-lab analyze --procedure lfdr --null estimated`` on
    10^5 z-values drawn from the eq1 mixture with numpy (seed from
    ``ANALYZE_POOL``) and written to a text file outside the timer."""

    pool = ANALYZE_POOL
    unit = "z-values decided"
    whole_cycles = False
    max_abs_lfdr = 1e-3
    max_flip_share = 1e-3

    def __init__(self, workdir: Path):
        self.name = "analyze_1e5"
        self.workdir = Path(workdir)
        model = simulation.eq1_default_model()
        self._weights = np.array([w for w, _ in model.components])
        self._means = np.array([c.mean for _, c in model.components])
        self._sds = np.array([c.sd for _, c in model.components])
        self._written = set()
        self._ref = None

    def describe(self) -> str:
        return (f"lfdr_lab.cli.main(['analyze', <{ANALYZE_M} z-values>, '--procedure', 'lfdr', "
                f"'--null', 'estimated', '--out', <csv>])")

    def z_values(self, key) -> np.ndarray:
        rng = np.random.default_rng(key)
        comp = rng.choice(len(self._weights), size=ANALYZE_M, p=self._weights)
        return self._means[comp] + self._sds[comp] * rng.standard_normal(ANALYZE_M)

    def op(self, key):
        zpath = self.workdir / f"z_{key}.txt"
        if key not in self._written:
            self.workdir.mkdir(parents=True, exist_ok=True)
            zpath.write_text("\n".join(map(repr, self.z_values(key).tolist())) + "\n")
            self._written.add(key)
        self._out = self.workdir / "decisions.csv"
        self._out.unlink(missing_ok=True)
        argv = ["analyze", str(zpath), "--procedure", "lfdr", "--null", "estimated",
                "--out", str(self._out)]
        return lambda: cli.main(argv)

    def collect(self, key, raw):
        if raw != 0:
            return {"rc": raw}
        data = self._out.read_bytes()
        lines = data.decode("utf-8").splitlines()[1:]
        lfdr = np.array([float(ln.split(",")[3]) for ln in lines])
        reject = np.array([ln.endswith(",true") for ln in lines])
        return {"rc": 0, "sha256": hashlib.sha256(data).hexdigest(),
                "lfdr_hat": lfdr, "reject": reject}

    def units(self, out) -> int:
        return int(out["lfdr_hat"].size)

    def digest(self, out) -> str:
        return out.get("sha256", "")

    def reference(self, out):
        return {"lfdr_q": np.round(out["lfdr_hat"] * LFDR_QUANT).astype(np.uint16),
                "reject_bits": np.packbits(out["reject"])}

    def expected(self, key):
        if self._ref is None:
            self._ref = dict(np.load(REFERENCE_DIR / "analyze_1e5.npz"))
        lfdr = self._ref[f"lfdr_q_{key}"] / LFDR_QUANT
        reject = np.unpackbits(self._ref[f"reject_bits_{key}"])[:lfdr.size].astype(bool)
        return {"rc": 0, "lfdr_hat": lfdr, "reject": reject}

    def check(self, key, out) -> list:
        if out["rc"] != 0:
            return [f"analyze exited with code {out['rc']}"]
        ref = self.expected(key)
        want_lfdr, want_reject = ref["lfdr_hat"], ref["reject"]
        lfdr, reject = out["lfdr_hat"], out["reject"]
        if lfdr.size != want_lfdr.size:
            return [f"{lfdr.size} decisions, reference has {want_lfdr.size}"]
        failures = []
        worst = float(np.max(np.abs(lfdr - want_lfdr)))
        if not worst <= self.max_abs_lfdr:
            failures.append(f"max |d lfdr_hat| = {worst:.3g} > {self.max_abs_lfdr}")
        flips = int(np.sum(reject != want_reject))
        if flips > self.max_flip_share * lfdr.size:
            failures.append(f"{flips} flipped decisions > {self.max_flip_share:.1%} of m")
        if reject.any():
            mean_rejected = float(lfdr[reject].mean())
            if not mean_rejected <= ALPHA:
                failures.append(f"mean lfdr_hat of rejected set {mean_rejected:.4g} > alpha {ALPHA}")
        return failures

    def perturb(self, out):
        bad = dict(out, lfdr_hat=out["lfdr_hat"].copy())
        bad["lfdr_hat"][0] += 2 * self.max_abs_lfdr
        return bad


class OracleFigures:
    """Oracle figure data: ``figure1_data(p)`` for p in a-d and
    ``figure2_data()``; one dataset per operation."""

    pool = FIGURES
    unit = "sweep points"
    whole_cycles = True  # the datasets take 0.7 s to 1.0 s each
    abs_tol = 1e-9
    dominance_floor = -1e-6

    def __init__(self):
        self.name = "oracle_figures"
        self._ref = None

    def describe(self) -> str:
        return "figure1_data(p) for p in a..d and figure2_data(); one dataset per op"

    def op(self, key):
        if key == "2":
            return lambda: simulation.figure2_data()
        return lambda: simulation.figure1_data(key[1])

    @staticmethod
    def _num(x):
        return None if math.isnan(x) else x

    def collect(self, key, raw):
        rows = raw.curve if key == "2" else raw
        out = {"rows": [[r.sweep, self._num(r.mfnr_pvalue), self._num(r.mfnr_lfdr), r.error is not None]
                        for r in rows]}
        if key == "2":
            out["rules"] = {rule.kind: [rule.threshold, rule.mfdr, rule.mfnr]
                            for rule in (raw.pvalue_rule, raw.lfdr_rule)}
            out["probes"] = [[p.z, p.rejected_by_lfdr, p.rejected_by_pvalue] for p in raw.probes]
        return out

    def units(self, out) -> int:
        return len(out["rows"])

    def digest(self, out) -> str:
        return _sha(json.dumps(out, sort_keys=True))

    def reference(self, out):
        return out

    def expected(self, key):
        if self._ref is None:
            self._ref = json.loads((REFERENCE_DIR / "oracle_figures.json").read_text())
        return copy.deepcopy(self._ref["outputs"][key])

    def check(self, key, out) -> list:
        ref = self.expected(key)
        rows, want_rows = out["rows"], ref["rows"]
        if len(rows) != len(want_rows):
            return [f"{len(rows)} rows, reference has {len(want_rows)}"]
        failures = []
        for (sweep, mp, ml, err), (w_sweep, w_mp, w_ml, w_err) in zip(rows, want_rows):
            if sweep != w_sweep or err != w_err:
                failures.append(f"row {w_sweep}: sweep/infeasibility differs from reference")
            elif not (_close(mp, w_mp, self.abs_tol) and _close(ml, w_ml, self.abs_tol)):
                failures.append(f"row {w_sweep}: mfnr ({mp}, {ml}) vs reference ({w_mp}, {w_ml})")
            elif mp is not None and not mp - ml >= self.dominance_floor:
                failures.append(f"row {w_sweep}: lfdr rule mFNR exceeds p-value rule's by {ml - mp:.3g}")
        if key == "2":
            for kind, want in ref["rules"].items():
                got = out["rules"][kind]
                if not all(_close(g, w, self.abs_tol) for g, w in zip(got, want)):
                    failures.append(f"{kind} rule {got} vs reference {want}")
            if out["probes"] != ref["probes"]:
                failures.append(f"probe decisions {out['probes']} vs reference {ref['probes']}")
        return failures

    def perturb(self, out):
        bad = copy.deepcopy(out)
        row = bad["rows"][0]
        row[2] = (row[2] or 0.0) + 10 * self.abs_tol
        return bad


def build(name: str, workdir: Path):
    if name == "replication_m5000":
        return Replication(name, rho=0.0, procedures=("lfdr_estimated",), reps=4, se_fraction=0.5)
    if name == "replication_dependent":
        return Replication(name, rho=0.5, procedures=("bh", "adaptive_bh", "lfdr_oracle_plugin"),
                           reps=20, rel_tol=1e-12)
    if name == "analyze_1e5":
        return Analyze(workdir)
    if name == "oracle_figures":
        return OracleFigures()
    raise ValueError(f"unknown workload {name!r}")
