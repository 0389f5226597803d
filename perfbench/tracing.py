"""Outside-in tracing of lfdr_lab.

``Tracer.install`` wraps every public function of the six library modules
at every place a module of the package binds it (``lfdr_lab.oracle.lfdr``,
``lfdr_lab.simulation.lfdr`` and ``lfdr_lab.core_model.lfdr`` all get the
same wrapper), so calls between modules and calls inside one module are
both seen.  Each call becomes a span ``[name, start_ns, end_ns, parent,
op, points]`` kept in memory; ``Tracer.op`` opens the root span of one
benchmark operation.  Nothing under ``src/`` changes, and ``uninstall``
puts every original binding back.

Span times are CPU time of the process (``time.process_time_ns``), the
clock the benchmark times operations with.  Self time is a span's duration
minus the time its child spans cover.
Spans nest on one stack (the benchmark pins the library to one thread), so
the children of a span never overlap and self times telescope: the self
times of all spans of an operation sum exactly, in integer nanoseconds, to
the root span's duration.  ``check_invariants`` verifies that.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from contextlib import contextmanager

PACKAGE = "lfdr_lab"
LAYERS = ("core_model", "estimation", "procedures", "oracle", "simulation", "cli")
ROOT = "op"

NAME, START, END, PARENT, OP, POINTS = range(6)

# Counts read from the result of a call: wrapped function -> (metric, count).
RESULT_COUNTS = {
    "estimation.estimate_marginal_kde":
        ("estimation.kde_kernel_evals", lambda r: r.data.size * r.grid.size),
    "oracle.oracle_sweep":
        ("oracle.infeasible_rows", lambda r: sum(row.error is not None for row in r)),
    "cli.decision_table_csv":
        ("cli.output_bytes", lambda r: len(r.encode("utf-8"))),
}


def public_functions(module) -> dict:
    """Functions a module defines and exports (``__all__``, else every
    name without a leading underscore)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out[name] = obj
    return out


def _lfdr_points(args, kwargs):
    z = kwargs["z"] if "z" in kwargs else args[1]
    return getattr(z, "size", 1)


class Tracer:
    """Span recorder; install wrappers, run operations under ``op``, then
    uninstall and read ``spans`` and ``counts``."""

    def __init__(self):
        self.spans = []
        self.counts = {metric: 0 for metric, _ in RESULT_COUNTS.values()}
        self._stack = []
        self._op = None
        self._patched = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.process_time_ns
        counter = RESULT_COUNTS.get(name)
        is_lfdr = name == "core_model.lfdr"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self._op,
                   _lfdr_points(args, kwargs) if is_lfdr else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result

        return traced

    def install(self):
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for fname, fn in public_functions(module).items():
                targets[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        restored = all(getattr(m, a) is v for m, a, v in self._patched)
        self._patched.clear()
        return restored

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            if not self.uninstall():
                raise RuntimeError("a traced binding was not restored")

    @contextmanager
    def op(self, op_id):
        """Root span of one benchmark operation."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        self._op = op_id
        rec = [ROOT, 0, 0, -1, op_id, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.process_time_ns()
        try:
            yield
        finally:
            rec[END] = time.process_time_ns()
            self._stack.pop()
            self._op = None


# -- analysis ---------------------------------------------------------------

def self_times(spans) -> list:
    """Duration of each span minus the time its children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def check_invariants(spans) -> list:
    """Problems with the span tree; an empty list means the trace accounts
    for every operation's time."""
    problems = []
    last_child_end = {}
    for i, s in enumerate(spans):
        if s[OP] is None:
            problems.append(f"span {i} ({s[NAME]}) ran outside any operation")
        p = s[PARENT]
        if p < 0:
            if s[NAME] != ROOT:
                problems.append(f"span {i} ({s[NAME]}) has no parent")
            continue
        parent = spans[p]
        if s[START] < parent[START] or s[END] > parent[END]:
            problems.append(f"span {i} ({s[NAME]}) exceeds its parent {p} ({parent[NAME]})")
        if s[OP] != parent[OP]:
            problems.append(f"span {i} ({s[NAME]}) belongs to another operation than its parent")
        if s[START] < last_child_end.get(p, parent[START]):
            problems.append(f"span {i} ({s[NAME]}) overlaps a sibling")
        last_child_end[p] = s[END]
    own = self_times(spans)
    per_op = {}
    for s, t in zip(spans, own):
        if t < 0:
            problems.append(f"{s[NAME]} has negative self time {t} ns")
        per_op[s[OP]] = per_op.get(s[OP], 0) + t
    for s in spans:
        if s[NAME] == ROOT and per_op.get(s[OP]) != s[END] - s[START]:
            problems.append(
                f"operation {s[OP]}: self times sum to {per_op.get(s[OP])} ns, "
                f"its time is {s[END] - s[START]} ns"
            )
    return problems


def function_table(spans, n_ops: int) -> dict:
    """Per wrapped function: calls, total and self milliseconds per op."""
    own = self_times(spans)
    table = {}
    for s, t in zip(spans, own):
        row = table.setdefault(s[NAME], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += (s[END] - s[START]) / 1e6
        row["self_ms"] += t / 1e6
    for row in table.values():
        for key in row:
            row[key] /= n_ops
    return table


def layer_metrics(spans, counts: dict, n_ops: int, untraced_s: float, traced_s: float) -> dict:
    """The per-layer metrics of the benchmark, as {name: value}.

    ``*.ms_p50`` is the median duration of one call, ``*.self_ms`` self
    time per operation, ``*.calls`` and ``*.points`` and the other counts
    are per operation; a function the workload never calls reads 0.
    """
    own = self_times(spans)
    durations = {}
    self_sum = {}
    for s, t in zip(spans, own):
        durations.setdefault(s[NAME], []).append(s[END] - s[START])
        self_sum[s[NAME]] = self_sum.get(s[NAME], 0) + t

    def p50_ms(name):
        d = durations.get(name)
        return statistics.median(d) / 1e6 if d else 0.0

    def self_ms(name):
        return self_sum.get(name, 0) / 1e6 / n_ops

    def share(name):
        total = sum(durations.get(name, ()))
        return self_sum.get(name, 0) / total if total else 0.0

    # nearest enclosing oracle_lfdr_rule of each span (parents precede children)
    rule = "oracle.oracle_lfdr_rule"
    enclosing = [-1] * len(spans)
    for i, s in enumerate(spans):
        enclosing[i] = i if s[NAME] == rule else (enclosing[s[PARENT]] if s[PARENT] >= 0 else -1)
    n_rules = len(durations.get(rule, ()))
    scans = sum(1 for s, e in zip(spans, enclosing)
                if e >= 0 and s[NAME] == "oracle.region_from_lfdr_threshold")
    rule_points = sum(s[POINTS] for s, e in zip(spans, enclosing)
                      if e >= 0 and s[NAME] == "core_model.lfdr")
    lfdr_spans = [s for s in spans if s[NAME] == "core_model.lfdr"]

    return {
        "simulation.sample_correlated.ms_p50": p50_ms("simulation.sample_correlated"),
        "simulation.run_replicated.self_share": share("simulation.run_replicated"),
        "core_model.lfdr.calls": len(lfdr_spans) / n_ops,
        "core_model.lfdr.points": sum(s[POINTS] for s in lfdr_spans) / n_ops,
        "core_model.lfdr.self_ms": self_ms("core_model.lfdr"),
        "core_model.two_sided_pvalue.self_ms": self_ms("core_model.two_sided_pvalue"),
        "estimation.estimate_null_ecf.ms_p50": p50_ms("estimation.estimate_null_ecf"),
        "estimation.estimate_marginal_kde.ms_p50": p50_ms("estimation.estimate_marginal_kde"),
        "estimation.kde_kernel_evals": counts["estimation.kde_kernel_evals"] / n_ops,
        "estimation.estimate_p0_tail.ms_p50": p50_ms("estimation.estimate_p0_tail"),
        "procedures.bh_stepup.ms_p50": p50_ms("procedures.bh_stepup"),
        "procedures.lfdr_stepup.ms_p50": p50_ms("procedures.lfdr_stepup"),
        "procedures.estimated_lfdr_values.ms_p50": p50_ms("procedures.estimated_lfdr_values"),
        "procedures.confusion.ms_p50": p50_ms("procedures.confusion"),
        "oracle.oracle_lfdr_rule.ms_p50": p50_ms(rule),
        "oracle.oracle_pvalue_rule.ms_p50": p50_ms("oracle.oracle_pvalue_rule"),
        "oracle.region_scans_per_rule": scans / n_rules if n_rules else 0.0,
        "oracle.lfdr_points_per_rule": rule_points / n_rules if n_rules else 0.0,
        "oracle.mfdr_of_region.calls": len(durations.get("oracle.mfdr_of_region", ())) / n_ops,
        "oracle.infeasible_rows": counts["oracle.infeasible_rows"] / n_ops,
        "cli.read_z_file.ms": p50_ms("cli.read_z_file"),
        "cli.decision_table_csv.ms": p50_ms("cli.decision_table_csv"),
        "cli.cmd_analyze.self_ms": self_ms("cli.cmd_analyze"),
        "cli.output_bytes": counts["cli.output_bytes"] / n_ops,
        "trace.unattributed_share": share(ROOT),
        "trace.overhead_ratio": traced_s / untraced_s,
    }
