"""Command-line interface.

Subcommands: ``analyze`` (multiple testing on a z-value file), ``oracle``
(exact threshold report for a known mixture), ``simulate`` (replication
studies and figure data from a JSON config), ``estimate-null`` (ECF null
diagnostics) and ``replay`` (re-run a recorded manifest).

Exit codes: 0 success, 2 input/config error, 3 insufficient data, 4
invalid/infeasible parameters, 5 estimator degeneracy.

A command computes all of its output first, then writes its files and last
a JSON manifest that records them; replaying the manifest reproduces the
outputs byte-for-byte.  Output directories are created.  A path that cannot
be written exits 2 naming it, and the files the run already wrote are
removed.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import io
import json
import sys
from dataclasses import astuple
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .core_model import GaussianComponent, TwoGroupModel, mixture_model
from .errors import (
    DegenerateCF,
    DegenerateData,
    DegenerateMarginal,
    FullRegion,
    Infeasible,
    LengthMismatch,
    LfdrLabError,
    NotEnoughData,
)
from .estimation import estimate_null_ecf
from .procedures import DecisionTable, decide

# oracle and simulation import scipy.special: the commands that need them
# import them when they run, so that analyze under an estimated null and
# estimate-null never load scipy
if TYPE_CHECKING:
    from .oracle import OracleRule
    from .simulation import SimConfig

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DATA = 3
EXIT_PARAMS = 4
EXIT_DEGENERATE = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _fmt6(x: float) -> str:
    """Reports print 6 significant digits; CSV keeps full precision."""
    return f"{x:.6g}"


def read_z_file(path: str) -> np.ndarray:
    """Read z-values: plain text one-per-line or CSV with a ``z`` column.

    UTF-8, with or without a byte-order mark; blank lines and lines
    starting with ``#`` are ignored, and every other line is read as
    ``float()`` reads it.  A nan or inf value is an input error naming its
    line.  A file of one JSON number per line and nothing else is parsed in
    one orjson call, to the same bits.
    """
    try:
        raw = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot read {path}: {exc}")
    if not raw.translate(None, b"0123456789+-.eE\r\n"):
        import orjson  # loaded on first use, so that importing the CLI stays cheap

        try:  # orjson refuses a blank line, +1.5 and 1e400: such files are read line by line
            values = orjson.loads(b"[%b]" % raw.rstrip(b"\r\n").replace(b"\n", b","))
        except orjson.JSONDecodeError:
            pass
        else:
            z = np.fromiter(values, float, count=len(values))
            zeros = np.flatnonzero(z == 0.0).tolist()
            if zeros:  # JSON reads -0 as the integer 0; float() keeps the sign
                lines = raw.split(b"\n")
                z[zeros] = [float(lines[i]) for i in zeros]
            if z.size and np.isfinite(z).all():
                return z
    try:
        text = raw.decode("utf-8")  # the BOM is gone, as utf-8-sig would drop it
    except UnicodeDecodeError as exc:
        raise CliError(EXIT_INPUT, f"cannot read {path}: {exc}")
    lines = list(filter(None, map(str.strip, text.splitlines())))
    if "#" in text:
        lines = [ln for ln in lines if not ln.startswith("#")]
    if not lines:
        raise CliError(EXIT_INPUT, f"{path}: no data lines")
    try:
        z = np.array(lines, dtype=float)  # float() on each line, in C
        header = 0
    except ValueError:
        reader = csv.DictReader(io.StringIO("\n".join(lines)))
        if reader.fieldnames is None or "z" not in reader.fieldnames:
            raise CliError(EXIT_INPUT, f"{path}: expected one z per line or a 'z' CSV column")
        try:
            z = np.array([float(row["z"]) for row in reader])
        except (ValueError, TypeError) as exc:
            raise CliError(EXIT_INPUT, f"{path}: malformed z column ({exc})")
        if not z.size:
            raise CliError(EXIT_INPUT, f"{path}: no data lines")
        header = 1
    bad = np.flatnonzero(~np.isfinite(z))
    if bad.size:
        data_lines = [
            n
            for n, ln in enumerate(text.splitlines(), start=1)
            if ln.strip() and not ln.strip().startswith("#")
        ]
        line = data_lines[header + int(bad[0])]
        raise CliError(EXIT_INPUT, f"{path}:{line}: non-finite z value {float(z[bad[0]])!r}")
    return z


def parse_components(spec: str) -> list:
    """Parse "w:mean:sd,w:mean:sd,..." into (w, mean, sd) triples."""
    out = []
    for part in spec.split(","):
        fields = part.strip().split(":")
        if len(fields) != 3:
            raise CliError(EXIT_INPUT, f"bad component {part!r}; expected w:mean:sd")
        try:
            out.append(tuple(float(x) for x in fields))
        except ValueError:
            raise CliError(EXIT_INPUT, f"bad component {part!r}; expected numbers")
    return out


def _build_model(p0: float, components: list) -> TwoGroupModel:
    total = p0 + sum(w for w, _, _ in components)
    if not abs(total - 1.0) <= 1e-9:  # true on nan
        raise CliError(EXIT_PARAMS, f"weights sum to {total!r}, must be 1 within 1e-9")
    # nudge p0 so the model invariant (1e-12) holds exactly; a model the
    # library refuses raises InvalidModel, which main reports with exit 4
    return mixture_model(1.0 - sum(w for w, _, _ in components), components)


def _csv(header: str, rows) -> str:
    """``header`` and one line per row of cells; str writes a float as its
    repr, the shortest text that reads back to it."""
    return "".join(f"{line}\n" for line in [header, *(",".join(map(str, row)) for row in rows)])


# rows per chunk of a decision CSV: each chunk's cells are formatted and
# joined on their own, so at most this many row strings exist at once
_CSV_CHUNK = 8192


def _cells(values: np.ndarray) -> list:
    """The CSV cells of a contiguous int64 or float64 array: ``str`` of each
    int and ``repr`` of each float, the shortest text that reads back to it."""
    import orjson  # loaded on first use, so that importing the CLI stays cheap

    cells = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    if values.dtype.kind == "f":
        # orjson prints repr's shortest round-trip digits, but lays them out
        # otherwise below 1e-4 (0.00005 for 5e-05), from 1e16 up (1e16 for
        # 1e+16), and at nan and inf (null); repr writes those cells
        mag = np.abs(values)
        for i in np.flatnonzero(~((mag >= 1e-4) & (mag < 1e16))).tolist():
            cells[i] = repr(float(values[i]))
    return cells


def decision_table_csv(z, table: DecisionTable) -> str:
    """``index,z,pvalue,lfdr_hat,reject`` rows in input order, floats at
    full precision; the column of the statistic the rule did not rank is
    blank."""
    m = table.rejected.size
    if len(z) != m:
        raise LengthMismatch(f"{len(z)} z-values for {m} decisions")
    columns = [np.asarray(z, dtype=float), table.pvalue, table.lfdr_hat]
    chunks = ["index,z,pvalue,lfdr_hat,reject\n"]
    for lo in range(0, m, _CSV_CHUNK):
        hi = min(lo + _CSV_CHUNK, m)
        cells = [_cells(np.arange(lo, hi))]
        cells += [[""] * (hi - lo) if col is None else
                  _cells(np.ascontiguousarray(col[lo:hi], dtype=float)) for col in columns]
        cells.append(np.where(table.rejected[lo:hi], "true\n", "false\n").tolist())
        chunks.append("".join(map(",".join, zip(*cells))))
    return "".join(chunks)


def _write(path, text: str):
    """Write ``text`` to ``path``, creating its directory; a path that
    cannot be written is an input error naming it."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text)
    except FileExistsError as exc:  # mkdir's report of a regular file on the path
        raise CliError(EXIT_INPUT, f"cannot write {path}: {exc.filename} is not a directory")
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot write {path}: {exc}")


def _finish(command: str, manifest, files: dict, parameters: dict, inputs: list, seed=None):
    """Write ``files`` ({path: text}, in order), then the manifest that
    records them at ``manifest``: by default beside the first file, else
    ``<command>_manifest.json``.  A failed write removes every file this
    run wrote.  ``simulate`` calls this itself; the other commands call it
    through ``_record``, from the ``_RECORDED`` table."""
    record = {"command": command, "inputs": inputs, "outputs": list(files),
              "parameters": parameters, "seed": seed, "tool_version": __version__}
    if manifest is None:
        manifest = (f"{next(iter(files))}.manifest.json" if files
                    else f"{command.replace('-', '_')}_manifest.json")
    files = {**files, manifest: json.dumps(record, indent=2, sort_keys=True) + "\n"}
    written = []
    try:
        for path, text in files.items():
            _write(path, text)
            written.append(path)
    except CliError:
        for path in written:
            Path(path).unlink(missing_ok=True)
        raise


# what analyze, oracle and estimate-null record in their manifests, and so
# what replay passes back to them: whether the command reads an input file,
# the options it records under "parameters", and the flag of its output file
_RECORDED = {
    "analyze": (True, ("alpha", "procedure", "null"), "--out"),
    "oracle": (False, ("p0", "components", "alpha"), "--csv"),
    "estimate-null": (True, (), None),
}


def _record(args, files: dict):
    """Write ``files`` and the manifest of ``args.command``, recording the
    input file and the options that ``_RECORDED`` names for it."""
    reads, options, _ = _RECORDED[args.command]
    _finish(args.command, args.manifest, files, {key: getattr(args, key) for key in options},
            [args.input] if reads else [])


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

# the CLI's --procedure names for decide's procedures
_ANALYZE_PROCEDURES = {"bh": "bh", "abh": "adaptive_bh", "lfdr": "lfdr"}


def cmd_analyze(args) -> int:
    z = read_z_file(args.input)
    null = GaussianComponent(0.0, 1.0) if args.null == "theoretical" else None
    procedure = _ANALYZE_PROCEDURES[args.procedure]
    text = decision_table_csv(z, decide(z, (procedure,), args.alpha, null)[procedure])
    _record(args, {args.out: text} if args.out else {})
    if not args.out:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def _region_text(rule: OracleRule) -> str:
    parts = [f"[{_fmt6(lo)}, {_fmt6(hi)}]" for lo, hi in rule.region.intervals]
    return " u ".join(parts) if parts else "(empty)"


def _rule_report(name: str, rule: OracleRule | LfdrLabError) -> str:
    """``rule``'s threshold, region and rates, or the reason it has none."""
    if isinstance(rule, LfdrLabError):
        return f"{name}\n  infeasible: {rule}\n"
    return (
        f"{name}\n"
        f"  threshold = {_fmt6(rule.threshold)}\n"
        f"  region    = {_region_text(rule)}\n"
        f"  mFDR      = {_fmt6(rule.mfdr)}\n"
        f"  mFNR      = {_fmt6(rule.mfnr)}\n"
    )


def cmd_oracle(args) -> int:
    from .oracle import oracle_lfdr_rule, oracle_pvalue_rule

    components = parse_components(args.components) if args.components else []
    model = _build_model(args.p0, components)
    rules = {}  # each rule, or the Infeasible or FullRegion that says why there is none
    for kind, solver in (("pvalue", oracle_pvalue_rule), ("lfdr", oracle_lfdr_rule)):
        try:
            rules[kind] = solver(model, args.alpha)
        except (Infeasible, FullRegion) as exc:
            rules[kind] = exc

    report = io.StringIO()
    report.write(f"two-group model: p0 = {_fmt6(model.p0)}, null = N({_fmt6(model.null.mean)}, {_fmt6(model.null.sd)}^2)\n")
    for w, c in model.nonnull:
        report.write(f"  nonnull: w = {_fmt6(w)}, N({_fmt6(c.mean)}, {_fmt6(c.sd)}^2)\n")
    report.write(f"target mFDR = {_fmt6(args.alpha)}\n\n")
    report.write(_rule_report("p-value oracle rule", rules["pvalue"]))
    report.write(_rule_report("lfdr oracle rule", rules["lfdr"]))

    files = {}
    if args.csv:
        rows = [(kind, "", "", "", "infeasible") if isinstance(rule, LfdrLabError) else
                (kind, rule.threshold, rule.mfdr, rule.mfnr,
                 ";".join(f"{lo!r}:{hi!r}" for lo, hi in rule.region.intervals))
                for kind, rule in rules.items()]
        files[args.csv] = _csv("kind,threshold,mfdr,mfnr,region", rows)
    _record(args, files)
    sys.stdout.write(report.getvalue())
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _figure2_report(fig) -> str:
    buf = io.StringIO()
    buf.write("asymmetric-mixture oracle comparison (nonnull means -3 and 4, p1 = 0.15)\n\n")
    buf.write(_rule_report("p-value oracle rule", fig.pvalue_rule))
    buf.write(_rule_report("lfdr oracle rule", fig.lfdr_rule))
    buf.write("\nprobes:\n")
    for pp in fig.probes:
        buf.write(
            f"  z = {_fmt6(pp.z)}: p-value = {_fmt6(pp.pvalue)}, lfdr = {_fmt6(pp.lfdr)}, "
            f"rejected by lfdr rule: {pp.rejected_by_lfdr}, "
            f"rejected by p-value rule: {pp.rejected_by_pvalue}\n"
        )
    return buf.getvalue()


def _concentrated_report(demo) -> str:
    return (
        "concentrated-alternative demo (nonnull N(1.5, 0.1^2))\n"
        f"  hypotheses: {demo.m}, top set size: {demo.top}\n"
        f"  nonnull fraction among smallest p-values: {_fmt6(demo.capture_by_pvalue)}\n"
        f"  nonnull fraction among smallest lfdr:     {_fmt6(demo.capture_by_lfdr)}\n"
        f"  exact lfdr at z = 1.5: {_fmt6(demo.lfdr_at_mode)}\n"
        f"  exact lfdr at z = 4.0: {_fmt6(demo.lfdr_at_far_tail)}\n"
    )


# a replication study's required keys, and every key its config may hold
_STUDY_KEYS = {"p0", "components", "m", "reps", "alpha", "seed"}
_SIM_KEYS = _STUDY_KEYS | {"rho", "procedures"}
# the values of a figure config's only key, "figure"
_FIGURES = ("1a", "1b", "1c", "1d", "2", "concentrated")


def _number(key: str, value) -> float:
    """``value`` as a float; float() would also read a string such as
    "0.1" and a boolean, which JSON holds apart from numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CliError(EXIT_INPUT, f"{key} must be a number, got {value!r}")
    return float(value)


def _parse_sim_config(cfg: dict) -> SimConfig:
    """The study that ``cfg`` sets out.  Only what JSON leaves open is read
    here: the two forms of ``components``, ``p0`` and each component entry
    as numbers, and a whole-number float count such as 100.0 as an int.
    SimConfig checks every other setting."""
    from .simulation import PROCEDURES, SimConfig

    missing = _STUDY_KEYS - set(cfg)
    if missing:
        raise CliError(EXIT_INPUT, f"config missing keys: {sorted(missing)}")
    comps = cfg["components"]
    if isinstance(comps, str):
        comps = parse_components(comps)
    elif isinstance(comps, list) and all(isinstance(c, list) and len(c) == 3 for c in comps):
        comps = [tuple(_number("each entry of components", x) for x in c) for c in comps]
    else:
        raise CliError(EXIT_INPUT, "components must be [[w, mean, sd], ...] or 'w:mean:sd,...'")
    model = _build_model(_number("p0", cfg["p0"]), comps)
    counts = {key: int(cfg[key]) if isinstance(cfg[key], float) and cfg[key].is_integer() else cfg[key]
              for key in ("m", "reps", "seed")}
    try:
        return SimConfig(model=model, alpha=cfg["alpha"], rho=cfg.get("rho", 0.0),
                         procedures=cfg.get("procedures", PROCEDURES), **counts)
    except ValueError as exc:
        raise CliError(EXIT_INPUT, f"bad config: {exc}")


def cmd_simulate(args) -> int:
    try:
        cfg = json.loads(Path(args.config).read_text(encoding="utf-8-sig"))
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(EXIT_INPUT, f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_INPUT, f"config is not valid JSON: {exc}")
    return _simulate(cfg, [args.config], Path(args.out))


def _simulate(cfg, inputs: list, outdir: Path) -> int:
    """Run the study or figure that the config ``cfg`` names, writing its
    outputs and a manifest that records ``inputs`` and ``cfg`` as written
    under ``outdir``.  A figure config holds one key, ``figure``."""
    from .simulation import concentrated_alternative_demo, figure1_data, figure2_data, run_replicated

    if not isinstance(cfg, dict):
        raise CliError(EXIT_INPUT, "config must be a JSON object")
    figure = cfg.get("figure")
    if "figure" not in cfg:
        unknown = set(cfg) - _SIM_KEYS
        if unknown:
            raise CliError(EXIT_INPUT, f"unknown config keys: {sorted(unknown)}")
        result = run_replicated(_parse_sim_config(cfg))
        rows = [(proc, *astuple(stats)) for proc, stats in result.per_procedure.items()]
        files = {"replication.csv": _csv("procedure,mfdr,mfdr_se,mfnr,mfnr_se,mean_rejections", rows)}
    elif len(cfg) > 1:
        raise CliError(EXIT_INPUT, f"a figure config holds no other key: {sorted(set(cfg) - {'figure'})}")
    elif figure not in _FIGURES:
        raise CliError(EXIT_INPUT, f"figure must be one of {', '.join(_FIGURES)}; got {figure!r}")
    elif figure == "2":
        fig2 = figure2_data()
        rows = [(r.sweep, r.mfnr_pvalue, r.mfnr_lfdr) for r in fig2.curve]
        files = {"figure2_curve.csv": _csv("p1,mfnr_pvalue,mfnr_lfdr", rows),
                 "figure2_report.txt": _figure2_report(fig2)}
    elif figure == "concentrated":
        files = {"concentrated_report.txt": _concentrated_report(concentrated_alternative_demo())}
    else:
        panel = figure[1]
        rows = [(panel, r.sweep, r.mfnr_pvalue, r.mfnr_lfdr) for r in figure1_data(panel)]
        files = {f"figure1_{panel}.csv": _csv("panel,sweep,mfnr_pvalue,mfnr_lfdr", rows)}
    _finish("simulate", outdir / "manifest.json", {str(outdir / name): text for name, text in files.items()},
            {"config": cfg}, inputs, cfg.get("seed"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate-null
# ---------------------------------------------------------------------------

def cmd_estimate_null(args) -> int:
    est = estimate_null_ecf(read_z_file(args.input))
    text = (
        f"p0_hat     = {_fmt6(est.p0_hat)}\n"
        f"u0_hat     = {_fmt6(est.u0_hat)}\n"
        f"sigma0_hat = {_fmt6(est.sigma0_hat)}\n"
        f"t_star     = {_fmt6(est.t_star)}\n"
        f"|psi(t*)|  = {_fmt6(est.cf_magnitude_at_t_star)}\n"
    ) + _csv("p0_hat,u0_hat,sigma0_hat,t_star,cf_magnitude_at_t_star", [astuple(est)])
    _record(args, {})
    sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def _manifest_entry(entries, key, name: str):
    """``entries[key]``, where ``entries`` is the manifest's ``name``; a
    missing entry is an input error naming it."""
    try:
        return entries[key]
    except (KeyError, IndexError):
        raise CliError(EXIT_INPUT, f"manifest {name!r} has no entry {key!r}")


def cmd_replay(args) -> int:
    """Re-run the command a manifest records: ``simulate`` from its config,
    any other from the input, options and output file that ``_RECORDED``
    names for it."""
    try:
        data = json.loads(Path(args.manifest_file).read_text(encoding="utf-8-sig"))
    except (OSError, ValueError) as exc:
        raise CliError(EXIT_INPUT, f"cannot load manifest: {exc}")
    if not isinstance(data, dict):
        raise CliError(EXIT_INPUT, f"manifest must be a JSON object, got {type(data).__name__}")
    command = data.get("command")
    params = data.get("parameters", {})
    inputs = data.get("inputs", [])
    outputs = data.get("outputs", [])
    if not isinstance(params, dict):
        raise CliError(EXIT_INPUT, "manifest 'parameters' must be a JSON object")
    for key, paths in (("inputs", inputs), ("outputs", outputs)):
        if not (isinstance(paths, list) and all(isinstance(path, str) for path in paths)):
            raise CliError(EXIT_INPUT, f"manifest {key!r} must be a list of paths")
    if command == "simulate":
        config = _manifest_entry(params, "config", "parameters")
        outdir = Path(outputs[0]).parent if outputs else Path(args.manifest_file).parent
        return _simulate(config, inputs, outdir)
    if not (isinstance(command, str) and command in _RECORDED):
        raise CliError(EXIT_INPUT, f"manifest has unknown command {command!r}")
    reads, options, out_flag = _RECORDED[command]
    # each value after "=" and the input after "--", so that a value or path
    # starting with "-" is read as no flag
    tail = ["--", _manifest_entry(inputs, 0, "inputs")] if reads else []
    argv = [command, *(f"--{key}={_manifest_entry(params, key, 'parameters')}" for key in options)]
    if out_flag and outputs:
        argv.append(f"{out_flag}={outputs[0]}")
    return main([*argv, f"--manifest={args.manifest_file}", *tail])


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfdr-lab",
        description="Two-group-model multiple testing: procedures, oracle rules, null estimation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run a testing procedure on a z-value file")
    p.add_argument("input", help="z-values: one per line, or CSV with a 'z' column")
    p.add_argument("--alpha", type=float, default=0.10, help="FDR level (default 0.10)")
    p.add_argument("--procedure", choices=["bh", "abh", "lfdr"], default="bh")
    p.add_argument("--null", choices=["theoretical", "estimated"], default="theoretical",
                   help="theoretical N(0,1) or ECF-estimated null")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.add_argument("--manifest", help="manifest path (default: derived from --out)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("oracle", help="exact oracle thresholds for a known mixture")
    p.add_argument("--p0", type=float, required=True, help="null proportion")
    p.add_argument("--components", default="", help="nonnull components 'w:mean:sd,...'")
    p.add_argument("--alpha", type=float, required=True, help="target mFDR")
    p.add_argument("--csv", help="also write a machine-readable CSV")
    p.add_argument("--manifest", help="manifest path")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("simulate", help="replication study or figure data from a JSON config")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate-null", help="estimate (p0, u0, sigma0) from a z-value file")
    p.add_argument("input", help="z-values: one per line, or CSV with a 'z' column")
    p.add_argument("--manifest", help="manifest path")
    p.set_defaults(func=cmd_estimate_null)

    p = sub.add_parser("replay", help="re-run a recorded manifest")
    p.add_argument("manifest_file")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (LfdrLabError, ValueError) as exc:
        # a plain ValueError is a parameter the library refused
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NotEnoughData):
            return EXIT_DATA
        if isinstance(exc, (DegenerateCF, DegenerateData, DegenerateMarginal)):
            return EXIT_DEGENERATE
        return EXIT_PARAMS


if __name__ == "__main__":
    sys.exit(main())
