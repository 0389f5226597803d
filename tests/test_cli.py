import hashlib
import json
import math
import subprocess
import sys
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lfdr_lab import (
    GaussianComponent,
    adaptive_bh,
    bh_stepup,
    estimate_marginal_kde,
    estimate_null_ecf,
    estimate_p0_tail,
    estimated_lfdr_values,
    lfdr_stepup,
    mixture_model,
    sample_model,
    two_sided_pvalue,
)
from lfdr_lab.cli import _CSV_CHUNK, CliError, _cells, decision_table_csv, main, read_z_file
from lfdr_lab.errors import LengthMismatch
from lfdr_lab.procedures import DecisionTable, decide
from lfdr_lab.simulation import eq1_default_model


def write_z_file(path, z):
    path.write_text("# header comment\n" + "\n".join(repr(float(v)) for v in z) + "\n")


@pytest.fixture
def null_file(tmp_path):
    z, _ = sample_model(mixture_model(1.0, []), 1_000, 20)
    path = tmp_path / "null.txt"
    write_z_file(path, z)
    return path


@pytest.fixture
def mixture_file(tmp_path):
    model = mixture_model(0.8, [(0.1, -3.0, 1.0), (0.1, 3.0, 1.0)])
    z, _ = sample_model(model, 100_000, 21)
    path = tmp_path / "mix.txt"
    write_z_file(path, z)
    return path


def run(args):
    return main([str(a) for a in args])


class TestAnalyze:
    def test_null_file_bh_rejects_nothing(self, null_file, tmp_path, capsys):
        out = tmp_path / "dec.csv"
        code = run(["analyze", null_file, "--alpha", "0.10", "--procedure", "bh",
                    "--out", out, "--manifest", tmp_path / "m.json"])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "index,z,pvalue,lfdr_hat,reject"
        assert len(lines) == 1_001
        assert sum(1 for ln in lines[1:] if ln.endswith(",true")) == 0

    def test_single_zero_lfdr(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("0.0\n")
        code = run(["analyze", path, "--procedure", "lfdr",
                    "--manifest", tmp_path / "m.json"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        idx, z, p, lf, rej = lines[1].split(",")
        assert float(lf) == 1.0 and rej == "false"

    def test_csv_input_with_z_column(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        path.write_text("gene,z\ng1,0.5\ng2,-4.2\ng3,1.0\n")
        code = run(["analyze", path, "--alpha", "0.05",
                    "--manifest", tmp_path / "m.json"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 4
        assert lines[2].endswith(",true")  # z = -4.2 rejected

    def test_lfdr_rejects_more_true_nonnulls_asymmetric(self, tmp_path):
        # seeded end-to-end comparison on the asymmetric mixture
        model = mixture_model(0.8, [(0.18, -3.0, 1.0), (0.02, 6.0, 1.0)])
        z, nonnull = sample_model(model, 5_000, 22)
        path = tmp_path / "asym.txt"
        write_z_file(path, z)
        rejected = {}
        for proc in ("bh", "lfdr"):
            out = tmp_path / f"{proc}.csv"
            assert run(["analyze", path, "--alpha", "0.10", "--procedure", proc,
                        "--out", out, "--manifest", tmp_path / f"{proc}.json"]) == 0
            flags = [ln.endswith(",true") for ln in out.read_text().strip().split("\n")[1:]]
            rejected[proc] = np.array(flags)
        true_hits_bh = int((rejected["bh"] & nonnull).sum())
        true_hits_lfdr = int((rejected["lfdr"] & nonnull).sum())
        assert true_hits_lfdr >= true_hits_bh

    def test_estimated_null_end_to_end(self, mixture_file, tmp_path):
        out = tmp_path / "dec.csv"
        code = run(["analyze", mixture_file, "--alpha", "0.10",
                    "--procedure", "lfdr", "--null", "estimated",
                    "--out", out, "--manifest", tmp_path / "m.json"])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        rejected = sum(1 for ln in lines[1:] if ln.endswith(",true"))
        # with 20% nonnulls at +-3 and alpha 0.10, a sizable fraction of the
        # 100k hypotheses is rejected
        assert 10_000 <= rejected <= 25_000

    def test_estimated_null_needs_data(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("\n".join(str(v) for v in range(50)))
        assert run(["analyze", path, "--null", "estimated",
                    "--manifest", tmp_path / "m.json"]) == 3

    def test_malformed_input(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not,a,zfile\n1,2,3\n")
        assert run(["analyze", path, "--manifest", tmp_path / "m.json"]) == 2

    def test_undecodable_file_is_input_error(self, tmp_path, capsys):
        # UnicodeDecodeError is a ValueError, which would otherwise read as
        # a refused parameter (exit 4)
        path = tmp_path / "z.txt"
        path.write_bytes(b"0.5\n\xff\xfe\n")
        assert run(["analyze", path, "--manifest", tmp_path / "m.json"]) == 2
        assert f"cannot read {path}: " in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert run(["analyze", tmp_path / "nope.txt"]) == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("null", ["theoretical", "estimated"])
    def test_non_finite_line_is_input_error(self, tmp_path, capsys, bad, null):
        z, _ = sample_model(mixture_model(1.0, []), 500, 23)
        lines = [repr(float(v)) for v in z]
        lines[300] = bad
        path = tmp_path / "z.txt"
        path.write_text("# comment\n\n" + "\n".join(lines) + "\n")
        assert run(["analyze", path, "--procedure", "lfdr", "--null", null,
                    "--manifest", tmp_path / "m.json"]) == 2
        assert f"z.txt:303: non-finite z value {float(bad)!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_csv_row_is_input_error(self, tmp_path, capsys, bad):
        path = tmp_path / "table.csv"
        path.write_text(f"gene,z\ng1,0.5\n# skipped\ng2,{bad}\ng3,1.0\n")
        assert run(["analyze", path, "--manifest", tmp_path / "m.json"]) == 2
        assert "table.csv:4: non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("procedure", ["bh", "abh"])
    def test_far_tail_z_is_rejected(self, null_file, tmp_path, procedure):
        # the two-sided p-value of z = 40 underflows erfc; it is the
        # smallest positive double, not 0
        path = tmp_path / "z.txt"
        path.write_text(null_file.read_text() + "40.0\n")
        out = tmp_path / "dec.csv"
        assert run(["analyze", path, "--procedure", procedure, "--out", out,
                    "--manifest", tmp_path / "m.json"]) == 0
        assert out.read_text().splitlines()[-1] == "1000,40.0,5e-324,,true"

    def test_bad_alpha(self, null_file, tmp_path):
        assert run(["analyze", null_file, "--alpha", "1.5",
                    "--manifest", tmp_path / "m.json"]) == 4

    def test_abh_zero_tail_p0_is_degenerate(self, tmp_path, capsys):
        # no p-value above 0.5: the tail p0 estimate is 0
        path = tmp_path / "z.txt"
        path.write_text("3.0\n-4.0\n5.0\n2.5\n")
        assert run(["analyze", path, "--procedure", "abh",
                    "--manifest", tmp_path / "m.json"]) == 5
        assert "adaptive BH: tail p0 estimate is 0" in capsys.readouterr().err

    def test_lfdr_zero_tail_p0_is_degenerate(self, tmp_path, capsys):
        path = tmp_path / "z.txt"
        path.write_text("3.0\n-4.0\n5.0\n2.5\n")
        out = tmp_path / "dec.csv"
        assert run(["analyze", path, "--procedure", "lfdr", "--out", out,
                    "--manifest", tmp_path / "m.json"]) == 5
        assert "lfdr rule: tail p0 estimate is 0" in capsys.readouterr().err
        assert not out.exists()

    def test_constant_file_lfdr_is_degenerate(self, tmp_path, capsys):
        # np.std of 1000 copies of 0.1 is rounding noise (1.4e-17); the
        # spread of constant data is 0 all the same
        path = tmp_path / "z.txt"
        path.write_text("0.1\n" * 1_000)
        assert run(["analyze", path, "--procedure", "lfdr",
                    "--manifest", tmp_path / "m.json"]) == 5
        assert "kernel density estimation: the data have zero spread" in capsys.readouterr().err

    # 1000 copies of 0.1 or 0.3 sum inexactly, so np.std reads 1.4e-17 or
    # 1.1e-16 for them; every constant file must still name zero spread.
    # Under the theoretical null the tail p0 comes first: at 1.0 and 2.5
    # every p-value is below 0.5, so it is 0 before the KDE is reached
    @pytest.mark.parametrize("value, theoretical", [
        ("1.0", "lfdr rule: tail p0 estimate is 0"),
        ("0.1", "kernel density estimation: the data have zero spread"),
        ("0.3", "kernel density estimation: the data have zero spread"),
        ("2.5", "lfdr rule: tail p0 estimate is 0"),
    ])
    def test_constant_file_has_zero_spread(self, tmp_path, capsys, value, theoretical):
        path = tmp_path / "z.txt"
        path.write_text(f"{value}\n" * 1_000)
        for null, message in (("estimated", "error: the data have zero spread, so |ECF| is 1 at every t"),
                              ("theoretical", f"error: {theoretical}")):
            assert run(["analyze", path, "--null", null, "--procedure", "lfdr",
                        "--out", tmp_path / "dec.csv", "--manifest", tmp_path / "m.json"]) == 5
            assert capsys.readouterr().err.startswith(message)

    def test_point_past_kde_resolution_is_degenerate(self, tmp_path, capsys):
        # doubles near 1e16 are 2 apart, far coarser than h/100
        path = tmp_path / "z.txt"
        write_z_file(path, np.append(np.random.default_rng(1).normal(size=500), 1e16))
        assert run(["analyze", path, "--null", "estimated", "--procedure", "lfdr",
                    "--manifest", tmp_path / "m.json"]) == 5
        assert "cannot be represented at |z| up to 1e+16" in capsys.readouterr().err

    @pytest.mark.parametrize("scale, procedure", [(1e300, "bh"), (1e-300, "lfdr"), (1e300, "lfdr")])
    def test_estimated_null_at_extreme_scales(self, tmp_path, capsys, scale, procedure):
        # squares of z overflow at 1e300 and underflow at 1e-300; the null
        # estimate is taken at unit scale and mapped back
        z = np.random.default_rng(1).normal(size=500)
        path = tmp_path / "z.txt"
        write_z_file(path, scale * z)
        out = tmp_path / "dec.csv"
        assert run(["analyze", path, "--null", "estimated", "--procedure", procedure,
                    "--out", out, "--manifest", tmp_path / "m.json"]) == 0
        column = {"bh": 2, "lfdr": 3}[procedure]
        stats = np.array([float(ln.split(",")[column]) for ln in out.read_text().splitlines()[1:]])
        assert stats.size == 500 and np.all((stats >= 0.0) & (stats <= 1.0))
        capsys.readouterr()
        assert run(["estimate-null", path, "--manifest", tmp_path / "e.json"]) == 0
        values = np.array(capsys.readouterr().out.strip().split("\n")[-1].split(","), dtype=float)
        assert values.size == 5 and np.all(np.isfinite(values))
        assert abs(values[2] / (scale * estimate_null_ecf(z).sigma0_hat) - 1.0) <= 1e-9

    @pytest.mark.parametrize("null", ["theoretical", "estimated"])
    @pytest.mark.parametrize("procedure", ["bh", "abh", "lfdr"])
    def test_columns_compose_public_functions(self, tmp_path, procedure, null):
        model = mixture_model(0.8, [(0.15, -3.0, 1.0), (0.05, 4.0, 1.0)])
        z, _ = sample_model(model, 2_000, 24)
        path = tmp_path / "z.txt"
        write_z_file(path, z)
        out = tmp_path / "dec.csv"
        assert run(["analyze", path, "--alpha", "0.1", "--procedure", procedure,
                    "--null", null, "--out", out, "--manifest", tmp_path / "m.json"]) == 0
        header, *lines = out.read_text().splitlines()
        assert header == "index,z,pvalue,lfdr_hat,reject"
        index, zcol, pcol, lcol, rcol = zip(*(ln.split(",") for ln in lines))
        assert index == tuple(str(i) for i in range(z.size))
        assert np.array_equal(np.array(zcol, dtype=float), z)

        if null == "theoretical":
            null_comp = GaussianComponent(0.0, 1.0)
            p = two_sided_pvalue(z, null_comp)
            p0 = estimate_p0_tail(p)
        else:
            est = estimate_null_ecf(z)
            null_comp = GaussianComponent(est.u0_hat, est.sigma0_hat)
            p = two_sided_pvalue(z, null_comp)
            p0 = est.p0_hat
        if procedure == "lfdr":
            lf = estimated_lfdr_values(z, p0, null_comp, estimate_marginal_kde(z))
            table = lfdr_stepup(lf, 0.1)
            assert set(pcol) == {""}
            assert np.array_equal(np.array(lcol, dtype=float), lf)
        else:
            table = bh_stepup(p, 0.1) if procedure == "bh" else adaptive_bh(p, 0.1, p0)
            assert set(lcol) == {""}
            assert np.array_equal(np.array(pcol, dtype=float), p)
        assert table.k > 0
        assert np.array_equal(np.array(rcol) == "true", table.rejected)
        assert set(rcol) == {"true", "false"}

    def test_replay_byte_identical(self, null_file, tmp_path):
        out = tmp_path / "dec.csv"
        manifest = tmp_path / "m.json"
        assert run(["analyze", null_file, "--alpha", "0.2", "--procedure", "abh",
                    "--out", out, "--manifest", manifest]) == 0
        first = out.read_bytes()
        out.unlink()
        assert run(["replay", manifest]) == 0
        assert out.read_bytes() == first

    def test_replay_of_input_path_starting_with_dash(self, null_file, tmp_path, monkeypatch):
        # the recorded path must reach analyze as its input, not as a flag
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-z.txt").write_bytes(null_file.read_bytes())
        assert run(["analyze", "--out", "dec.csv", "--manifest", "m.json", "--", "-z.txt"]) == 0
        first = (tmp_path / "dec.csv").read_bytes()
        (tmp_path / "dec.csv").unlink()
        assert run(["replay", "m.json"]) == 0
        assert (tmp_path / "dec.csv").read_bytes() == first


# the edges of the layout orjson shares with repr: the zeros, the smallest
# subnormal, 1e-4 and 1e16 with their neighbours, and the largest double
_FORMAT_EDGES = [0.0, 5e-324, 1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0),
                 math.nextafter(1e16, 0.0), 1e16, sys.float_info.max]


def _repr_csv(z, table) -> bytes:
    """The decision CSV written cell by cell with repr, str and true/false."""
    def column(values):
        return [""] * z.size if values is None else [repr(v) for v in values.tolist()]

    rows = zip([str(i) for i in range(z.size)], [repr(v) for v in z.tolist()],
               column(table.pvalue), column(table.lfdr_hat),
               ["true" if r else "false" for r in table.rejected.tolist()])
    return ("index,z,pvalue,lfdr_hat,reject\n" + "".join(",".join(row) + "\n" for row in rows)).encode()


class TestCsvNumbers:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
    @example([x for v in _FORMAT_EDGES for x in (v, -v)])
    def test_float_cells_are_repr(self, values):
        assert _cells(np.array(values)) == [repr(v) for v in values]

    @pytest.mark.parametrize("null", ["theoretical", "estimated"])
    @pytest.mark.parametrize("procedure", ["bh", "abh", "lfdr"])
    @pytest.mark.parametrize("m", [2_000, 2 * _CSV_CHUNK + 3])
    def test_analyze_csv_is_repr(self, tmp_path, procedure, null, m):
        z, _ = sample_model(eq1_default_model(), m, 25)
        self._check(tmp_path, z, procedure, null)

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    @pytest.mark.parametrize("procedure", ["bh", "abh", "lfdr"])
    def test_analyze_csv_is_repr_at_extreme_scales(self, tmp_path, procedure, scale):
        # every z cell lies outside the layout orjson shares with repr
        self._check(tmp_path, scale * np.random.default_rng(1).normal(size=500), procedure, "estimated")

    def test_strided_columns(self):
        # orjson refuses an array that is not contiguous
        z = np.random.default_rng(3).normal(size=40)[::2]
        table = decide(z, ("bh",), 0.1, GaussianComponent(0.0, 1.0))["bh"]
        strided = DecisionTable(table.rejected, table.k, pvalue=np.repeat(table.pvalue, 2)[::2])
        assert decision_table_csv(z, strided).encode() == _repr_csv(z, table)

    def test_z_and_table_of_different_lengths(self):
        z = np.random.default_rng(3).normal(size=20)
        table = decide(z, ("bh",), 0.1, GaussianComponent(0.0, 1.0))["bh"]
        with pytest.raises(LengthMismatch, match="^19 z-values for 20 decisions$"):
            decision_table_csv(z[1:], table)

    @staticmethod
    def _check(tmp_path, z, procedure, null):
        path = tmp_path / "z.txt"
        write_z_file(path, z)
        out = tmp_path / "dec.csv"
        assert run(["analyze", path, "--alpha", "0.1", "--procedure", procedure, "--null", null,
                    "--out", out, "--manifest", tmp_path / "m.json"]) == 0
        name = {"bh": "bh", "abh": "adaptive_bh", "lfdr": "lfdr"}[procedure]
        table = decide(z, (name,), 0.1, GaussianComponent(0.0, 1.0) if null == "theoretical" else None)[name]
        assert out.read_bytes() == _repr_csv(z, table)


# z tokens as files hold them: repr, np.savetxt's %.18e, %.3f, integers past
# 2^64, subnormals, and hard cases for correct rounding
_HARD_TOKENS = [str(2**53 + 1), str(2**64), str(2**70 + 1), "2.2250738585072011e-308",
                "2.4703282292062328e-324", "1.7976931348623158e308", "1e308", "-1e308",
                "1e-400", "3." + "1415926535" * 80]
_Z_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map("%.18e".__mod__),
    st.floats(allow_nan=False, allow_infinity=False).map("%.3f".__mod__),
    st.integers(-(2**70), 2**70).map(str),
    st.floats(-2.3e-308, 2.3e-308).map(repr),
    st.sampled_from([*_HARD_TOKENS, "-0", "-0.0", "0e5", "-0e5", "0", "-1e-400"]),
)
# lines inserted among them: blank lines, comments, a comma, a second BOM,
# overflow, and tokens float() reads but JSON does not (or neither reads)
_LAYOUT_LINES = st.sampled_from(["", "  ", "# note", "0.5,1.5", "\ufeff1", " 0.5", "1e400", "-1e400",
                                 "+1.5", "1_0", ".5", "1.", "0x10", "01", "nan", "infinity", "1e5 "])


class TestReadZFile:
    def test_lines_read_as_float_reads_them(self, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("# comment\n1_0\n\n  +1.5 \n  # indented comment\n\u0661\u0662\n-0.0\n",
                        encoding="utf-8")
        z = read_z_file(path)
        assert z.tolist() == [10.0, 1.5, 12.0, 0.0] and math.copysign(1.0, z[3]) == -1.0

    def test_infinity_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "z.txt"
        path.write_text("# comment\n0.5\n\n-1.0\ninfinity\n2.0\n")
        assert run(["analyze", path, "--manifest", tmp_path / "m.json"]) == 2
        assert capsys.readouterr().err == f"error: {path}:5: non-finite z value inf\n"

    def test_hex_line_is_not_a_z_column(self, tmp_path, capsys):
        # float() refuses 0x10, so the file is read as CSV, which has no z column
        path = tmp_path / "z.txt"
        path.write_text("0.5\n0x10\n")
        assert run(["analyze", path, "--manifest", tmp_path / "m.json"]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: expected one z per line or a 'z' CSV column\n")

    def test_z_column(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("# genes\ngene,z\ng1, 0.5\n\ng2,-4.2\ng3,1_0\n")
        assert read_z_file(path).tolist() == [0.5, -4.2, 10.0]

    @pytest.mark.parametrize("text", ["# header\n\n  # indented\n   \n", "z\n", "\n\r\n\n"],
                             ids=["comments", "csv-header", "line-ends"])
    def test_comments_and_blanks_only_is_input_error(self, tmp_path, capsys, text):
        path = tmp_path / "z.txt"
        path.write_text(text)
        assert run(["analyze", path, "--manifest", tmp_path / "m.json"]) == 2
        assert capsys.readouterr().err == f"error: {path}: no data lines\n"

    def test_malformed_z_column_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        path.write_text("gene,z\ng1,0.5\ng2,abc\n")
        assert run(["analyze", path, "--manifest", tmp_path / "m.json"]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: malformed z column (could not convert string to float: 'abc')\n")


    @pytest.mark.parametrize("text", ["# comment\n0.5\n-1.25\n", "z,gene\n0.5,g1\n-1.25,g2\n"],
                             ids=["lines", "csv"])
    def test_byte_order_mark_is_ignored(self, tmp_path, text):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        assert read_z_file(marked).tolist() == read_z_file(plain).tolist() == [0.5, -1.25]
        for path in (plain, marked):
            assert run(["analyze", path, "--out", path.with_suffix(".csv"),
                        "--manifest", path.with_suffix(".json")]) == 0
        assert marked.with_suffix(".csv").read_bytes() == plain.with_suffix(".csv").read_bytes()

    @staticmethod
    def _read(path, one_call=True):
        """read_z_file's array, or its CliError's (code, message), and
        whether orjson parsed the file; with ``one_call=False`` orjson
        refuses every file, so each line is read by float()."""
        parsed, real_loads = [], orjson.loads

        def loads(data):
            if not one_call:
                raise orjson.JSONDecodeError("refused", "", 0)
            parsed.append(real_loads(data))
            return parsed[-1]

        with mock.patch.object(orjson, "loads", loads):
            try:
                got = read_z_file(path)
            except CliError as exc:
                got = (exc.code, str(exc))
        return got, bool(parsed)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(_Z_TOKENS, min_size=1, max_size=30),
           st.lists(st.tuples(st.integers(0, 30), _LAYOUT_LINES), max_size=2),
           st.sampled_from(["\n", "\r\n"]), st.booleans(), st.booleans())
    @example([*_HARD_TOKENS, "-0", "-0.0", "0e5", "-0e5", "-1e-400"], [], "\n", False, True)
    @example(["0.5"], [(1, "-1e400")], "\n", False, True)
    @example(["0.5", "-0", "1e400", "2"], [], "\r\n", True, True)
    def test_one_call_read_matches_float(self, tmp_path_factory, tokens, inserts, newline, bom, end):
        lines = list(tokens)
        for at, line in inserts:
            lines.insert(at, line)
        path = tmp_path_factory.mktemp("z") / "z.txt"
        path.write_bytes(("\ufeff" if bom else "").encode()
                         + (newline.join(lines) + (newline if end else "")).encode())
        got, _ = self._read(path)
        want, _ = self._read(path, one_call=False)
        if isinstance(want, tuple):
            assert got == want
        else:
            # the same bits, the sign of zero included
            assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("layout, one_call", [
        ("repr", True), ("savetxt", True), ("crlf", True), ("bom", True),
        ("comment", False), ("blank", False), ("plus", False), ("column", False)])
    def test_which_read_runs(self, tmp_path, layout, one_call):
        # one JSON number per line is parsed in one orjson call; every other
        # layout is read line by line, to the same values
        z = np.random.default_rng(4).normal(size=200)
        lines = [repr(v) for v in z.tolist()]
        path = tmp_path / "z.txt"
        if layout == "savetxt":
            np.savetxt(path, z)
        else:
            text = {"repr": "\n".join(lines), "crlf": "\r\n".join(lines),
                    "bom": "\ufeff" + "\n".join(lines),
                    "comment": "# z-values\n" + "\n".join(lines),
                    "blank": "\n".join(lines[:100] + [""] + lines[100:]),
                    "plus": "\n".join("+" + ln if ln[0] != "-" else ln for ln in lines),
                    "column": "gene,z\n" + "\n".join(f"g{i},{ln}" for i, ln in enumerate(lines))}
            path.write_text(text[layout] + "\n", newline="")
        got, parsed = self._read(path)
        want, _ = self._read(path, one_call=False)
        assert got.tobytes() == want.tobytes()
        if layout != "savetxt":
            assert got.tolist() == z.tolist()
        assert parsed is one_call


class TestOracle:
    def test_report_and_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "rules.csv"
        code = run(["oracle", "--p0", "0.8",
                    "--components", "0.15:-3:1,0.05:4:1",
                    "--alpha", "0.10", "--csv", csv_path,
                    "--manifest", tmp_path / "m.json"])
        assert code == 0
        report = capsys.readouterr().out
        assert "p-value oracle rule" in report and "lfdr oracle rule" in report
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "kind,threshold,mfdr,mfnr,region"
        lfdr_line = lines[2].split(",")
        region = lfdr_line[4]
        assert region.count(";") == 1  # two intervals, asymmetric

    def test_pure_null_reports_infeasible_region(self, tmp_path, capsys):
        code = run(["oracle", "--p0", "1.0", "--alpha", "0.10",
                    "--manifest", tmp_path / "m.json"])
        assert code == 0
        assert "infeasible" in capsys.readouterr().out

    def test_whole_line_lfdr_region_reports_infeasible(self, tmp_path, capsys):
        # the lfdr rule's feasible region is the whole line, where mFNR is
        # undefined: reported as infeasible with the cause, not exit 4
        code = run(["oracle", "--p0", "0.05", "--components", "0.95:0:2",
                    "--alpha", "0.1", "--csv", tmp_path / "r.csv",
                    "--manifest", tmp_path / "m.json"])
        assert code == 0
        report = capsys.readouterr().out
        lfdr_part = report[report.index("lfdr oracle rule"):]
        assert "infeasible: mFNR is undefined when everything is rejected" in lfdr_part
        lines = (tmp_path / "r.csv").read_text().strip().split("\n")
        assert lines[2] == "lfdr,,,,infeasible"
        assert lines[1].startswith("pvalue,") and "infeasible" not in lines[1]

    def test_flat_lfdr_reports_both_rules_infeasible(self, tmp_path, capsys):
        # the nonnull equals the null: lfdr is flat at 0.5, and every nonempty region
        # has mFDR 0.5
        code = run(["oracle", "--p0", "0.5", "--components", "0.5:0:1",
                    "--alpha", "0.1", "--csv", tmp_path / "r.csv",
                    "--manifest", tmp_path / "m.json"])
        out, err = capsys.readouterr()
        assert code == 0 and "Traceback" not in err
        assert out.count("infeasible: ") == 2
        lines = (tmp_path / "r.csv").read_text().strip().split("\n")
        assert lines[1:] == ["pvalue,,,,infeasible", "lfdr,,,,infeasible"]

    def test_symmetric_model_equal_mfnr(self, tmp_path, capsys):
        code = run(["oracle", "--p0", "0.8", "--components", "0.1:-3:1,0.1:3:1",
                    "--alpha", "0.10", "--csv", tmp_path / "r.csv",
                    "--manifest", tmp_path / "m.json"])
        assert code == 0
        lines = (tmp_path / "r.csv").read_text().strip().split("\n")
        mfnr_p = float(lines[1].split(",")[3])
        mfnr_l = float(lines[2].split(",")[3])
        assert abs(mfnr_p - mfnr_l) <= 1e-6

    @pytest.mark.parametrize("spec, expected", [("0.1:2", "expected w:mean:sd"),
                                                ("0.1:a:1", "expected numbers")])
    def test_malformed_component_is_input_error(self, tmp_path, capsys, spec, expected):
        manifest = tmp_path / "m.json"
        assert run(["oracle", "--p0", "0.9", "--components", spec, "--alpha", "0.1",
                    "--manifest", manifest]) == 2
        assert capsys.readouterr().err == f"error: bad component {spec!r}; {expected}\n"
        assert not manifest.exists()

    def test_invalid_weights(self, tmp_path):
        assert run(["oracle", "--p0", "0.9", "--components", "0.2:3:1",
                    "--alpha", "0.10", "--manifest", tmp_path / "m.json"]) == 4

    def test_negative_sd_is_invalid(self, tmp_path, capsys):
        # the library refuses the model: exit 4, named, no traceback
        manifest = tmp_path / "m.json"
        assert run(["oracle", "--p0", "0.9", "--components", "0.1:2:-1",
                    "--alpha", "0.10", "--manifest", manifest]) == 4
        assert capsys.readouterr().err == "error: component sd must be positive, got -1.0\n"
        assert not manifest.exists()

    def test_nan_p0_is_invalid(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        assert run(["oracle", "--p0", "nan", "--components", "0.2:3:1",
                    "--alpha", "0.10", "--manifest", manifest]) == 4
        assert "weights sum to nan" in capsys.readouterr().err
        assert not manifest.exists()

    def test_bad_alpha_writes_nothing(self, tmp_path, capsys):
        csv_path = tmp_path / "r.csv"
        manifest = tmp_path / "m.json"
        assert run(["oracle", "--p0", "0.8", "--components", "0.2:3:1", "--alpha", "0",
                    "--csv", csv_path, "--manifest", manifest]) == 4
        assert "alpha must be in (0, 1), got 0.0" in capsys.readouterr().err
        assert not csv_path.exists() and not manifest.exists()

    def test_unresolvable_component_is_invalid(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        assert run(["oracle", "--p0", "0.9", "--components", "0.1:2.5:1e-20", "--alpha", "0.1",
                    "--manifest", manifest]) == 4
        assert capsys.readouterr().err == (
            "error: oracle scan grid: step sd/10 = 1e-21 of the component N(2.5, 1e-20^2) "
            "cannot be represented at |z| up to 2.5\n")
        assert not manifest.exists()

    def test_zero_weight_component_changes_nothing(self, tmp_path):
        # a weight-0 component too narrow for any scan grid is left out of
        # the rules: exit 0, and the CSV of the model without it
        for name, spec in [("zero", "0.1:2.5:1,0:3:1e-20"), ("plain", "0.1:2.5:1")]:
            assert run(["oracle", "--p0", "0.9", "--components", spec, "--alpha", "0.1",
                        "--csv", tmp_path / f"{name}.csv", "--manifest", tmp_path / f"{name}.json"]) == 0
        assert (tmp_path / "zero.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_csv_into_new_directory(self, tmp_path):
        csv_path = tmp_path / "new" / "dir" / "r.csv"
        assert run(["oracle", "--p0", "0.8", "--components", "0.2:3:1", "--alpha", "0.1",
                    "--csv", csv_path]) == 0
        assert csv_path.read_text().startswith("kind,threshold,mfdr,mfnr,region\n")
        manifest = json.loads((tmp_path / "new" / "dir" / "r.csv.manifest.json").read_text())
        assert manifest["outputs"] == [str(csv_path)]

    def test_replay_byte_identical(self, tmp_path, capsys):
        csv_path = tmp_path / "rules.csv"
        manifest = tmp_path / "m.json"
        assert run(["oracle", "--p0", "0.9", "--components", "0.1:4:1",
                    "--alpha", "0.05", "--csv", csv_path, "--manifest", manifest]) == 0
        first = csv_path.read_bytes()
        csv_path.unlink()
        assert run(["replay", manifest]) == 0
        assert csv_path.read_bytes() == first

    def test_replay_of_components_starting_with_dash(self, tmp_path, capsys):
        # the recorded spec must reach --components as its value, not as a flag
        csv_path = tmp_path / "rules.csv"
        manifest = tmp_path / "m.json"
        assert run(["oracle", "--p0", "0.9", "--components=-0:3:1,0.1:4:1",
                    "--alpha", "0.05", "--csv", csv_path, "--manifest", manifest]) == 0
        first = csv_path.read_bytes()
        csv_path.unlink()
        assert run(["replay", manifest]) == 0
        assert csv_path.read_bytes() == first


class TestSimulate:
    def test_figure1_panel_a(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"figure": "1a"}))
        outdir = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", outdir]) == 0
        lines = (outdir / "figure1_a.csv").read_text().strip().split("\n")
        assert lines[0] == "panel,sweep,mfnr_pvalue,mfnr_lfdr"
        assert len(lines) == 20  # header + 19 rows
        assert (outdir / "manifest.json").exists()

    def test_replication_study(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "p0": 0.8,
            "components": [[0.1, -3.0, 1.0], [0.1, 3.0, 1.0]],
            "m": 200, "reps": 10, "alpha": 0.1, "seed": 5,
            "procedures": ["bh", "adaptive_bh"],
        }))
        outdir = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", outdir]) == 0
        lines = (outdir / "replication.csv").read_text().strip().split("\n")
        assert lines[0] == "procedure,mfdr,mfdr_se,mfnr,mfnr_se,mean_rejections"
        assert len(lines) == 3

    def test_rerun_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "p0": 0.8, "components": "0.2:4:1", "m": 300, "reps": 5,
            "alpha": 0.1, "seed": 9, "procedures": ["bh"],
        }))
        outdir = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", outdir]) == 0
        first = (outdir / "replication.csv").read_bytes()
        assert run(["simulate", "--config", cfg, "--out", outdir]) == 0
        assert (outdir / "replication.csv").read_bytes() == first

    def test_replication_csv_bytes_pinned(self, tmp_path):
        # every procedure, under a model whose component table the sampler,
        # lfdr() and the plug-in rule share; the digest is of the CSV written
        # while each call still built its own table
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "p0": 0.8, "components": "0.1:-3:1,0.1:3:0.5", "m": 500, "reps": 4, "alpha": 0.1, "seed": 11,
            "procedures": ["bh", "adaptive_bh", "lfdr_oracle_plugin", "lfdr_estimated"],
        }))
        outdir = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", outdir]) == 0
        assert hashlib.sha256((outdir / "replication.csv").read_bytes()).hexdigest() == (
            "a4c4b6038e36851a7e337b1572676716976108cb463413f35059ab0b77f24285")

    def test_figure_string_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"figure": "concentrated"}))
        outdir = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", outdir]) == 0
        text = (outdir / "concentrated_report.txt").read_text()
        assert "nonnull fraction" in text

    def test_figure2_outputs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"figure": "2"}))
        outdir = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", outdir]) == 0
        assert (outdir / "figure2_curve.csv").exists()
        report = (outdir / "figure2_report.txt").read_text()
        assert "z = -2" in report and "z = 3" in report

    @pytest.mark.parametrize("figure, names", [
        ("1a", ["figure1_a.csv"]),
        ("2", ["figure2_curve.csv", "figure2_report.txt"]),
    ])
    def test_figure_replay(self, tmp_path, figure, names):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"figure": figure}))
        outdir = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", outdir]) == 0
        paths = [outdir / name for name in names] + [outdir / "manifest.json"]
        first = [path.read_bytes() for path in paths]
        assert json.loads(first[-1])["parameters"] == {"config": {"figure": figure}}
        for path in paths[:-1]:
            path.unlink()
        assert run(["replay", outdir / "manifest.json"]) == 0
        assert [path.read_bytes() for path in paths] == first

    @pytest.mark.parametrize("config, names", [
        ({"figure": "1e"}, "figure must be one of"),
        ({"figure": "1A"}, "figure must be one of"),
        ({"figure": 2}, "got 2"),
        ({"figure": "2", "m": 100}, "a figure config holds no other key: ['m']"),
        ({"figure": "1a", "figure1": "b"}, "no other key: ['figure1']"),
        ({"figure": 2, "p0": 0.8, "components": "0.2:4:1", "m": 100, "reps": 2,
          "alpha": 0.1, "seed": 1}, "no other key: ['alpha', 'components'"),
        ({"figure1": "a"}, "unknown config keys: ['figure1']"),
        ({"figure1": "a", "figure2": True}, "unknown config keys: ['figure1', 'figure2']"),
        ({"concentrated": True}, "unknown config keys: ['concentrated']"),
    ], ids=["unknown-value", "upper-case", "number", "study-key", "two-figures",
            "figure-and-study", "figure1", "figure1-and-figure2", "concentrated"])
    def test_figure_config_errors(self, tmp_path, capsys, config, names):
        # one key asks for one job; anything else runs nothing
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        outdir = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", outdir]) == 2
        assert names in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("key, value", [
        ("m", 100.7), ("reps", 2.9), ("seed", 3.5), ("m", True), ("reps", True), ("seed", False),
    ])
    def test_fractional_or_boolean_count_is_config_error(self, tmp_path, capsys, key, value):
        # int() would run m = 100, 2 reps or seed 3 and record the unused value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "p0": 0.8, "components": "0.2:4:1", "m": 100, "reps": 2,
            "alpha": 0.1, "seed": 1, "procedures": ["bh"], key: value,
        }))
        outdir = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", outdir]) == 2
        assert f"{key} must be an integer, got {value!r}" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("key, value", [
        ("p0", "0.8"), ("m", "100"), ("m", "100.7"), ("reps", "2"), ("alpha", "0.1"),
        ("seed", "1"), ("rho", "0.5"), ("p0", True), ("alpha", False), ("rho", True), ("alpha", None),
        ("components", [["0.2", 4, 1]]), ("components", [[0.2, True, 1]]), ("components", [[0.2, 4, None]]),
    ])
    def test_non_number_is_config_error(self, tmp_path, capsys, key, value):
        # float() and int() would run "0.1" or "100" and record the string;
        # a boolean or null is no number either, nor is one in a component
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "p0": 0.8, "components": "0.2:4:1", "m": 100, "reps": 2,
            "alpha": 0.1, "seed": 1, "procedures": ["bh"], key: value,
        }))
        outdir = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", outdir]) == 2
        kind = "an integer" if key in ("m", "reps", "seed") else "a number"
        if key == "components":
            key, value = "each entry of components", next(x for x in value[0] if type(x) not in (int, float))
        assert f"{key} must be {kind}, got {value!r}" in capsys.readouterr().err
        assert not outdir.exists()

    def test_bad_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 2
        cfg.write_text(json.dumps({"p0": 0.8}))
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 2

    @pytest.mark.parametrize("text, names", [
        (None, "cannot read config: "),
        ("[0.8]", "config must be a JSON object"),
        ('{"p0": 0.8, "components": [[0.2, 4]], "m": 100, "reps": 2, "alpha": 0.1, "seed": 1}',
         "components must be [[w, mean, sd], ...] or 'w:mean:sd,...'"),
        ('{"p0": 0.8, "components": [0.2, 4, 1], "m": 100, "reps": 2, "alpha": 0.1, "seed": 1}',
         "components must be [[w, mean, sd], ...] or 'w:mean:sd,...'"),
    ], ids=["missing-file", "list", "pair", "flat-triple"])
    def test_config_that_sets_out_no_study_is_input_error(self, tmp_path, capsys, text, names):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        outdir = tmp_path / "o"
        assert run(["simulate", "--config", cfg, "--out", outdir]) == 2
        assert names in capsys.readouterr().err
        assert not outdir.exists()

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        # a misspelt "rho" would otherwise run an independent study
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "p0": 0.8, "components": "0.2:4:1", "m": 100, "reps": 2,
            "alpha": 0.1, "seed": 1, "rh0": 0.5, "procedures": ["bh"],
        }))
        outdir = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", outdir]) == 2
        assert "unknown config keys: ['rh0']" in capsys.readouterr().err
        assert not outdir.exists()

    def test_empty_procedures_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "p0": 0.8, "components": "0.2:4:1", "m": 100, "reps": 2,
            "alpha": 0.1, "seed": 1, "procedures": [],
        }))
        outdir = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", outdir]) == 2
        assert "at least one procedure" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("procedures, message", [
        ("bh", "procedures must be a sequence of names, not the string 'bh'"),
        ({"bh": 7}, "procedures must be a list of names, got {'bh': 7}"),  # ran its keys
        ([["bh"]], "procedures must be a list of names, got [['bh']]"),  # failed on hashing
    ], ids=["string", "object", "nested-list"])
    def test_procedures_not_a_list_of_names_is_config_error(self, tmp_path, capsys, procedures,
                                                             message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "p0": 0.8, "components": "0.2:4:1", "m": 100, "reps": 2,
            "alpha": 0.1, "seed": 1, "procedures": procedures,
        }))
        outdir = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", outdir]) == 2
        assert message in capsys.readouterr().err
        assert not outdir.exists()

    def test_failed_run_removes_partial_outputs(self, tmp_path):
        # lfdr_estimated needs m >= 100; the run aborts and leaves no CSV
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "p0": 0.8, "components": "0.2:4:1", "m": 50, "reps": 2,
            "alpha": 0.1, "seed": 1, "procedures": ["lfdr_estimated"],
        }))
        outdir = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", outdir]) == 3
        assert not (outdir / "replication.csv").exists()
        assert not (outdir / "manifest.json").exists()

    def test_adaptive_bh_zero_tail_p0_is_degenerate(self, tmp_path, capsys):
        # every z sits near 6, so no p-value exceeds 0.5 and the tail p0
        # estimate is 0; the run exits 5 and leaves no output
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "p0": 0.001, "components": [[0.999, 6.0, 1.0]], "m": 50, "reps": 2,
            "alpha": 0.1, "seed": 1, "procedures": ["adaptive_bh"],
        }))
        outdir = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", outdir]) == 5
        assert "adaptive BH: tail p0 estimate is 0" in capsys.readouterr().err
        assert not outdir.exists()

    def test_nan_p0_is_invalid(self, tmp_path, capsys):
        # json reads the NaN literal as a float
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"p0": NaN, "components": "0.2:3:1", "m": 100, "reps": 2, '
                       '"alpha": 0.1, "seed": 1}')
        outdir = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", outdir]) == 4
        assert "weights sum to nan" in capsys.readouterr().err
        assert not outdir.exists()

    def test_simulate_replay(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "p0": 0.8, "components": "0.2:4:1", "m": 100, "reps": 3,
            "alpha": 0.1, "seed": 10, "procedures": ["bh"],
        }))
        outdir = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", outdir]) == 0
        first = (outdir / "replication.csv").read_bytes()
        manifest = (outdir / "manifest.json").read_bytes()
        files = sorted(tmp_path.rglob("*"))
        (outdir / "replication.csv").unlink()
        assert run(["replay", outdir / "manifest.json"]) == 0
        assert (outdir / "replication.csv").read_bytes() == first
        # replay leaves the directory as it found it: no extra file, and the
        # manifest still names the original config
        assert sorted(tmp_path.rglob("*")) == files
        assert (outdir / "manifest.json").read_bytes() == manifest


    def test_byte_order_mark_config_and_manifest(self, tmp_path):
        # a config or manifest saved with a UTF-8 byte-order mark reads as without it
        config = {"p0": 0.8, "components": "0.2:4:1", "m": 100, "reps": 3, "alpha": 0.1, "seed": 10}
        outputs = {}
        for name, encoding in (("plain", "utf-8"), ("marked", "utf-8-sig")):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(config), encoding=encoding)
            assert run(["simulate", "--config", cfg, "--out", tmp_path / name]) == 0
            outputs[name] = (tmp_path / name / "replication.csv").read_bytes()
        assert outputs["marked"] == outputs["plain"]
        manifest = tmp_path / "plain" / "manifest.json"
        manifest.write_bytes(b"\xef\xbb\xbf" + manifest.read_bytes())
        (tmp_path / "plain" / "replication.csv").unlink()
        assert run(["replay", manifest]) == 0
        assert (tmp_path / "plain" / "replication.csv").read_bytes() == outputs["plain"]

class TestOutputPaths:
    # a regular file where a directory should be makes every path under it
    # unwritable
    @pytest.mark.parametrize("command", ["analyze", "oracle", "simulate"])
    def test_unwritable_output_is_input_error(self, null_file, tmp_path, capsys, command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "p0": 0.8, "components": "0.2:4:1", "m": 100, "reps": 2,
            "alpha": 0.1, "seed": 1, "procedures": ["bh"],
        }))
        argv, path = {
            "analyze": (["analyze", null_file, "--out", blocker / "x.csv"], blocker / "x.csv"),
            "oracle": (["oracle", "--p0", "0.8", "--components", "0.2:3:1", "--alpha", "0.1",
                        "--csv", blocker / "r.csv"], blocker / "r.csv"),
            "simulate": (["simulate", "--config", cfg, "--out", blocker],
                         blocker / "replication.csv"),
        }[command]
        capsys.readouterr()
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert f"error: cannot write {path}: " in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert sorted(tmp_path.iterdir()) == [cfg, blocker, null_file]

    @pytest.mark.parametrize("under", [(), ("sub",)])
    def test_file_on_output_path_is_not_a_directory(self, null_file, capsys, under):
        # the input file itself stands where a directory should be, directly
        # above the output or further up
        out = null_file.joinpath(*under, "x.csv")
        assert run(["analyze", null_file, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {out}: " in err
        assert "not a directory" in err.lower() and "File exists" not in err

    def test_unwritable_manifest_removes_outputs(self, null_file, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = tmp_path / "ok.csv"
        assert run(["analyze", null_file, "--out", out, "--manifest", blocker / "m.json"]) == 2
        assert f"cannot write {blocker / 'm.json'}: " in capsys.readouterr().err
        assert not out.exists()


class TestReplay:
    @pytest.mark.parametrize("manifest, names", [
        ({"command": "analyze"}, "'inputs' has no entry 0"),
        ({"command": "analyze", "inputs": ["z.txt"], "parameters": {"alpha": 0.1}},
         "'parameters' has no entry 'procedure'"),
        ([], "must be a JSON object, got list"),
        ({"command": "estimate-null", "inputs": []}, "'inputs' has no entry 0"),
        ({"command": "estimate-null", "inputs": "z.txt"}, "'inputs' must be a list"),
        ({"command": "oracle", "parameters": [0.8]}, "'parameters' must be a JSON object"),
        ({"command": "simulate"}, "'parameters' has no entry 'config'"),
        ({"command": "oracle", "parameters": {"p0": 1.0, "alpha": 0.1}},
         "'parameters' has no entry 'components'"),
        ({"command": "bogus"}, "manifest has unknown command 'bogus'"),
        ({"command": ["analyze"]}, "manifest has unknown command ['analyze']"),
        (None, "cannot load manifest: "),
    ], ids=["analyze-no-inputs", "analyze-no-procedure", "list", "estimate-null-empty-inputs",
            "string-inputs", "list-parameters", "simulate-no-config", "oracle-no-components",
            "unknown-command", "list-command", "missing-file"])
    def test_malformed_manifest_is_input_error(self, tmp_path, capsys, manifest, names):
        path = tmp_path / "m.json"
        if manifest is not None:
            path.write_text(json.dumps(manifest))
        assert run(["replay", path]) == 2
        assert names in capsys.readouterr().err


class TestEstimateNull:
    def test_pure_null_report(self, mixture_file, tmp_path, capsys):
        code = run(["estimate-null", mixture_file, "--manifest", tmp_path / "m.json"])
        assert code == 0
        out = capsys.readouterr().out
        assert "p0_hat" in out
        header_idx = out.index("p0_hat,u0_hat")
        values = out[header_idx:].strip().split("\n")[1].split(",")
        assert 0.75 <= float(values[0]) <= 0.85
        assert abs(float(values[2]) - 1.0) <= 0.05

    def test_not_enough_data(self, tmp_path):
        path = tmp_path / "few.txt"
        path.write_text("\n".join(["0.5"] * 10))
        assert run(["estimate-null", path, "--manifest", tmp_path / "m.json"]) == 3

    def test_constant_file_degenerate(self, tmp_path):
        path = tmp_path / "const.txt"
        path.write_text("\n".join(["2.5"] * 500))
        assert run(["estimate-null", path, "--manifest", tmp_path / "m.json"]) == 5

    def test_non_finite_line_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "z.txt"
        path.write_text("\n".join(["0.5", "-1.0"] * 100 + ["inf"]))
        assert run(["estimate-null", path, "--manifest", tmp_path / "m.json"]) == 2
        assert "z.txt:201: non-finite z value inf" in capsys.readouterr().err


def test_import_leaves_heavy_scipy_modules_unloaded():
    # the CLI starts without these: scipy.optimize, .integrate and .stats
    # (~0.3 s, ~20 MB), orjson, which only the z reader and the decision
    # CSV writer need (~9 ms), and scipy.special with the oracle and the
    # simulator, which only p-values, oracle rules and simulations need
    # (~0.2 s, ~25 MB)
    code = ("import sys, lfdr_lab, lfdr_lab.cli; "
            "print(' '.join(sorted(m for m in ('scipy.optimize', 'scipy.integrate', 'scipy.stats', "
            "'orjson', 'scipy.special', 'lfdr_lab.oracle', 'lfdr_lab.simulation') "
            "if m in sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""


def test_scipy_loads_only_for_the_commands_that_need_it(tmp_path):
    # analyze under an estimated null and estimate-null compute no p-value
    # and run no oracle, so they never import scipy.special; the commands
    # that do import it on first use and succeed
    z_file = tmp_path / "z500.txt"
    write_z_file(z_file, sample_model(mixture_model(1.0, []), 500, 20)[0])
    (tmp_path / "fig2.json").write_text('{"figure": "2"}')
    runs = [
        ["analyze", z_file, "--null", "estimated", "--procedure", "lfdr", "--out", tmp_path / "lfdr.csv"],
        ["estimate-null", z_file, "--manifest", tmp_path / "null.json"],
        ["analyze", z_file, "--procedure", "bh", "--out", tmp_path / "bh.csv"],
        ["oracle", "--p0", "0.8", "--components", "0.2:3:1", "--alpha", "0.1",
         "--manifest", tmp_path / "oracle.json"],
        ["simulate", "--config", tmp_path / "fig2.json", "--out", tmp_path / "fig2"],
    ]
    code = ("import json, sys\n"
            "from lfdr_lab.cli import main\n"
            "seen = [(main(argv), 'scipy.special' in sys.modules) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps(seen))\n")
    argv = json.dumps([[str(arg) for arg in run] for run in runs])
    out = subprocess.run([sys.executable, "-c", code, argv], capture_output=True, text=True, check=True)
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen == [[0, False], [0, False], [0, True], [0, True], [0, True]]
