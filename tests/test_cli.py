import argparse
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import runshift
from runshift import (
    CantorMeasure,
    DigitSystem,
    build_chain,
    correlation,
    make_eta,
    quadrature,
    quadrature_values,
    renewal_series,
)
from runshift.cli import _CHUNK, _read_coeffs, _write_table, entry, main
from runshift.sequences import decay_profile


def read_csv(path):
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            if "=" in line:
                key, _, value = line[1:].strip().partition("=")
                meta[key] = value
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append([float(x) for x in line.split(",")])
    data = dict(zip(header, np.array(rows).T))
    return meta, data


def reference_read_coeffs(path):
    """The row-by-row reader that ``_read_coeffs`` replaced: a of a CSV or JSON n,a
    table, the first CSV row skipped when it does not parse."""
    with open(path) as fh:
        text = fh.read()
    is_json = text.lstrip().startswith("{")
    if is_json:
        data = json.loads(text).get("data", {})
        rows = list(zip(data.get("n", []), data.get("a", [])))
    else:
        lines = (line.strip() for line in text.splitlines())
        rows = [line.split(",") for line in lines if line and not line.startswith("#")]
    ns, vals = [], []
    for i, row in enumerate(rows):
        if len(row) < 2:
            raise ValueError(f"{path}: row {row[0]!r} has one column; expected n,a")
        try:
            n, a = int(float(row[0])), float(row[1])
        except (TypeError, ValueError):
            if i == 0 and not is_json:
                continue  # header row
            raise ValueError(f"{path}: row {','.join(map(str, row))!r} is not n,a") from None
        ns.append(n)
        vals.append(a)
    if not ns or ns != list(range(2, 2 + len(ns))):
        raise ValueError(f"{path}: expected consecutive rows n=2,3,... with columns n,a")
    return np.asarray(vals)


class TestEta:
    def test_schema_and_values(self, tmp_path):
        out = tmp_path / "eta.csv"
        assert main(["eta", "--family", "geometric:0.5", "--nmax", "32",
                     "--out", str(out)]) == 0
        meta, data = read_csv(out)
        assert meta["family"] == "geometric:0.5"
        assert list(data) == ["n", "eta", "T", "a"]
        assert data["T"][0] == 2.0
        assert data["a"][2] == pytest.approx(-math.log(2.0))

    def test_not_summable_exit_code(self, tmp_path, capsys):
        rc = main(["eta", "--family", "power:1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "not summable" in capsys.readouterr().err


class TestFixedPoint:
    def test_type1_canonical(self, tmp_path):
        out = tmp_path / "fp.csv"
        rc = main(["fixed-point", "--type1", "--k", "2",
                   "--a2", "-0.693147", "--nmax", "400", "--out", str(out)])
        assert rc == 0
        _, data = read_csv(out)
        n = data["n"]
        # the truncated flag value pins alpha(2) ~ 3.6e-7, so a_n tracks
        # -log(n/(n-1)) at that accuracy while the residual stays exact
        assert np.max(np.abs(data["a"] + np.log(n / (n - 1.0)))) < 1e-5
        mask = ~np.isnan(data["Ra"])
        assert np.max(data["residual"][mask]) < 1e-12

    def test_type1_full_precision_matches_closed_form(self, tmp_path):
        out = tmp_path / "fp.csv"
        rc = main(["fixed-point", "--type1", "--k", "2",
                   "--a2", repr(-math.log(2.0)), "--nmax", "400", "--out", str(out)])
        assert rc == 0
        _, data = read_csv(out)
        n = data["n"]
        assert np.max(np.abs(data["a"] + np.log(n / (n - 1.0)))) < 1e-12

    def test_type2_runs(self, tmp_path):
        out = tmp_path / "fp2.csv"
        rc = main(["fixed-point", "--type2", "--k", "3", "--digits", "0,2",
                   "--depth", "12", "--nmax", "60", "--out", str(out)])
        assert rc == 0
        meta, data = read_csv(out)
        assert meta["depth"] == "12"
        mask = ~np.isnan(data["Ra"])
        assert np.max(data["residual"][mask]) < 1e-5

    def test_type2_default_is_exact(self, tmp_path):
        # l = k = 3: a_n = -log(n/(n-1)), from the series with no depth
        out = tmp_path / "fp2.csv"
        rc = main(["fixed-point", "--type2", "--k", "3", "--digits", "0,1,2",
                   "--nmax", "50", "--out", str(out)])
        assert rc == 0
        meta, data = read_csv(out)
        assert meta["depth"] == "exact"
        n = data["n"]
        _, bounds = quadrature_values(CantorMeasure(DigitSystem(3, (0, 1, 2))), n)
        ref = np.log1p(1.0 / (n - 1.0))
        assert np.all(np.abs(data["a"] + ref) <= bounds + 9 * 2.0**-53 * ref)

    def test_no_b_flag(self, tmp_path, capsys):
        # b is no input of either fixed point, so there is no flag to set it
        rc = main(["fixed-point", "--type1", "--k", "2", "--a2=-0.5", "--b", "1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "--b" in capsys.readouterr().err

    def test_needs_exactly_one_type(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert main(["fixed-point", "--k", "2", "--out", out]) == 2
        assert "one of the arguments --type1 --type2 is required" in capsys.readouterr().err
        assert main(["fixed-point", "--type1", "--type2", "--k", "2", "--out", out]) == 2
        assert "argument --type2: not allowed with argument --type1" in capsys.readouterr().err


class TestApply:
    def test_round_trip_through_files(self, tmp_path):
        fp = tmp_path / "fp.csv"
        main(["fixed-point", "--type1", "--k", "2", "--a2", "-0.6931471805599453",
              "--nmax", "100", "--out", str(fp)])
        out = tmp_path / "ra.csv"
        rc = main(["apply", "--type1", "--k", "2", "--in", str(fp), "--out", str(out)])
        assert rc == 0
        _, fixed = read_csv(fp)
        _, image = read_csv(out)
        m = image["a"].size
        assert np.allclose(image["a"], fixed["a"][:m], atol=1e-12)

    def test_digit_operator_on_file(self, tmp_path):
        fp = tmp_path / "fp.csv"
        main(["fixed-point", "--type2", "--k", "3", "--digits", "0,2",
              "--depth", "12", "--nmax", "90", "--out", str(fp)])
        out = tmp_path / "ra.csv"
        rc = main(["apply", "--type2", "--k", "3", "--digits", "0,2",
                   "--in", str(fp), "--out", str(out)])
        assert rc == 0
        _, fixed = read_csv(fp)
        _, image = read_csv(out)
        m = image["a"].size
        assert np.max(np.abs(image["a"] - fixed["a"][:m])) < 1e-6

    def test_json_round_trip(self, tmp_path):
        fp = tmp_path / "fp.json"
        assert main(["fixed-point", "--type2", "--k", "3", "--digits", "0,2", "--depth", "12",
                     "--nmax", "200", "--out-format", "json", "--out", str(fp)]) == 0
        out = tmp_path / "ra.csv"
        assert main(["apply", "--type2", "--k", "3", "--digits", "0,2",
                     "--in", str(fp), "--out", str(out)]) == 0
        ra = np.array(json.loads(fp.read_text())["data"]["Ra"])
        _, image = read_csv(out)
        assert image["a"].size == 65
        assert np.array_equal(image["a"], ra[~np.isnan(ra)])

    def test_one_column_row_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("n,a\n2,-0.5\n3\n")
        rc = main(["apply", "--type1", "--k", "2", "--in", str(bad),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("name,text,row", [
        ("bad.csv", "# runshift\nn,a,Ra,residual\n2,-0.5,nan,nan\n3,oops,nan,nan\n", "3,oops,nan,nan"),
        ("bad.json", '{"data": {"n": [2.0, 3.0], "a": [-0.5, null]}}', "3.0,None"),
    ])
    def test_unparsable_row_exit_two(self, tmp_path, capsys, name, text, row):
        bad = tmp_path / name
        bad.write_text(text)
        rc = main(["apply", "--type1", "--k", "2", "--in", str(bad),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(bad) in err and repr(row) in err

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_apply_reproduces_ra_bit_for_bit(self, tmp_path, k, fmt):
        fp = tmp_path / f"fp.{fmt}"
        assert main(["fixed-point", "--type1", "--k", str(k), "--a2", "-0.693147",
                     "--nmax", "3000", "--out-format", fmt, "--out", str(fp)]) == 0
        out = tmp_path / "ra.csv"
        assert main(["apply", "--type1", "--k", str(k), "--in", str(fp), "--out", str(out)]) == 0
        ra = (json.loads(fp.read_text())["data"]["Ra"] if fmt == "json"
              else read_csv(fp)[1]["Ra"])
        _, image = read_csv(out)
        assert image["a"].size == np.count_nonzero(~np.isnan(ra))
        assert np.array_equal(image["a"], np.asarray(ra)[: image["a"].size])
        assert np.array_equal(_read_coeffs(str(fp)), reference_read_coeffs(str(fp)))

    @pytest.mark.parametrize("name,text", [
        ("no-header.csv", "2,-0.5\n3,-0.25\n4,-0.125\n"),
        ("header-only-a.csv", "n,a\n2,-0.5\n3,-0.25\n"),
        ("comments-and-blanks.csv",
         "# runshift\n\nn,a,Ra\n2,-0.5,1\n  # a note\n\n   \n3,-0.25,2\n#\n4,1e-300,3\n"),
        ("float-n.csv", "n,a\n2.0,-0.5\n3.0,-0.25\n4.7,0.1\n"),
        ("crlf.csv", "# runshift\r\nn,a\r\n2,-0.5\r\n3,-0.25\r\n"),
        ("spaces.csv", "n , a\n 2 , -0.5 \n3,\t-0.25\n"),
        ("nan-header.csv", "nan,0.5\n2,-0.5\n3,-0.25\n"),
        ("extra-columns.csv", "2,-0.5,x,y\n3,-0.25,,\n"),
        ("nonfinite-a.csv", "n,a\n2,nan\n3,-inf\n4,inf\n"),
    ])
    def test_reader_matches_row_walk(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_bytes(text.encode())
        got = _read_coeffs(str(path))
        assert np.array_equal(got, reference_read_coeffs(str(path)), equal_nan=True)

    @pytest.mark.parametrize("text", [
        "n,a\n2,-0.5\n3\n",  # one column
        "3\n2,-0.5\n",  # one-column first row: not a header
        "n,a\n2,-0.5\n3,\n",  # an empty a
        "n,a\n2,-0.5\n3,oops,nan\n",
        "n,a\n2,-0.5 # a note\n",  # '#' starts a comment only at the start of a line
        "n,a\n2,-0.5\nnan,0.1\n",  # n that is no integer
        "n,a\n2,-0.5\n3,-0.25\n5,0.1\n",  # a gap
        "n,a\n3,-0.5\n",  # not from 2
        "n,a\n",  # no rows
        "",
    ])
    def test_reader_errors_match_row_walk(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as want:
            reference_read_coeffs(str(path))
        with pytest.raises(ValueError, match="^" + re.escape(str(want.value)) + "$"):
            _read_coeffs(str(path))

    @pytest.mark.parametrize("text,cause", [
        ("n,a\n2,-0.5\ninf,0.1\n", "row 'inf,0.1' is not n,a"),
        ("n,a\n2,-0.5\n3,1_0\n", "'1_0'"),  # numpy's message names the cell
    ])
    def test_reader_rejects_what_loadtxt_or_int_refuse(self, tmp_path, text, cause):
        # n = inf overflows int(float(n)); '1_0' is a Python float but no CSV number
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{re.escape(cause)}"):
            _read_coeffs(str(path))

    @pytest.mark.parametrize("n,a,row", [
        ([2, float("inf")], [-0.5, 0.1], "inf,0.1"),
        ([2, 10**400], [-0.5, 0.1], f"{10**400},0.1"),
        ([2, 3], [-0.5, 10**400], f"3,{10**400}"),
    ])
    def test_json_reader_names_a_row_that_overflows(self, tmp_path, n, a, row):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"data": {"n": n, "a": a}}))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: row {re.escape(repr(row))}"
                                             " is not n,a$"):
            _read_coeffs(str(path))

    @pytest.mark.parametrize("text,cause", [
        ('{"data": [1, 2]}', '"data" is not an object of columns n, a'),
        ('{"data": {"n": 5, "a": 3}}', 'column "n" is not a list'),
        ('{"data": {"n": [2, 3], "a": -0.5}}', 'column "a" is not a list'),
        ('{"data": {"n": [2, 3, 4, 5, 6], "a": [-0.5, -0.25, -0.1, 0.2]}}',
         "column n has 5 cells, column a 4"),
    ])
    def test_json_reader_names_malformed_data(self, tmp_path, capsys, text, cause):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        rc = main(["apply", "--type1", "--k", "2", "--in", str(bad),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert f"{bad}: {cause}\n" in capsys.readouterr().err

    def test_unparsable_json_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"data": ')
        rc = main(["apply", "--type1", "--k", "2", "--in", str(bad),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"runshift apply: error: {bad}: Expecting value: line 1 column 10 (char 9)\n")

    def test_missing_file_exit_two(self, tmp_path):
        rc = main(["apply", "--type1", "--k", "2", "--in", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2


class TestIntegrate:
    def test_quadrature_and_mc_columns(self, tmp_path):
        out = tmp_path / "i.csv"
        rc = main(["integrate", "--k", "3", "--digits", "0,2", "--n", "2",
                   "--depth", "12", "--mc", "20000", "--seed", "7", "--out", str(out)])
        assert rc == 0
        meta, data = read_csv(out)
        assert meta["seed"] == "7"
        # against the exact series, not the depth-12 column, whose own error
        # bound (1.2e-6) is far above the standard error
        exact, bound = quadrature(CantorMeasure(DigitSystem(3, (0, 2))), 2)
        assert abs(data["mc"][0] - exact) <= bound + 4.0 * data["mc_stderr"][0]

    def test_default_is_exact(self, tmp_path):
        out = tmp_path / "i.csv"
        assert main(["integrate", "--k", "3", "--digits", "0,1,2", "--n", "2",
                     "--out", str(out)]) == 0
        meta, data = read_csv(out)
        assert meta["depth"] == "exact"
        assert abs(data["I"][0] - math.log(2.0)) <= data["bound"][0] + 2.0**-52
        assert data["bound"][0] < 1e-14

    def test_byte_identical_rerun(self, tmp_path):
        args = ["integrate", "--k", "3", "--digits", "0,2", "--n", "3",
                "--depth", "10", "--mc", "5000", "--seed", "13"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_byte_identical_rerun_across_chunks(self, tmp_path, fmt):
        # 36 passes of 2^13 points, evaluated two passes at a time
        args = ["integrate", "--k", "3", "--digits", "0,2", "--n", "3",
                "--mc", "300000", "--seed", "13", "--out-format", fmt]
        a, b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_too_few_samples_for_the_digits(self, tmp_path, capsys):
        # l = 40 digits need 32 passes of 40 points; the floor of 1000 is not enough
        argv = ["integrate", "--k", "40", "--digits", ",".join(map(str, range(40))), "--n", "2",
                "--out", str(tmp_path / "i.csv"), "--mc"]
        assert main(argv + ["1279"]) == 2
        assert ("need at least 1280 samples for 32 passes over the l = 40 digits, got 1279"
                in capsys.readouterr().err)
        assert main(argv + ["1280"]) == 0

    def test_json_mirror(self, tmp_path):
        out = tmp_path / "i.json"
        rc = main(["integrate", "--k", "3", "--digits", "0,1,2", "--n", "2",
                   "--depth", "10", "--out", str(out), "--out-format", "json"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["version"]
        assert doc["data"]["I"][0] == pytest.approx(math.log(2.0), abs=1e-8)


class TestDecay:
    def test_geometric_correlations_vanish(self, tmp_path):
        out = tmp_path / "d.csv"
        rc = main(["decay", "--family", "geometric:0.5", "--qmax", "32",
                   "--oracle-trunc", "4096", "--out", str(out)])
        assert rc == 0
        _, data = read_csv(out)
        assert list(data) == ["q", "A", "V", "K", "D", "C_oracle", "C_over_D"]
        assert np.max(np.abs(data["C_oracle"])) < 1e-12
        assert np.max(np.abs(data["V"])) < 1e-12

    def test_columns_are_the_renewal_table_and_the_oracle(self, tmp_path):
        # bit for bit: the file's renewal columns are renewal_series on the same eta,
        # and C_oracle is the chain's correlation at those lags
        out = tmp_path / "d.csv"
        assert main(["decay", "--family", "power:3", "--qmax", "64",
                     "--oracle-trunc", "500", "--out", str(out)]) == 0
        meta, data = read_csv(out)
        eta = make_eta("power", {"gamma": 3.0}, int(meta["nmax"]))
        table = renewal_series(eta, 64)
        assert list(data)[:5] == list(table)
        for name, col in table.items():
            assert np.array_equal(data[name], col), name
        c = correlation(build_chain(eta, 500), table["q"])
        assert np.array_equal(data["C_oracle"], c)
        assert np.array_equal(data["C_over_D"], np.abs(c) / table["D"])

    def test_power3_columns_consistent(self, tmp_path):
        out = tmp_path / "d.csv"
        rc = main(["decay", "--family", "power:3", "--qmax", "16",
                   "--oracle-trunc", "2000", "--out", str(out)])
        assert rc == 0
        meta, data = read_csv(out)
        assert float(meta["eps_trunc"]) < 1e-3
        assert np.max(np.abs(data["V"] - (0.5 - data["A"]))) < 1e-12

    @pytest.mark.parametrize("ratio,qmax,nmax", [
        (0.3, 16, 589),  # 0.3^588 is the last normal power
        (0.99, 2000, 10001),  # the default trunc + 1, below the cap
    ])
    def test_geometric_nmax_follows_ratio(self, tmp_path, ratio, qmax, nmax):
        out = tmp_path / "d.csv"
        assert main(["decay", "--family", f"geometric:{ratio}", "--qmax", str(qmax),
                     "--out", str(out)]) == 0
        meta, data = read_csv(out)
        assert meta["nmax"] == str(nmax)
        # a two-state Markov chain keeping its symbol with probability ratio;
        # runs older than time 0 still hold mass of order ratio^q, which the
        # younger runs cancel down to C(q)
        exact = (2.0 * ratio - 1.0) ** data["q"] / 4.0
        scale = np.maximum(np.abs(exact), ratio ** data["q"])
        assert np.all(np.abs(data["C_oracle"] - exact) <= 1e-12 * scale)

    def test_explicit_nmax_is_not_capped(self, tmp_path):
        # past the default cap of 589, but 0.3^599 is still a nonzero double
        out = tmp_path / "d.csv"
        assert main(["decay", "--family", "geometric:0.3", "--qmax", "100",
                     "--nmax", "600", "--out", str(out)]) == 0
        meta, _ = read_csv(out)
        assert meta["nmax"] == "600"

    def test_monte_carlo_columns(self, tmp_path):
        out = tmp_path / "d.csv"
        rc = main(["decay", "--family", "power:3", "--qmax", "4",
                   "--oracle-trunc", "500", "--mc-paths", "20000",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        _, data = read_csv(out)
        assert {"C_mc", "mc_stderr", "eps_trunc"} <= set(data)
        gap = np.abs(data["C_mc"] - data["C_oracle"])
        assert np.all(gap <= 4.0 * data["mc_stderr"])


class TestInverse:
    def test_power_target(self, tmp_path):
        out = tmp_path / "inv.csv"
        rc = main(["inverse", "--target", "power:2", "--qmax", "64", "--out", str(out)])
        assert rc == 0
        meta, data = read_csv(out)
        assert meta["shift"] == "1"
        assert np.max(data["rel_err"]) < 1e-12

    @pytest.mark.parametrize("target", ["power:2", "geometric:0.5", "stretched:0.351"])
    def test_d_columns_are_the_scalar_profile(self, tmp_path, target):
        # the d and d_shift columns are the design's one pass over the scalar callable
        out = tmp_path / "inv.json"
        assert main(["inverse", "--target", target, "--qmax", "300", "--out-format", "json",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())["data"]
        fn = decay_profile(target)
        assert data["d"] == [fn(q) for q in range(1, 301)]
        assert data["d_shift"] == [fn(q) for q in range(2, 302)]


class TestPlumbing:
    def test_unknown_flag_exits_two(self):
        assert main(["decay", "--family", "power:3", "--frobnicate"]) == 2

    def test_missing_subcommand_exits_two(self):
        assert main([]) == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_env_var_default_dir(self, tmp_path, monkeypatch, fmt):
        # the default file is named by the command and the format it holds
        monkeypatch.setenv("RUNSHIFT_OUT_DIR", str(tmp_path))
        rc = main(["eta", "--family", "geometric:0.5", "--nmax", "16", "--out-format", fmt])
        assert rc == 0
        assert [p.name for p in tmp_path.iterdir()] == [f"eta.{fmt}"]

    def test_config_file_defaults_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# eta defaults\n\nfamily = geometric:0.5\nnmax = 16\n")
        out = tmp_path / "eta.csv"
        rc = main(["eta", f"@{cfg}", "--out", str(out)])
        assert rc == 0
        meta, _ = read_csv(out)
        assert meta["nmax"] == "16"
        # a flag after the argument file wins over the file's value
        rc = main(["eta", f"@{cfg}", "--nmax", "24", "--out", str(out)])
        assert rc == 0
        meta, data = read_csv(out)
        assert meta["nmax"] == "24"
        assert data["n"].size == 24
        capsys.readouterr()
        missing = tmp_path / "absent.cfg"
        assert main(["eta", f"@{missing}"]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_argument_file_before_the_subcommand_is_named(self, tmp_path, capsys):
        # @FILE is read after the subcommand only, so a misplaced one is the error named,
        # not a value from inside it
        cfg = tmp_path / "eta.args"
        cfg.write_text("family = geometric:0.5\nnmax = 16\n")
        assert main([f"@{cfg}", "eta"]) == 2
        err = capsys.readouterr().err
        assert f"invalid choice: '@{cfg}'" in err and "geometric" not in err

    def test_config_flag_entries(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "fp.csv"
        cfg.write_text("type1 = true\nk = 2\na2 = -0.6931471805599453\nnmax = 40\n")
        assert main(["fixed-point", f"@{cfg}", "--out", str(out)]) == 0
        assert read_csv(out)[0]["type"] == "1"
        cfg.write_text("type1 = False\ntype2 = true\nk = 3\ndigits = 0,2\n"
                       "depth = 8\nnmax = 20\n")
        assert main(["fixed-point", f"@{cfg}", "--out", str(out)]) == 0
        assert read_csv(out)[0]["type"] == "2"
        capsys.readouterr()
        cfg.write_text("type1 = yes\nk = 2\n")
        assert main(["fixed-point", f"@{cfg}", "--out", str(out)]) == 2
        assert "yes" in capsys.readouterr().err

    def test_python_dash_m_runs_the_cli(self):
        src = os.path.dirname(os.path.dirname(runshift.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        for module in ("runshift", "runshift.cli"):
            proc = subprocess.run([sys.executable, "-m", module, "--help"], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, module
            assert proc.stdout.startswith("usage: runshift"), module

    def test_import_leaves_scipy_unloaded(self, tmp_path):
        # the library needs numpy only: neither the import nor a run of any subcommand,
        # the stretched family's incomplete gamma tails included, loads scipy
        src = os.path.dirname(os.path.dirname(runshift.__file__))
        env = dict(os.environ, RUNSHIFT_OUT_DIR=str(tmp_path), PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        runs = [
            ["eta", "--family", "stretched:0.5", "--nmax", "2000"],
            ["eta", "--family", "stretched:0.005", "--nmax", "100"],
            ["decay", "--family", "stretched:0.5", "--qmax", "64", "--oracle-trunc", "2000",
             "--mc-paths", "100", "--seed", "1"],
            ["inverse", "--target", "stretched:0.5", "--qmax", "100"],
            ["fixed-point", "--type1", "--k", "2", "--a2", "-0.693147", "--nmax", "100",
             "--out", "fp.csv"],
            ["apply", "--type1", "--k", "2", "--in", "fp.csv"],
            ["fixed-point", "--type2", "--k", "3", "--digits", "0,2", "--depth", "8",
             "--nmax", "50"],
            ["integrate", "--k", "3", "--digits", "0,2", "--n", "2", "--depth", "8",
             "--mc", "2000", "--seed", "1"],
        ]
        code = ("import sys, runshift, runshift.cli\n"
                "loaded = 'scipy' in sys.modules\n"
                f"codes = [runshift.cli.main(argv) for argv in {runs!r}]\n"
                "print(loaded, codes, 'scipy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"False {[0] * len(runs)} False"

    @pytest.mark.parametrize("argv,code", [(["--help"], 0), (["decay", "--family", "cubic:3"], 2)])
    def test_console_script_exits_with_main_code(self, monkeypatch, tmp_path, argv, code):
        # the [project.scripts] target, runshift = runshift.cli:entry
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "argv", ["runshift", *argv])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == code == main(argv)

    def test_header_records_version_and_params(self, tmp_path):
        out = tmp_path / "eta.csv"
        main(["eta", "--family", "power:3", "--nmax", "16", "--out", str(out)])
        text = out.read_text()
        assert text.startswith("# runshift ")
        assert "# family=power:3" in text


def reference_table(fmt, meta, columns):
    """The table as the earlier formatter wrote it, cell by cell."""
    if fmt == "json":
        doc = {"meta": {"version": runshift.__version__, **meta}, "columns": list(columns),
               "data": {k: [float(x) for x in v] for k, v in columns.items()}}
        return json.dumps(doc, indent=1) + "\n"
    lines = [f"# runshift {runshift.__version__}"] + [f"# {k}={v}" for k, v in meta.items()]
    lines.append(",".join(columns))
    for row in zip(*columns.values()):
        lines.append(",".join(repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)
                              for x in row))
    return "\n".join(lines) + "\n"


def _special_table(rows):
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 2.0**60, 0.1, 1e16, 1e-5])
    rng = np.random.default_rng(rows)
    x = rng.standard_normal(rows) * 10.0 ** rng.uniform(-300, 300, rows)
    return {"n": np.arange(2, 2 + rows), "x": x, "special": np.resize(special, rows),
            "inf_only": np.r_[np.inf, np.ones(rows - 1)]}


def _zeros_table(rows):
    """Mostly 0.0, with runs of -0.0 and nan, next to a long integer column."""
    z = np.zeros(rows)
    z[rows // 5 : rows // 4] = -0.0
    z[rows // 2 : rows // 2 + 9] = np.nan
    z[-3:] = [1.5, -np.inf, 2.0**-1074]
    ints = np.arange(rows) * 7919 - rows
    ints[:2] = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    return {"i": ints, "residual": z}


def _ints_table():
    """Integer cells at the edges of the doubles' exact integers (|v| <= 2^53), of int64,
    uint64 and int32."""
    i64 = np.iinfo(np.int64)
    ints = np.array([0, -1, 7, -10, 2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 1, 10**16,
                     -(10**16), 10**17 + 1, i64.min, i64.max])
    unsigned = np.array([0, 1, 2**53 + 1, 2**63, 2**64 - 1, 10**19] + [5] * 7, np.uint64)
    i32 = np.iinfo(np.int32)
    narrow = np.array([i32.min, i32.max, -1, 0] + [-7] * 9, np.int32)
    return {"i": ints, "x": ints * 0.5, "u": unsigned, "s": narrow}


class TestTableWriter:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("meta,columns", [
        ({"command": "eta", "alpha": np.float64(0.6309297535714574), "in": "dir/a b.csv"},
         _special_table(2 * _CHUNK + 1)),
        ({"command": "decay"}, _special_table(2 * _CHUNK)),  # rows fill the write chunks
        ({"command": "integrate", "depth": "exact"},  # the one-row shape integrate writes
         {"n": [2], "I": [0.7978997095886927], "bound": [np.float64(1.9e-15)], "mc": [float("nan")]}),
        ({"command": "apply"}, {"n": np.arange(2, 2), "a": np.array([])}),
        # tables of a few hundred rows, one partly filled chunk of each column
        ({"command": "eta"}, _special_table(170)),
        ({"command": "eta"}, _special_table(171)),
        ({"command": "eta"}, _special_table(511)),
        ({"command": "eta"}, _special_table(512)),
        ({"command": "fixed-point"}, _zeros_table(513)),
        ({"command": "fixed-point"}, _zeros_table(3 * _CHUNK)),
        ({"command": "apply"}, _ints_table()),
    ], ids=["special", "whole-chunks", "one-row", "empty", "rows-170", "rows-171",
            "rows-511", "rows-512", "zeros", "zeros-chunks", "ints"])
    def test_bytes_match_reference(self, tmp_path, capsys, fmt, meta, columns):
        out = tmp_path / f"t.{fmt}"
        args = argparse.Namespace(out=str(out), out_format=fmt)
        assert _write_table(args, "unused", meta, columns, "note") == 0
        assert out.read_bytes() == reference_table(fmt, meta, columns).encode()
        assert capsys.readouterr().out == f"wrote {out} (note)\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_does_not_grow_with_rows(self, tmp_path, capsys, fmt):
        # the README's promise: the writer holds a chunk of text, never the table's
        def peak(rows):
            rng = np.random.default_rng(rows)
            columns = {name: rng.standard_normal(rows) for name in "abcd"}  # not traced
            args = argparse.Namespace(out=str(tmp_path / f"t.{fmt}"), out_format=fmt)
            tracemalloc.start()
            try:
                _write_table(args, "unused", {}, columns, "note")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(_CHUNK)  # lookup tables built on first use
        small, large = peak(20_000), peak(200_000)
        assert large - small < 32_000, (small, large)


class TestBadInput:
    @pytest.mark.parametrize("argv,cause", [
        (["eta", "--family", "power:400"], "power(gamma=400.0) underflows double precision at eta_7"),
        (["eta", "--family", "stretched:0.9", "--nmax", "100000"],
         "stretched(theta=0.9) underflows double precision at eta_1554"),
        (["inverse", "--target", "power"], "'power' needs a numeric gamma"),
        (["decay", "--family", "cubic:3"], "unknown family 'cubic'"),
        # an explicit --nmax is kept, so the underflow is named
        (["decay", "--family", "geometric:0.3", "--qmax", "1000", "--nmax", "2000"],
         "geometric(ratio=0.3) underflows double precision at eta_620"),
        (["decay", "--family", "geometric:0.3", "--qmax", "100", "--nmax", "2000"],
         "geometric(ratio=0.3) underflows double precision at eta_620"),
        (["fixed-point", "--type2", "--k", "3", "--digits", "0,2", "--depth", "-1"],
         "argument --depth: must be at least 0, got -1"),
        (["fixed-point", "--type2", "--k", "3", "--digits", "0,,2", "--depth", "5"],
         "--digits '0,,2'"),
        # an optional count set to 0 is named, not taken as absent; --mc has
        # the library's sample floor as its least value
        (["integrate", "--k", "3", "--digits", "0,2", "--n", "2", "--mc", "0"],
         "argument --mc: must be at least 1000, got 0"),
        (["decay", "--family", "power:3", "--qmax", "10", "--oracle-trunc", "100",
          "--mc-paths", "0"], "argument --mc-paths: must be at least 2, got 0"),
        (["decay", "--family", "power:3", "--qmax", "10", "--oracle-trunc", "100", "--nmax", "0"],
         "argument --nmax: must be at least 8, got 0"),
        # the oracle's truncation is named by its flag, not as the library's M
        (["decay", "--family", "stretched:0.5", "--qmax", "10", "--nmax", "8"],
         "--oracle-trunc 10000 needs --nmax at least 10000, got 8"),
        # one path has no standard error
        (["decay", "--family", "power:3", "--qmax", "4", "--oracle-trunc", "100",
          "--mc-paths", "1"], "argument --mc-paths: must be at least 2, got 1"),
        # the library's sample floor, with the count given
        (["integrate", "--k", "3", "--digits", "0,2", "--n", "2", "--mc", "500"],
         "argument --mc: must be at least 1000, got 500"),
        # the flag, its value and the least value that works, not an internal index
        (["fixed-point", "--type2", "--k", "3", "--digits", "0,2", "--nmax", "5"],
         "--nmax 5 is too small: (Ra)_2 needs a_6, so --nmax must be at least 6"),
        (["fixed-point", "--type1", "--k", "3", "--a2=-2", "--nmax", "3"],
         "--nmax 3 is too small: (Ra)_2 needs a_5, so --nmax must be at least 5"),
        # numpy's seeds are non-negative; the flag is named, not numpy's message
        (["integrate", "--k", "3", "--digits", "0,2", "--n", "2", "--mc", "1000", "--seed", "-1"],
         "argument --seed: must be at least 0, got -1"),
        (["decay", "--family", "power:3", "--qmax", "16", "--oracle-trunc", "100",
          "--mc-paths", "10", "--seed", "-1"], "argument --seed: must be at least 0, got -1"),
        # decay's sizes name their flags and least values, not the library's arguments
        (["decay", "--family", "power:3", "--qmax", "0"], "argument --qmax: must be at least 1, got 0"),
        (["decay", "--family", "power:3", "--qmax", "10", "--oracle-trunc", "1"],
         "argument --oracle-trunc: must be at least 2, got 1"),
        (["decay", "--family", "power:3", "--qmax", "100", "--oracle-trunc", "50", "--nmax", "60"],
         "--qmax 100 needs --nmax at least 101, got 60"),
        # the default --nmax of geometric weights stops short of the underflow
        (["decay", "--family", "geometric:0.3", "--qmax", "1000"],
         "--qmax 1000 needs weights up to n = 1001, but geometric:0.3 weights are normal "
         "doubles only up to n = 589"),
        # the other subcommands' sizes name their flags too
        (["inverse", "--target", "power:2", "--qmax", "1"],
         "argument --qmax: must be at least 2, got 1"),
        (["eta", "--family", "power:3", "--nmax", "7"],
         "argument --nmax: must be at least 8, got 7"),
        (["fixed-point", "--type1", "--k", "2", "--a2=-0.5", "--nmax", "1"],
         "argument --nmax: must be at least 2, got 1"),
        # rounding, not the target, breaks monotonicity of its second differences
        (["inverse", "--target", "geometric:0.999999", "--qmax", "3"],
         "second differences d_r - 2 d_(r+1) + d_(r+2) increase from r=2 to r=3"),
        # an index past the greatest --nmax names --k, not an --nmax no flag accepts
        (["fixed-point", "--type1", "--k", str(2**63 - 1), "--a2=-1"],
         f"--k {2**63 - 1} is too large: (Ra)_2 needs a_{2**63 + 1}, past the greatest "
         f"--nmax {2**59}, so no --nmax can serve it"),
        (["fixed-point", "--type2", "--k", str(2**63 - 1), "--digits", f"0,{2**63 - 2}"],
         f"--k {2**63 - 1} is too large: (Ra)_2 needs a_{2**64 - 2}, past the greatest "
         f"--nmax {2**59}, so no --nmax can serve it"),
        # each operator type's own required flag
        (["fixed-point", "--type1", "--k", "2"], "--type1 needs --a2"),
        (["fixed-point", "--type2", "--k", "3"], "--type2 needs --digits"),
    ])
    def test_message_names_the_cause(self, tmp_path, capsys, argv, cause):
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        assert cause in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["decay", "--family", "power:3", "--qmax", "4", "--mc-paths", "1"],
        ["decay", "--family", "power:3", "--qmax", "4", "--nmax", "5"],
        ["integrate", "--k", "3", "--digits", "0,2", "--n", "2", "--mc", "-5"],
        ["integrate", "--k", "3", "--digits", "0,2", "--n", "2", "--depth", "-1"],
        ["fixed-point", "--type2", "--k", "3", "--digits", "0,2", "--depth", "-1"],
    ])
    def test_size_flag_names_itself(self, tmp_path, capsys, argv):
        # argparse names the flag and its least value; the library's parameter names
        # (n_paths, n_max, samples, depth) do not appear
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert f"error: argument {argv[-2]}: must be at least " in err
        assert re.search(r"n_paths|n_max|samples|depth must", err) is None

    @pytest.mark.parametrize("a2", ["nan", "-inf", "-800", "-1e-17"])
    def test_a2_without_finite_alpha_names_a2(self, tmp_path, capsys, a2):
        # nan and -inf once wrote a table of nan and exited 0; -800 and -1e-17 exited 1
        # with an internal error from e^-a_2 and its division
        out = tmp_path / "x.csv"
        assert main(["fixed-point", "--type1", "--k", "2", f"--a2={a2}", "--out", str(out)]) == 2
        assert "runshift fixed-point: error: a_2 " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,argv", [
        ("--n", ["integrate", "--k", "3", "--digits", "0,2", "--n", str(10**20)]),
        ("--n", ["integrate", "--k", "3", "--digits", "0,2", "--n", str(2**63)]),
        ("--k", ["integrate", "--k", str(10**20), "--digits", "0,2", "--n", "2"]),
        ("--k", ["fixed-point", "--type1", "--k", str(10**20), "--a2=-1"]),
        ("--k", ["apply", "--type2", "--k", str(-(2**63) - 1), "--digits", "0,2", "--in", "x"]),
    ])
    def test_index_flag_past_int64_names_itself(self, tmp_path, capsys, flag, argv):
        # 10^20 once exited 1: "Python int too large to convert to C long"
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        assert f"error: argument {flag}: must be at " in capsys.readouterr().err

    @pytest.mark.parametrize("flag,argv", [
        ("--nmax", ["eta", "--family", "power:3", "--nmax", str(10**20)]),
        ("--nmax", ["fixed-point", "--type1", "--k", "2", "--a2=-1", "--nmax", str(2**59 + 1)]),
        ("--qmax", ["decay", "--family", "power:3", "--qmax", str(10**20)]),
        ("--qmax", ["inverse", "--target", "power:2", "--qmax", str(10**20)]),
    ])
    def test_size_past_any_array_names_itself(self, tmp_path, capsys, flag, argv):
        # 10^20 once exited 2 with numpy's "Maximum allowed size exceeded", naming no flag
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        assert f"error: argument {flag}: must be at most {2**59}, got " in capsys.readouterr().err

    @pytest.mark.parametrize("argv,callee", [
        (["eta", "--family", "power:3", "--nmax", "1000000000000"], "make_eta"),
        (["fixed-point", "--type1", "--k", "2", "--a2=-1", "--nmax", "1000000000000"],
         "renorm1_fixed_point"),
    ])
    def test_size_past_the_memory_names_its_flag(self, tmp_path, capsys, monkeypatch, argv,
                                                 callee):
        # numpy's MemoryError, raised here without allocating, once exited 1 as an internal error
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(runshift.cli, callee, no_memory)
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: not enough memory for --nmax 1000000000000: Unable to allocate" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,flag", [
        (["apply", "--type1", "--k", "2", "--digits", "9,9", "--in", "x.csv"], "--digits"),
        (["fixed-point", "--type1", "--k", "2", "--a2=-1", "--digits", "0,1", "--depth", "3"],
         "--digits"),
        (["fixed-point", "--type1", "--k", "2", "--a2=-1", "--depth", "3"], "--depth"),
        (["fixed-point", "--type2", "--k", "3", "--digits", "0,2", "--a2=-1"], "--a2"),
    ])
    def test_flag_of_the_other_operator_type_names_itself(self, tmp_path, capsys, argv, flag):
        # each once exited 0, the flag ignored
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert f"error: {flag} is not used by --type{argv[1][-1]}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["integrate", "--k", "3", "--digits", "0,2", "--n", "2"],
        ["fixed-point", "--type2", "--k", "3", "--digits", "0,2", "--nmax", "50"],
    ])
    def test_depth_past_double_precision_is_rejected(self, tmp_path, capsys, argv):
        # past depth 1075, k^-depth is 0.0 for every k >= 2, and the cost grows with the depth
        assert 2.0**-1075 == 0.0 < 2.0**-1074
        out = str(tmp_path / "x.csv")
        assert main(argv + ["--depth", "1076", "--out", out]) == 2
        assert "error: argument --depth: must be at most 1075, got 1076" in capsys.readouterr().err
        assert main(argv + ["--depth", "1075", "--out", out]) == 0

    def test_largest_int64_index_has_a_positive_bound(self, tmp_path):
        # 2 n wrapped in int64 arithmetic and the bound came out -3.4e-13
        out = tmp_path / "x.csv"
        n = str(2**63 - 1)
        assert main(["integrate", "--k", "3", "--digits", "0,2", "--n", n, "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert 0.0 < data["bound"][0] <= 1e-14 * data["I"][0]

    @pytest.mark.parametrize("sizes,cause", [
        # the default --nmax stops where the weights do, so --oracle-trunc is named
        (["--qmax", "100"], "--oracle-trunc 10000 needs weights up to n = 10000, but "
                            "stretched:0.9 weights are nonzero doubles only up to n = 1553"),
        (["--qmax", "100", "--nmax", "1000"],
         "--oracle-trunc 10000 needs --nmax at least 10000, got 1000, but stretched:0.9 "
         "weights are nonzero doubles only up to n = 1553"),
        (["--qmax", "2000", "--oracle-trunc", "100"],
         "--qmax 2000 needs weights up to n = 2001, but stretched:0.9 weights are nonzero "
         "doubles only up to n = 1553"),
    ])
    def test_decay_sizes_past_the_weights_name_the_flags(self, tmp_path, capsys, sizes, cause):
        argv = ["decay", "--family", "stretched:0.9", *sizes, "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        assert f"runshift decay: error: {cause}\n" == capsys.readouterr().err

    @pytest.mark.parametrize("sizes,nmax", [
        (["--oracle-trunc", "1553"], "1553"),  # the default stops at the last nonzero weight
        (["--oracle-trunc", "999", "--nmax", "1000"], "1000"),
    ])
    def test_decay_sizes_within_the_weights_run(self, tmp_path, sizes, nmax):
        out = tmp_path / "d.csv"
        argv = ["decay", "--family", "stretched:0.9", "--qmax", "100", *sizes, "--out", str(out)]
        assert main(argv) == 0
        assert read_csv(out)[0]["nmax"] == nmax

    @pytest.mark.parametrize("argv,least", [
        (["fixed-point", "--type2", "--k", "3", "--digits", "0,2"], 6),
        (["fixed-point", "--type1", "--k", "3", "--a2=-2"], 5),
        (["decay", "--family", "power:3", "--qmax", "100", "--oracle-trunc", "50"], 101),
    ])
    def test_named_least_nmax_is_the_least(self, tmp_path, argv, least):
        out = str(tmp_path / "x.csv")
        assert main(argv + ["--nmax", str(least), "--out", out]) == 0
        assert main(argv + ["--nmax", str(least - 1), "--out", out]) == 2

    def test_short_input_file_is_named(self, tmp_path, capsys):
        # rows n=2..5 stop one short of a_6, which (Ra)_2 of (3; 0, 2) reads
        short = tmp_path / "short.csv"
        short.write_text("n,a\n" + "".join(f"{n},-0.5\n" for n in range(2, 6)))
        argv = ["apply", "--type2", "--k", "3", "--digits", "0,2", "--in", str(short),
                "--out", str(tmp_path / "y.csv")]
        assert main(argv) == 2
        assert f"{short}: rows n=2..5 are too few, (Ra)_2 needs a_6" in capsys.readouterr().err
        short.write_text(short.read_text() + "6,-0.5\n")
        assert main(argv) == 0
