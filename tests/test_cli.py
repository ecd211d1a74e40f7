import argparse
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import runshift
from runshift import CantorMeasure, DigitSystem, quadrature_values
from runshift.cli import _CHUNK, _write_table, entry, main


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

    def test_needs_exactly_one_type(self, tmp_path, capsys):
        rc = main(["fixed-point", "--k", "2", "--out", str(tmp_path / "x.csv")])
        assert rc == 2


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
        assert abs(data["mc"][0] - data["I"][0]) <= 4.0 * data["mc_stderr"][0]

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


class TestPlumbing:
    def test_unknown_flag_exits_two(self):
        assert main(["decay", "--family", "power:3", "--frobnicate"]) == 2

    def test_missing_subcommand_exits_two(self):
        assert main([]) == 2

    def test_env_var_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RUNSHIFT_OUT_DIR", str(tmp_path))
        rc = main(["eta", "--family", "geometric:0.5", "--nmax", "16"])
        assert rc == 0
        assert (tmp_path / "eta.csv").exists()

    def test_config_file_defaults_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = geometric:0.5\nnmax = 16\n")
        out = tmp_path / "eta.csv"
        rc = main(["eta", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        meta, _ = read_csv(out)
        assert meta["nmax"] == "16"
        # explicit flag wins over the config value
        rc = main(["eta", "--config", str(cfg), "--nmax", "24", "--out", str(out)])
        assert rc == 0
        meta, data = read_csv(out)
        assert meta["nmax"] == "24"
        assert data["n"].size == 24

    def test_config_flag_entries(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "fp.csv"
        cfg.write_text("type1 = true\nk = 2\na2 = -0.6931471805599453\nnmax = 40\n")
        assert main(["fixed-point", "--config", str(cfg), "--out", str(out)]) == 0
        assert read_csv(out)[0]["type"] == "1"
        cfg.write_text("type1 = False\ntype2 = true\nk = 3\ndigits = 0,2\n"
                       "depth = 8\nnmax = 20\n")
        assert main(["fixed-point", "--config", str(cfg), "--out", str(out)]) == 0
        assert read_csv(out)[0]["type"] == "2"
        cfg.write_text("type1 = yes\nk = 2\n")
        assert main(["fixed-point", "--config", str(cfg), "--out", str(out)]) == 2
        assert "type1 is a flag; set type1=true or type1=false" in capsys.readouterr().err

    def test_python_dash_m_runs_the_cli(self):
        src = os.path.dirname(os.path.dirname(runshift.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        for module in ("runshift", "runshift.cli"):
            proc = subprocess.run([sys.executable, "-m", module, "--help"], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, module
            assert proc.stdout.startswith("usage: runshift"), module

    def test_import_leaves_scipy_unloaded(self):
        # scipy is loaded by the stretched tail model only, not at import
        src = os.path.dirname(os.path.dirname(runshift.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, runshift, runshift.cli; print('scipy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

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
         "depth must be a nonnegative integer, got -1"),
        (["fixed-point", "--type2", "--k", "3", "--digits", "0,,2", "--depth", "5"],
         "--digits '0,,2'"),
        # an optional count set to 0 is named, not taken as absent; --mc has
        # the library's sample floor as its only rule
        (["integrate", "--k", "3", "--digits", "0,2", "--n", "2", "--mc", "0"],
         "need at least 1000 samples, got 0"),
        (["decay", "--family", "power:3", "--qmax", "10", "--oracle-trunc", "100",
          "--mc-paths", "0"], "argument --mc-paths: must be at least 1, got 0"),
        (["decay", "--family", "power:3", "--qmax", "10", "--oracle-trunc", "100", "--nmax", "0"],
         "argument --nmax: must be at least 1, got 0"),
        # the oracle's truncation, not the ratio arrays it reads, is named
        (["decay", "--family", "stretched:0.5", "--qmax", "10", "--nmax", "8"],
         "truncation M=10000 needs n_max >= 10000"),
        # one path has no standard error
        (["decay", "--family", "power:3", "--qmax", "4", "--oracle-trunc", "100",
          "--mc-paths", "1"], "n_paths must be at least 2 for a standard error, got 1"),
        # the library's sample floor, with the count given
        (["integrate", "--k", "3", "--digits", "0,2", "--n", "2", "--mc", "500"],
         "need at least 1000 samples, got 500"),
        # the flag, its value and the least value that works, not an internal index
        (["fixed-point", "--type2", "--k", "3", "--digits", "0,2", "--nmax", "5"],
         "--nmax 5 is too small: (Ra)_2 needs a_6, so --nmax must be at least 6"),
        (["fixed-point", "--type1", "--k", "3", "--a2=-2", "--nmax", "3"],
         "--nmax 3 is too small: (Ra)_2 needs a_5, so --nmax must be at least 5"),
    ])
    def test_message_names_the_cause(self, tmp_path, capsys, argv, cause):
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        assert cause in capsys.readouterr().err

    @pytest.mark.parametrize("argv,least", [
        (["fixed-point", "--type2", "--k", "3", "--digits", "0,2"], 6),
        (["fixed-point", "--type1", "--k", "3", "--a2=-2"], 5),
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
