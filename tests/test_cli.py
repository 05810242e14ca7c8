"""CLI: exit codes, output schemas, reproducibility."""

import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import phasenoise
from phasenoise import (OscillatorParams, ThreeGppParams, __version__, cli, db, gen_composite,
                        load_points, phasor_psd, pn_psd, save_points, sir_for_pulse,
                        threegpp_psd, timegen, undb)
from phasenoise.cli import run
from phasenoise.timegen import load_stream_bin


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def data_section(text: str) -> str:
    return "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert run(["nosuchcommand"]) == 2
        capsys.readouterr()
        assert run(["psd", "--no-such-flag", "1"]) == 2
        capsys.readouterr()

    def test_runs_share_one_parser(self, capsys):
        # the parser is built at most once, and a failed or JSON run leaves
        # nothing behind for the next run to see
        psd = ["psd", "--f3db", "10", "--l100-db", "-88", "--n", "5"]
        cli.build_parser.cache_clear()
        runs = [run_capture(capsys, argv) for argv in
                (psd, ["psd", "--n", "five"], [*psd, "--format", "json"], psd)]
        assert cli.build_parser.cache_info().misses <= 1
        assert [code for code, _, _ in runs] == [0, 2, 0, 0]
        assert runs[2][1].startswith("{")
        assert runs[3][1] == runs[0][1] and runs[3][2] == runs[0][2] == ""

    def test_runtime_error_is_1(self, capsys):
        code, out, err = run_capture(capsys, ["fit", "--points", "/nonexistent.csv"])
        assert code == 1
        assert "error" in err

    def test_missing_model_is_1(self, capsys):
        code, _, err = run_capture(capsys, ["psd"])
        assert code == 1
        assert "model required" in err

    def test_sir_without_rho_is_usage_error(self, capsys):
        code, _, err = run_capture(capsys, ["sir", "--n-symbols", "20000"])
        assert code == 2
        assert "--rho" in err and "Traceback" not in err

    def test_sir_rho_options_exclusive(self, capsys):
        code, _, err = run_capture(capsys, ["sir", "--rho", "1e-3",
                                            "--sweep-rho", "1e-4:1e-2"])
        assert code == 2
        assert "Traceback" not in err

    def test_config_unknown_key_is_1(self, capsys, tmp_path):
        from phasenoise import LinkConfig
        model = OscillatorParams(f3db=0.0, l100_sq=1e-9)
        good = json.loads(LinkConfig(n_symbols=20000, pn_mode="dt", pn_model=model).to_json())
        member = dict(good["pn_model"][0], f3dB=1.0)
        for doc, msg in (
                (dict(good, bogus=1, esn0=3), "unknown link config keys: 'bogus', 'esn0'"),
                (dict(good, pn_model=[member]), "unknown pn_model member keys: 'f3dB'"),
                (dict(good, pn_model=[{"linf_sq": 0.0}]),
                 "missing pn_model member keys: 'f3db', 'l100_sq'"),
                # a key is echoed quoted, so that the message stays one line
                ({**good, "a\nb": 1}, "unknown link config keys: 'a\\nb'"),
                ([1], "link config must be a JSON object"),
                (dict(good, pn_model=[1]), "pn_model member must be a JSON object"),
                (dict(good, filter_span=8), "filter_span must be >= 16")):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(doc))
            code, out, err = run_capture(capsys, ["ber", "--config", str(path)])
            assert code == 1
            assert out == ""
            assert err.count("\n") == 1 and "Traceback" not in err
            assert msg in err

    def test_subnormal_rho_is_1(self, capsys):
        code, out, err = run_capture(capsys, ["errors", "--sweep-rho", "1e-320:1e-300:3"])
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("mode", ["ct", "dt"])
    @pytest.mark.parametrize("esn0_db", ["-3050", "-3100", "-3300", "3090"])
    def test_esn0_db_beyond_a_double_is_1(self, capsys, mode, esn0_db):
        # these once escaped as numpy warnings, ZeroDivisionError or OverflowError
        code, out, err = run_capture(capsys, [
            "ber", "--pn", mode, "--f3db", "10", "--l100-db", "-88", "--linf-db", "-114",
            "--n-symbols", "5000", f"--esn0-db={esn0_db}"])
        assert code == 1
        assert out == ""
        assert err == ("phasenoise: error: esn0_db must be in [-1000, 1000] dB, "
                       f"got {float(esn0_db)}\n")

    def test_unallocatable_grid_is_1(self, capsys):
        # 711 PiB exceeds any address space, so the allocation fails at once
        code, out, err = run_capture(capsys, ["psd", "--f3db", "10", "--l100-db", "-88",
                                              "--n", "100000000000000000"])
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["gen", "--f3db", "10", "--l100-db", "-88", "--ts", "0", "--n", "3"],
        ["gen", "--f3db", "0", "--l100-db", "-88", "--ts", "0", "--n", "3"],
        ["validate", "--f3db", "10", "--l100-db", "-88", "--ts", "0"]],
        ids=["gen_pll", "gen_free_running", "validate"])
    def test_zero_ts_is_1(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert code == 1
        assert out == ""
        assert err == "phasenoise: error: ts must be > 0, got 0.0\n"

    def test_pole_rounding_to_one_is_a_random_walk(self, capsys):
        # f3db*ts = 1e-299 rounds the pole to 1.0: the f3db*ts -> 0 limit runs
        code, _, err = run_capture(capsys, ["ber", "--pn", "dt", "--f3db", "10", "--l100-db",
                                            "-88", "--ts", "1e-300", "--n-symbols", "100"])
        assert code == 0 and err == ""

    def test_success_is_0(self, capsys):
        code, out, _ = run_capture(
            capsys, ["errors", "--l100-db", "-88", "--ts", "1e-7"])
        assert code == 0


class TestErrors:
    def test_table_row(self, capsys):
        code, out, _ = run_capture(
            capsys, ["errors", "--l100-db", "-88", "--ts", "1e-7", "--f3db", "10"])
        assert code == 0
        header, row = data_section(out).splitlines()
        cols = header.split(",")
        vals = dict(zip(cols, (float(x) for x in row.split(","))))
        assert vals["eta"] == pytest.approx(4.2e-5, rel=0.02)
        assert vals["alias_normalized"] == pytest.approx(1.3e-6, rel=0.05)
        assert vals["eta"] == pytest.approx(vals["eta_d"] + vals["eta_isi"], rel=1e-12)

    def test_rho_sweep(self, capsys):
        code, out, _ = run_capture(capsys, ["errors", "--sweep-rho", "1e-5:1e-1:9"])
        assert code == 0
        rows = data_section(out).splitlines()[1:]
        assert len(rows) == 9
        etas = [float(r.split(",")[1]) for r in rows]
        assert etas == sorted(etas)


class TestPsd:
    def test_model_sweep(self, capsys):
        code, out, _ = run_capture(capsys, [
            "psd", "--f3db", "10", "--l100-db", "-88", "--linf-db", "-114",
            "--fmin", "1", "--fmax", "1e8", "--n", "50"])
        assert code == 0
        rows = data_section(out).splitlines()[1:]
        assert len(rows) == 50
        p = OscillatorParams.from_db(10, -88, -114)
        f0, v0 = (float(x) for x in rows[0].split(","))
        assert v0 == pytest.approx(10 * math.log10(pn_psd(p, f0)), abs=1e-9)

    THREEGPP = ["--threegpp-psd0-db", "35.65257",
                "--threegpp-zero", "3e3,2.37", "--threegpp-zero", "451e3,2.7",
                "--threegpp-zero", "458e6,2.53",
                "--threegpp-pole", "1,3.3", "--threegpp-pole", "1.54e6,3.3",
                "--threegpp-pole", "30e6,1"]

    def test_threegpp(self, capsys):
        code, out, _ = run_capture(capsys, [
            "psd", *self.THREEGPP, "--fmin", "1", "--fmax", "1", "--n", "1"])
        assert code == 0
        row = data_section(out).splitlines()[1]
        assert float(row.split(",")[1]) == pytest.approx(32.64, abs=0.01)

    def test_threegpp_column_is_the_array_evaluation(self, capsys):
        # the column is db(threegpp_psd) of the grid's array, bit for bit; one
        # 0-d evaluation per row differs in the last bit at some of these points
        code, out, _ = run_capture(capsys, [
            "psd", *self.THREEGPP, "--fmin", "10", "--fmax", "1e9", "--n", "500"])
        assert code == 0
        rows = np.array([[float(x) for x in ln.split(",")]
                         for ln in data_section(out).splitlines()[1:]])
        tg = ThreeGppParams(psd0=undb(35.65257),
                            zeros=((3e3, 2.37), (451e3, 2.7), (458e6, 2.53)),
                            poles=((1.0, 3.3), (1.54e6, 3.3), (30e6, 1.0)))
        grid = np.logspace(1, 9, 500)
        assert np.array_equal(rows[:, 0], grid)
        assert np.array_equal(rows[:, 1], db(threegpp_psd(tg, grid)))

    def test_points_column(self, capsys, tmp_path):
        pts = np.array([[10.0, -20.0], [1e3, -40.0], [1e5, -88.0], [1e7, -114.0]])
        path = tmp_path / "pts.csv"
        save_points(pts, path)
        code, out, _ = run_capture(capsys, [
            "psd", "--f3db", "10", "--l100-db", "-88", "--points", str(path)])
        assert code == 0
        lines = data_section(out).splitlines()
        assert lines[0] == "freq_hz,psd_db,points_db"
        assert len(lines) == 5

    def test_phasor_at_a_vanishing_corner(self, capsys):
        # c = pi*amp/f3db ~ 5e21: the free-running phasor form at every row
        code, out, err = run_capture(capsys, [
            "psd", "--f3db", "1e-20", "--l100-db", "-88", "--phasor", "--n", "5"])
        assert code == 0 and err == ""
        rows = np.array([[float(x) for x in ln.split(",")]
                         for ln in data_section(out).splitlines()[1:]])
        assert rows.shape == (5, 3) and np.all(np.isfinite(rows[:, 2]))
        free = OscillatorParams.from_db(0.0, -88.0)
        assert np.array_equal(rows[:, 2], db(phasor_psd(free, rows[:, 0]).continuous))

    def test_composite_flag(self, capsys):
        # the 2 MHz corner lies above f_ref/10: its model entry carries the flag
        code, out, err = run_capture(capsys, [
            "psd", "--process", "7e2,-105,-200", "--process", "2e6,-65,-140",
            "--fmin", "1e3", "--fmax", "1e9", "--n", "10"])
        assert code == 0
        assert err == ""
        assert out.splitlines()[0] == ("# model=f3db=700,l100_db=-105,linf_db=-200;"
                                       "f3db=2e+06,l100_db=-65,linf_db=-140,"
                                       "flag=corner-above-f_ref/10")
        assert len(data_section(out).splitlines()) == 11


@pytest.mark.parametrize("argv", [
    ["psd"], ["autocorr"], ["gen", "--ts", "1e-7", "--n", "8"],
    ["validate", "--ts", "1e-7", "--n", "4096", "--segment-len", "1024"],
    ["ber", "--pn", "dt", "--n-symbols", "2000", "--esn0-db", "10"]])
def test_every_model_header_flags_a_high_corner(capsys, argv):
    code, out, err = run_capture(capsys, [*argv, "--f3db", "2e4", "--l100-db", "-88"])
    assert code == 0
    assert err == ""
    assert "# model=f3db=20000,l100_db=-88,flag=corner-above-f_ref/10" in out.splitlines()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, names", [
    (["psd", "--f3db", "nan", "--l100-db", "-88"], "f3db=nan"),
    (["psd", "--f3db", "10", "--l100-db", "inf"], "l100_sq=inf"),
    (["psd", "--f3db", "10", "--l100-db", "-88", "--linf-db", "inf"], "linf_sq=inf"),
    (["psd", "--f3db", "10", "--l100-db", "-88", "--f-ref", "inf"], "f_ref=inf"),
    (["ber", "--esn0-db", "nan"], "esn0_db must be a finite number, got nan"),
    (["ber", "--esn0-db=-inf"], "esn0_db must be a finite number, got -inf"),
    (["ber", "--ts", "inf", "--esn0-db", "8"], "ts must be a finite number, got inf"),
    (["ber", "--config", "CONFIG", "--esn0-db", "8"], "ts must be a finite number, got inf"),
    (["gen", "--f3db", "0", "--l100-db", "-88", "--ts", "inf", "--n", "3"],
     "sigma_u_sq must be finite and >= 0, got inf"),
    (["gen", "--f3db", "0", "--l100-db", "-88", "--ts", "1e308", "--n", "3"],
     "sigma_u_sq must be finite and >= 0, got inf"),
    (["autocorr", "--f3db", "10", "--l100-db", "-88", "--tau-max", "inf"],
     "need 0 < lo <= hi < inf, got 1e-09:inf"),
    (["errors", "--sweep-rho", "1e-4:inf:3"], "need 0 < lo <= hi < inf, got 0.0001:inf"),
    (["errors", "--l100-db", "-88", "--ts", "1e-7", "--f3db", "nan"],
     "--f3db must be finite and >= 0, got nan"),
    (["errors", "--l100-db", "-88", "--ts", "1e-7", "--f3db", "-5"],
     "--f3db must be finite and >= 0, got -5.0"),
    (["errors", "--l100-db", "1e308", "--ts", "1e-7"], "1e+308 dB overflows a double"),
    # densities that overflow to 0 or nan at large offsets, or to inf at a tiny one
    (["psd", "--f3db", "10", "--l100-db", "-88", "--fmax", "1e300", "--n", "2"],
     "no finite positive level at 1e+300 Hz, in the requested 1 to 1e+300 Hz"),
    (["psd", "--f3db", "10", "--l100-db", "-88", "--points", "POINTS"],
     "no finite positive level at 1e+200 Hz, in the requested 1000 to 1e+200 Hz"),
    (["psd", "--threegpp-psd0-db", "35.65257", "--threegpp-zero", "3e3,2.37",
      "--threegpp-zero", "451e3,2.7", "--threegpp-zero", "458e6,2.53",
      "--threegpp-pole", "1,3.3", "--threegpp-pole", "1.54e6,3.3",
      "--threegpp-pole", "30e6,1", "--fmax", "1e100"],
     "Hz, in the requested 1 to 1e+100 Hz"),
    (["psd", "--f3db", "0", "--l100-db", "-88", "--fmin", "1e-200", "--fmax", "1", "--n", "2"],
     "no finite positive level at 1e-200 Hz, in the requested 1e-200 to 1 Hz"),
    (["psd", "--threegpp-psd0-db", "35", "--threegpp-zero", "3e3", "--threegpp-pole", "1,3.3"],
     "--threegpp-zero needs FREQ,EXP: '3e3'"),
    (["psd", "--threegpp-psd0-db", "35", "--threegpp-zero", "3e3,2.37",
      "--threegpp-pole", "3e3,2,1"], "--threegpp-pole needs FREQ,EXP: '3e3,2,1'"),
    # dB levels that overflow a double
    (["psd", "--f3db", "10", "--l100-db", "1e308"], "1e+308 dB overflows a double"),
    (["psd", "--f3db", "10", "--l100-db", "-88", "--linf-db", "1e308"],
     "1e+308 dB overflows a double"),
    (["psd", "--process", "10,-88,1e308"], "1e+308 dB overflows a double"),
    # a subnormal corner or period: pi*amp/f3db or the rate 1/ts overflows
    (["autocorr", "--f3db", "5e-324", "--l100-db", "1e-9", "--n", "3"],
     "pi*amp/f3db overflows at f3db = 5e-324"),
    (["validate", "--ts", "5e-324", "--f3db", "0", "--l100-db", "-88"],
     "--ts 5e-324 has no finite sampling rate"),
    # parameters whose squares or Lorentzian numerator overflow
    (["psd", "--f3db", "1e200", "--l100-db", "-88", "--n", "3"],
     "f3db**2 must be finite, got f3db = 1e+200"),
    (["psd", "--f3db", "1e200", "--l100-db", "-88", "--n", "3", "--phasor"],
     "f3db**2 must be finite, got f3db = 1e+200"),
    (["psd", "--f3db", "10", "--l100-db", "-88", "--f-ref", "1e200", "--n", "3"],
     "pi*f_ref**2*l100_sq must be finite, got f_ref = 1e+200"),
    # malformed number lists and counts name their flag
    (["sir", "--rho", "abc"], "--rho needs a comma list of numbers: 'abc'"),
    (["sir", "--rho", "1e-3", "--rolloffs", "x"], "--rolloffs needs a comma list of numbers: 'x'"),
    (["ber", "--esn0-db", ","], "--esn0-db needs a comma list of numbers: ','"),
    (["psd", "--process", "1,2,x"], "--process needs F3DB,L100DB[,LINFDB]: '1,2,x'"),
    (["psd", "--threegpp-psd0-db", "35", "--threegpp-zero", "3e3,x", "--threegpp-pole", "1,3.3"],
     "--threegpp-zero needs FREQ,EXP: '3e3,x'"),
    (["errors", "--sweep-rho", "1:2:x"],
     "--sweep-rho needs LO:HI[:N], N a whole number >= 0: '1:2:x'"),
    (["sir", "--sweep-rho", "1e-3:1e-2:-1"], "--sweep-rho needs LO:HI[:N], N a whole number >= 0"),
    (["errors", "--sweep-rho", "1e-3:1e-2:2.5"], "--sweep-rho needs LO:HI[:N], N a whole"),
    (["errors", "--sweep-rho", "1e-3:1e-2:inf"], "--sweep-rho needs LO:HI[:N], N a whole"),
    (["psd", "--f3db", "10", "--l100-db", "-88", "--n", "-1"], "grid count must be >= 0, got -1"),
    (["sir", "--rho", "1e-3", "--rolloffs", "nan"], "rolloff must be a finite number, got nan"),
    (["ber", "--pn", "ct", "--f3db", "10", "--l100-db", "-88", "--span", "8"],
     "filter_span must be >= 16"),
    (["ber", "--pn", "dt", "--f3db", "10", "--l100-db", "-88", "--span", "8"],
     "filter_span must be >= 16")])
def test_non_finite_argument_is_one_error_line(capsys, tmp_path, argv, names):
    config = tmp_path / "cfg.json"
    config.write_text('{"ts": Infinity, "n_symbols": 2000}')
    points = tmp_path / "pts.csv"
    points.write_text("freq_hz,level_db\n1e3,-80\n1e200,-100\n")
    files = {"CONFIG": str(config), "POINTS": str(points)}
    code, out, err = run_capture(capsys, [files.get(a, a) for a in argv])
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("phasenoise: error: ")
    assert names in err
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("argv", [
    ["psd", "--f3db", "10", "--l100-db", "-88", "--n", "50", "--phasor"],
    ["psd", "--f3db", "10", "--l100-db", "-88", "--linf-db", "-114", "--points", "POINTS"],
    ["psd", "--f3db", "10", "--l100-db", "-88", "--n", "0"],
    ["autocorr", "--f3db", "10", "--l100-db", "-88", "--n", "50"],
    ["autocorr", "--f3db", "0", "--l100-db", "-88", "--n", "50"],
    ["errors", "--sweep-rho", "1e-4:1e-1:9"]],
    ids=["psd_phasor", "psd_points", "psd_empty", "autocorr_pll", "autocorr_free_running",
         "errors_sweep"])
def test_table_bytes_independent_of_block(capsys, tmp_path, monkeypatch, argv):
    # the same bytes in blocks of 7 rows formatted 3 at a time, to stdout and
    # to a file; a JSON table, NaN cells and empty rows included, is the
    # json.dumps(..., indent=2, sort_keys=True) of its own document
    points = tmp_path / "pts.csv"
    save_points(np.column_stack([np.logspace(1, 8, 40), np.linspace(-20, -114, 40)]), points)
    argv = [str(points) if a == "POINTS" else a for a in argv]
    outs = {}
    for block, rows in ((cli._BLOCK, timegen._CSV_ROWS), (7, 3)):
        monkeypatch.setattr(cli, "_BLOCK", block)
        monkeypatch.setattr(timegen, "_CSV_ROWS", rows)
        for fmt in ("csv", "json"):
            code, out, _ = run_capture(capsys, [*argv, "--format", fmt])
            assert code == 0
            path = tmp_path / f"{block}.{fmt}"
            assert run([*argv, "--format", fmt, "-o", str(path)]) == 0
            assert path.read_text() == out
            outs.setdefault(fmt, set()).add(out)
    assert len(outs["csv"]) == len(outs["json"]) == 1
    (text,) = outs["json"]
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestGen:
    def test_csv_stdout_matches_library(self, capsys):
        code, out, _ = run_capture(capsys, [
            "gen", "--f3db", "10", "--l100-db", "-88", "--ts", "1e-7",
            "--n", "64", "--seed", "9"])
        assert code == 0
        rows = data_section(out).splitlines()[1:]
        got = np.array([float(r.split(",")[1]) for r in rows])
        want = gen_composite(OscillatorParams.from_db(10, -88), 1e-7, 64, 9).samples
        assert np.array_equal(got, want)

    def test_binary_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "s.bin"
        code = run(["gen", "--f3db", "10", "--l100-db", "-88", "--linf-db", "-114",
                    "--ts", "1e-7", "--n", "256", "--seed", "4", "--binary",
                    "-o", str(path)])
        capsys.readouterr()
        assert code == 0
        stream = load_stream_bin(path)
        want = gen_composite(OscillatorParams.from_db(10, -88, -114), 1e-7, 256, 4)
        assert np.array_equal(stream.samples, want.samples)

    def test_csv_bytes_pinned(self, capsys, tmp_path, monkeypatch):
        # stdout and file bytes of a small run, written in blocks of 7 rows
        # and in one block, against the bytes of the per-row writer
        argv = ["gen", "--f3db", "10", "--l100-db", "-88", "--linf-db", "-114",
                "--ts", "1e-7", "--n", "1000", "--seed", "9"]
        header = (f"# tool=phasenoise\n# version={__version__}\n"
                  "# model=f3db=10,l100_db=-88,linf_db=-114\n# ts=1e-07\n# seed=9\n")
        for rows in (7, timegen._CSV_ROWS):
            monkeypatch.setattr(timegen, "_CSV_ROWS", rows)
            path = tmp_path / f"s{rows}.csv"
            assert run(argv + ["-o", str(path)]) == 0
            body = path.read_bytes()
            assert hashlib.sha256(body).hexdigest() == (
                "8b80af03436b4a92809b573efefea835128d36f310c0cd31b3f526a3a2b233d7")
            code, out, _ = run_capture(capsys, argv)
            assert code == 0 and out.encode() == header.encode() + body

    def test_binary_bytes_pinned(self, tmp_path, monkeypatch):
        # the file bytes, and the CSV file bytes of test_csv_bytes_pinned,
        # drawn in blocks of 7 samples and in the default block
        argv = ["gen", "--f3db", "10", "--l100-db", "-88", "--linf-db", "-114",
                "--ts", "1e-7", "--n", "1000", "--seed", "9"]
        for block in (7, cli._BLOCK):
            monkeypatch.setattr(cli, "_BLOCK", block)
            path = tmp_path / f"s{block}.bin"
            assert run(argv + ["--binary", "-o", str(path)]) == 0
            assert hashlib.sha256(path.read_bytes()).hexdigest() == (
                "1f0fe678e689bbaab568befa39e350b6668a667819c61da846b39b5539215e2d")
            path = tmp_path / f"s{block}.csv"
            assert run(argv + ["-o", str(path)]) == 0
            assert hashlib.sha256(path.read_bytes()).hexdigest() == (
                "8b80af03436b4a92809b573efefea835128d36f310c0cd31b3f526a3a2b233d7")

    def test_byte_determinism(self, capsys):
        argv = ["gen", "--f3db", "10", "--l100-db", "-88", "--ts", "1e-7",
                "--n", "128", "--seed", "31"]
        _, out1, _ = run_capture(capsys, argv)
        _, out2, _ = run_capture(capsys, argv)
        assert out1 == out2


class TestValidate:
    def test_report(self, capsys):
        code, out, _ = run_capture(capsys, [
            "validate", "--f3db", "1e4", "--l100-db", "-88", "--ts", "1e-7",
            "--n", str(2 ** 19), "--segment-len", str(2 ** 12), "--seed", "13",
            "--band-top-fraction", "0.2"])
        assert code == 0
        lines = out.splitlines()
        maxdev = [ln for ln in lines if ln.startswith("# max_dev_db=")]
        assert maxdev and abs(float(maxdev[0].split("=")[1])) < 2.0
        header = data_section(out).splitlines()[0]
        assert header == "freq_hz,est_db,model_db,dev_db"

    @pytest.mark.parametrize("seed", ["3", "4"])
    @pytest.mark.parametrize("model", [
        ["--f3db", "1e4", "--l100-db", "-88"], ["--f3db", "0", "--l100-db", "-88"],
        ["--f3db", "10", "--l100-db", "-88", "--linf-db", "-114"]],
        ids=["pll", "free_running", "sat"])
    def test_model_is_the_sampled_spectrum(self, capsys, model, seed):
        # model_db is the spectrum of the samples gen draws, aliasing included,
        # so the deviation is the Welch estimate's own scatter at the default
        # --n, segment length and band
        code, out, _ = run_capture(capsys, ["validate", *model, "--ts", "1e-7", "--seed", seed])
        assert code == 0
        meta = dict(ln[2:].split("=", 1) for ln in out.splitlines() if ln.startswith("# "))
        assert float(meta["max_dev_db"]) <= 1.0
        assert float(meta["rms_dev_db"]) <= 0.25

    def test_report_independent_of_block(self, capsys, monkeypatch):
        argv = ["validate", "--f3db", "10", "--l100-db", "-88", "--linf-db", "-114",
                "--ts", "1e-7", "--n", str(5 * 2 ** 10 + 3), "--segment-len", str(2 ** 10)]
        outs = []
        for block in (7, 1000, cli._BLOCK):
            monkeypatch.setattr(cli, "_BLOCK", block)
            code, out, _ = run_capture(capsys, argv)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]


# peak RSS of a child process that imports the CLI and runs one command;
# VmHWM, because ru_maxrss keeps the spawning process's peak across exec
_RSS_CHILD = ("import sys\n"
              "from phasenoise.cli import run\n"
              "code = run(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
              "hwm = [ln for ln in open('/proc/self/status') if ln.startswith('VmHWM:')]\n"
              "print(code, hwm[0].split()[1])\n")


def _child_env() -> dict:
    # the environment of a child that imports this package
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(phasenoise.__file__)),
         os.environ.get("PYTHONPATH", "")])}


def _child_stdout(script: str, argv) -> str:
    return subprocess.run([sys.executable, "-c", script, *argv], env=_child_env(), check=True,
                          capture_output=True, text=True, timeout=300).stdout


def _child_max_rss_mb(argv) -> float:
    out = _child_stdout(_RSS_CHILD, argv).split()
    assert out[0] == "0"
    return int(out[1]) / 1024  # kB


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_gen_and_validate_memory_bounded_by_block(tmp_path):
    # 2**22 samples are 32 MB per array; a whole-array path holds several.
    # Each baseline is the same command at the smallest --n it accepts, so
    # that both children load the same modules.
    flags = ["--f3db", "10", "--l100-db", "-88", "--linf-db", "-114", "--ts", "1e-7"]
    for cmd, smallest, out in (("validate", 4 * 2 ** 14, ["-o", str(tmp_path / "v.csv")]),
                               ("gen", 1, ["--binary", "-o", str(tmp_path / "g.bin")])):
        base = _child_max_rss_mb([cmd, *flags, "--n", str(smallest), *out])
        assert _child_max_rss_mb([cmd, *flags, "--n", str(2 ** 22), *out]) - base < 40.0, cmd


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_psd_table_memory_bounded_by_block(tmp_path):
    # a million rows, against a thousand: the grid (8 MB) and one block of
    # rows remain, where a whole-table writer holds 331 MB more
    argv = ["psd", "--f3db", "10", "--l100-db", "-88", "-o", str(tmp_path / "psd.out")]
    for fmt in ("csv", "json"):
        base = _child_max_rss_mb([*argv, "--format", fmt, "--n", "1000"])
        assert _child_max_rss_mb([*argv, "--format", fmt, "--n", "1000000"]) - base < 40.0, fmt


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_link_memory_bounded_for_long_pilot_periods(tmp_path):
    # without a field the tracker must hold the received samples and bits
    # of the whole run, and nothing else per symbol: within 48 B per
    # symbol of the same run at the default period (one whole-run chunk
    # peaks over 140 B per symbol higher)
    n = 500_000
    argv = ["ber", "--pn", "dt", "--constellation", "qam16", "--n-symbols", str(n),
            "--esn0-db", "17", "--f3db", "5e3", "--l100-db", "-95", "--linf-db", "-130",
            "--seed", "3", "-o", str(tmp_path / "ber.csv")]
    base = _child_max_rss_mb(argv)
    long_period = _child_max_rss_mb([*argv, "--pilot-period", str(10 * n)])
    assert long_period - base < 48 * n / 2 ** 20


# the scipy and mpmath modules loaded after `import phasenoise`, after
# importing the CLI and after one command (its stdout discarded), one JSON
# list a line
_SCIPY_CHILD = ("import contextlib, io, json, sys\n"
                "def loaded():\n"
                "    print(json.dumps([m for m in sys.modules\n"
                "                      if m.split('.')[0] in ('scipy', 'mpmath')]))\n"
                "import phasenoise\n"
                "loaded()\n"
                "from phasenoise.cli import run\n"
                "loaded()\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert run(sys.argv[1:]) == 0\n"
                "loaded()\n")


# the satellite PLL model: an AR member and a floor
_SAT_ARGS = ["--f3db", "10", "--l100-db", "-88", "--linf-db", "-114"]


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["errors", "--sweep-rho", "1e-4:1e-2:5"],
    ["psd", "--f3db", "10", "--l100-db", "-88", "--fmin", "1", "--fmax", "1e6"],
    ["psd", "--f3db", "10", "--l100-db", "-88", "--phasor"],
    ["fit", "--points", "sat.csv", "--k", "2"],
    ["validate", "--f3db", "0", "--l100-db", "-100", "--ts", "1e-7", "--n", "65536"],
    ["gen", *_SAT_ARGS, "--ts", "1e-7", "--n", "10000"],
    ["validate", *_SAT_ARGS, "--ts", "1e-7", "--n", "65536"],
    ["ber", "--pn", "dt", *_SAT_ARGS, "--n-symbols", "20000", "--esn0-db", "8"],
    ["ber", "--pn", "ct", *_SAT_ARGS, "--n-symbols", "20000", "--esn0-db", "8"],
    ["sir", "--rho", "1e-3", "--rolloffs", "0.5", "--n-symbols", "20000"],
], ids=["help", "errors", "psd", "psd_phasor", "fit", "validate_free_running", "gen_sat", "validate_sat",
        "ber_dt_sat", "ber_ct_sat", "sir"])
def test_commands_load_only_the_scipy_they_call(tmp_path, monkeypatch, argv):
    # no command calls scipy or mpmath, so none imports them
    monkeypatch.chdir(tmp_path)
    freqs = np.logspace(1, 8, 120)
    sat = OscillatorParams.from_db(10.0, -88.0, -114.0)
    save_points(np.column_stack([freqs, 10 * np.log10(pn_psd(sat, freqs))]), "sat.csv")
    lines = _child_stdout(_SCIPY_CHILD, argv).splitlines()
    assert list(map(json.loads, lines)) == [[], [], []]


def test_mpf_argument_after_import():
    # mpmath imported after the package: the closed forms still see an mpf
    script = ("import phasenoise\n"
              "import mpmath as mp\n"
              "print(type(phasenoise.gamma0(mp.mpf('1e-3'))) is mp.mpf)\n")
    assert _child_stdout(script, []) == "True\n"


@pytest.mark.skipif(sys.platform == "win32", reason="sends SIGINT")
@pytest.mark.parametrize("second_after_s", [None, 0.005])
def test_interrupt_is_one_line_and_exit_130(tmp_path, second_after_s):
    # a `gen` of 10^8 rows interrupted once it has written data, by one
    # SIGINT, or by a second one while the first unwinds (`timeout -s INT`
    # sends one to the process and one to its group); it leaves no file
    out = tmp_path / "out.csv"
    child = subprocess.Popen([sys.executable, "-m", "phasenoise", "gen", *_SAT_ARGS, "--ts", "1e-7",
                              "--n", "100000000", "-o", str(out)],
                             env=_child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                             text=True)
    try:
        deadline = time.monotonic() + 120.0
        while not any(f.stat().st_size for f in tmp_path.iterdir()):
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        child.send_signal(signal.SIGINT)
        if second_after_s is not None:
            time.sleep(second_after_s)
            child.send_signal(signal.SIGINT)
        _, err = child.communicate(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    assert child.returncode == 130
    assert err == "phasenoise: interrupted\n"
    assert list(tmp_path.iterdir()) == []


def test_failed_output_leaves_an_existing_file_as_it_was(tmp_path, monkeypatch):
    # the model fails on the second block of rows, after the first is written
    out = tmp_path / "psd.csv"
    out.write_text("an earlier table\n")
    model_psd, calls = cli.composite_psd, []

    def failing_psd(model, f):
        calls.append(f.size)
        if len(calls) > 2:  # after rows 0 and n-1 (see cli._table) and one block
            raise ValueError("model failed")
        return model_psd(model, f)

    monkeypatch.setattr(cli, "_BLOCK", 100)
    monkeypatch.setattr(cli, "composite_psd", failing_psd)
    assert run(["psd", "--f3db", "10", "--l100-db", "-88", "--n", "300", "-o", str(out)]) == 1
    assert calls == [2, 100, 100]
    assert out.read_text() == "an earlier table\n"
    assert [f.name for f in tmp_path.iterdir()] == ["psd.csv"]


@pytest.mark.parametrize("name", [os.path.join("missing", "g.csv"), ""])
def test_output_that_cannot_be_opened_names_the_path(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_capture(capsys, ["gen", *_SAT_ARGS, "--ts", "1e-7", "--n", "10", "-o", name])
    assert code == 1
    assert err == f"phasenoise: error: [Errno 2] No such file or directory: {name!r}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(sys.platform == "win32", reason="makes a symlink")
def test_output_through_a_symlink_replaces_its_target(tmp_path):
    (tmp_path / "link.bin").symlink_to("target.bin")
    argv = ["gen", *_SAT_ARGS, "--ts", "1e-7", "--n", "100", "--binary", "-o"]
    assert run([*argv, str(tmp_path / "link.bin")]) == 0
    assert run([*argv, str(tmp_path / "plain.bin")]) == 0
    assert (tmp_path / "link.bin").is_symlink()
    assert (tmp_path / "target.bin").read_bytes() == (tmp_path / "plain.bin").read_bytes()
    assert sorted(f.name for f in tmp_path.iterdir()) == ["link.bin", "plain.bin", "target.bin"]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_output_to_dev_stdout_is_written_in_place(tmp_path):
    # a path that is not a regular file cannot be replaced: it is written
    argv = ["gen", *_SAT_ARGS, "--ts", "1e-7", "--n", "1000"]
    assert run([*argv, "-o", str(tmp_path / "g.csv")]) == 0
    child = subprocess.run([sys.executable, "-m", "phasenoise", *argv, "-o", "/dev/stdout"],
                           env=_child_env(), capture_output=True, check=True, timeout=60)
    assert child.stdout == (tmp_path / "g.csv").read_bytes()


class TestSirBer:
    def test_sir_schema(self, capsys):
        code, out, _ = run_capture(capsys, [
            "sir", "--rho", "1e-3", "--rolloffs", "0.5", "--n-symbols", "20000",
            "--seed", "2"])
        assert code == 0
        lines = data_section(out).splitlines()
        assert lines[0] == "rho,sir_db,se,rolloff,closed_form_db,closed_form_pulse_db"
        vals = [float(x) for x in lines[1].split(",")]
        assert vals[1] > vals[4]  # measured above the sinc closed form
        assert vals[5] == pytest.approx(10 * math.log10(sir_for_pulse(0.5, 1e-3, 32, 5)))

    def test_sir_within_4_se_of_pulse_closed_form(self, capsys):
        # the sinc column lies 3-16 dB below the measurement; the pulse
        # column is the closed form of the simulated taps (span 96 at 0.05)
        code, out, _ = run_capture(capsys, [
            "sir", "--rho", "1e-3", "--rolloffs", "0.05,0.5", "--n-symbols", "100000"])
        assert code == 0
        rows = [[float(x) for x in ln.split(",")] for ln in data_section(out).splitlines()[1:]]
        assert [r[3] for r in rows] == [0.05, 0.5]
        for _, sir_db, se, _, sinc_db, pulse_db in rows:
            assert abs(sir_db - pulse_db) < 4 * se
            assert pulse_db - sinc_db > 3.0

    def test_ber_awgn_point(self, capsys):
        code, out, _ = run_capture(capsys, [
            "ber", "--pn", "none", "--esn0-db", "5", "--n-symbols", "50000",
            "--pilot-len", "0", "--seed", "6"])
        assert code == 0
        lines = data_section(out).splitlines()
        assert lines[0] == "esn0_db,ber,se,n_bits,n_errors,ser,evm_rms"
        vals = [float(x) for x in lines[1].split(",")]
        from scipy.special import erfc
        want = 0.5 * erfc(math.sqrt(10 ** 0.5 / 2.0) / math.sqrt(2) * math.sqrt(2))
        # Es/N0 = 5 dB -> Eb/N0 = 2 dB for qpsk; Q(sqrt(2*Eb/N0))
        ebn0 = 10 ** 0.5 / 2.0
        want = 0.5 * erfc(math.sqrt(2 * ebn0) / math.sqrt(2))
        assert vals[1] == pytest.approx(want, abs=3 * vals[2])
        assert int(vals[3]) == 100000

    def test_ber_config_file(self, capsys, tmp_path):
        from phasenoise import LinkConfig
        cfg = LinkConfig(constellation="qpsk", rolloff=0.3, osf=5, n_symbols=20000,
                         ts=1e-7, pn_mode="dt",
                         pn_model=OscillatorParams.from_db(0.0, -88.0),
                         esn0_db=None, pilot_len=36, pilot_period=1476, seed=3)
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        code, out, _ = run_capture(capsys, [
            "ber", "--config", str(path), "--esn0-db", "8"])
        assert code == 0
        assert len(data_section(out).splitlines()) == 2

    def test_ber_byte_determinism(self, capsys):
        argv = ["ber", "--pn", "dt", "--f3db", "10", "--l100-db", "-88",
                "--esn0-db", "7", "--n-symbols", "20000", "--seed", "19"]
        _, out1, _ = run_capture(capsys, argv)
        _, out2, _ = run_capture(capsys, argv)
        assert out1 == out2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("l100_db, esn0_db, want", [
        ("-62", "10,20", [(10, 7), (20, 7)]),   # a random walk too fast for the pilots
        ("-88", "7", [])])
    def test_ber_writes_one_warning_line_per_flagged_row(self, capsys, l100_db, esn0_db,
                                                         want):
        code, _, err = run_capture(capsys, [
            "ber", "--pn", "dt", "--f3db", "0", "--l100-db", l100_db, "--n-symbols", "20000",
            "--esn0-db", esn0_db, "--seed", "3"])
        assert code == 0
        assert err.splitlines() == [
            f"phasenoise: warning: esn0_db={e}: {n} inter-pilot phase jumps above pi/2; "
            "unwrap may be ambiguous" for e, n in want]


class TestFit:
    def test_single_process_roundtrip(self, capsys, tmp_path):
        p = OscillatorParams.from_db(2e3, -95.0, -130.0)
        freqs = np.logspace(1, 8, 60)
        pts = np.column_stack([freqs, 10 * np.log10(pn_psd(p, freqs))])
        path = tmp_path / "pts.csv"
        save_points(pts, path)
        code, out, _ = run_capture(capsys, ["fit", "--points", str(path), "--k", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["residual_rms_db"] < 0.1
        assert payload["params"][0]["f3db"] == pytest.approx(2e3, rel=0.5)

    def test_points_file_bytes(self, tmp_path):
        # the one CSV formatter: "\n" line ends and repr cells, read back bit for bit
        pts = np.column_stack([np.logspace(1, 8, 37), -88.0 - np.linspace(0.0, 40.0, 37) / 3])
        path = tmp_path / "pts.csv"
        save_points(pts, path)
        body = path.read_bytes()
        assert b"\r" not in body
        assert body == ("freq_hz,level_db\n"
                        + "".join(f"{f!r},{lv!r}\n" for f, lv in pts.tolist())).encode()
        assert np.array_equal(load_points(path), pts)

    @pytest.mark.parametrize("row, text", [
        (2, "nan,-90.0"), (3, "1000.0,nan"), (4, "10000.0,-inf")],
        ids=["nan_frequency", "nan_level", "inf_level"])
    def test_non_finite_point_names_its_row(self, capsys, tmp_path, row, text):
        lines = ["freq_hz,level_db", "10.0,-80.0", "100.0,-90.0", "1000.0,-100.0",
                 "10000.0,-110.0", "100000.0,-120.0"]
        lines[row] = text
        path = tmp_path / "pts.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"point row {row} is not finite"):
            load_points(path)
        code, _, err = run_capture(capsys, ["fit", "--points", str(path), "--k", "1"])
        assert code == 1
        assert f"point row {row} is not finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["fit", "--k", "1"], ["psd", "--f3db", "10", "--l100-db", "-88"]], ids=["fit", "psd"])
    @pytest.mark.parametrize("row, text, cell", [
        (1, "x,1", "x"), (3, "1e3,", ""), (5, "100000.0,-120 dB", "-120 dB")],
        ids=["bad_frequency", "empty_level", "level_with_unit"])
    def test_unparsable_point_names_its_file_and_line(self, capsys, tmp_path, argv, row,
                                                      text, cell):
        lines = ["freq_hz,level_db", "10.0,-80.0", "100.0,-90.0", "1000.0,-100.0",
                 "10000.0,-110.0", "100000.0,-120.0"]
        lines[row] = text
        path = tmp_path / "pts.csv"
        path.write_text("\n".join(lines) + "\n")
        message = f"{path}: line {row + 1}: could not convert string to float: {cell!r}"
        with pytest.raises(ValueError) as info:
            load_points(path)
        assert str(info.value) == message
        code, out, err = run_capture(capsys, [*argv, "--points", str(path)])
        assert code == 1 and out == ""
        assert err == f"phasenoise: error: {message}\n"

    @pytest.mark.filterwarnings("error")
    def test_frequencies_equal_in_log10_are_one_error_line(self, capsys, tmp_path):
        # 1e9 and the double below it share their log10, where the fit's
        # dB-per-decade slopes divided 0 by 0
        path = tmp_path / "pts.csv"
        path.write_text("freq_hz,level_db\n1.0,0.0\n2.0,0.0\n999999999.9999999,0.0\n"
                        "1000000000.0,0.0\n")
        code, out, err = run_capture(capsys, ["fit", "--points", str(path)])
        assert code == 1 and out == ""
        assert err == ("phasenoise: error: point frequencies must be strictly increasing, "
                       "also in log10\n")

    def test_json_format_output(self, capsys):
        code, out, _ = run_capture(capsys, [
            "errors", "--sweep-rho", "1e-4:1e-2:3", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"][0] == "rho"
        assert len(payload["rows"]) == 3


@pytest.mark.parametrize("argv, digest", [
    (["errors", "--sweep-rho", "1e-6:1e2:17"],
     "d80a1063533e50b979409daa1ea2142ad54a7d445befb88d9163873635a360e0"),
    (["errors", "--l100-db", "-88", "--ts", "1e-7", "--f3db", "10"],
     "35adc4fe5484aae99eea1a5331475f076a6bbdf00a4cbd830974418531abab29"),
    (["psd", "--f3db", "10", "--l100-db", "-88", "--fmin", "1", "--fmax", "1e6",
      "--n", "13", "--phasor"],
     "9f4f14dae4f2f12b478f29e41cdf2139262dadb21ef9a3e4466fb8ede7d6f205"),
    (["fit", "--points", "sat.csv", "--k", "2"],
     "d86fe7260b5f3eeb91a3b4ad43bf4cc9c17091111324e7a700e90d798f7248af"),
    # flagged free-running-like, the corner at the box edge
    (["fit", "--points", "wiener.csv", "--k", "1"],
     "bcdf3e0fafeea7dfa07d8d4d5d54096e971bb72707a1e4de07abafa2e8c88b32"),
    # 7 unwrap flags at each Es/N0
    (["ber", "--pn", "dt", "--f3db", "0", "--l100-db", "-62", "--n-symbols", "20000",
      "--esn0-db", "10,20", "--seed", "3"],
     "28caa09317bdd24b8b321b3ccd0f380534cbfefd0623daec236b8bcce0602d60"),
    (["ber", "--pn", "ct", "--f3db", "10", "--l100-db", "-88", "--linf-db", "-114",
      "--n-symbols", "20000", "--esn0-db", "8", "--seed", "5"],
     "7e47df101cbbd1b999a94d6f5641c57827b9bfa4551578e56b3f8464bd9b1cf4"),
    (["ber", "--pn", "none", "--n-symbols", "20000", "--esn0-db", "6", "--seed", "5"],
     "254936571cb6c9fdca419846bf99012c3d29ec99a7404b713020afe848479275"),
    # 16-QAM over 150,000 symbols: many CHUNK_SYMBOLS chunks
    (["ber", "--constellation", "qam16", "--pn", "dt", "--f3db", "1000", "--l100-db", "-90",
      "--linf-db", "-120", "--n-symbols", "150000", "--esn0-db", "12,16", "--seed", "6"],
     "2ede961de6c1384ac9e257612702ac2dcfc1057b0df07b27c19bad1ba06fd609"),
    (["ber", "--constellation", "qam16", "--pn", "ct", "--f3db", "1000", "--l100-db", "-90",
      "--linf-db", "-120", "--n-symbols", "150000", "--esn0-db", "12,16", "--seed", "6"],
     "5fb8e8621b823b722904f6794e86a27644955e24fdb6da1d3cc7f28e77f71089"),
    # a random walk: the estimate is flagged nonstationary
    (["validate", "--f3db", "0", "--l100-db", "-100", "--ts", "1e-7", "--n", "65536"],
     "369347cceed10e803fdf9bf6d016ec079a39fcccf2400a616e907f16c89c808b"),
], ids=["errors_sweep", "errors_alias", "psd_phasor", "fit_k2", "fit_k1_free_running",
        "ber_dt_unwrap", "ber_ct", "ber_none", "ber_qam16_dt", "ber_qam16_ct",
        "validate_nonstationary"])
def test_stdout_bytes_pinned(capsys, tmp_path, monkeypatch, argv, digest):
    # SHA-256 of the whole stdout, header included; the fits read the
    # satellite curve (10 Hz, -88 dB, -114 dB floor) and a pure -20 dB/dec
    # curve through relative paths, so that their recorded arguments do
    # not vary
    monkeypatch.chdir(tmp_path)
    freqs = np.logspace(1, 8, 120)
    sat = OscillatorParams.from_db(10.0, -88.0, -114.0)
    save_points(np.column_stack([freqs, 10 * np.log10(pn_psd(sat, freqs))]), "sat.csv")
    save_points(np.column_stack([freqs, -88.0 - 20.0 * np.log10(freqs / 1e5)]), "wiener.csv")
    code, out, _ = run_capture(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# random `ber --config` documents: unknown keys, wrong types, non-objects,
# out-of-range values; sizes stay small (n_symbols <= 20000, osf <= 8,
# filter_span <= 40) so that every accepted document runs in milliseconds
_SMALL_INT = st.integers(-3, 40)
_ANY = st.one_of(st.none(), st.booleans(), _SMALL_INT,
                 st.floats(allow_nan=True, allow_infinity=True),
                 st.text(max_size=3), st.lists(_SMALL_INT, max_size=2),
                 st.dictionaries(st.text(max_size=2), _SMALL_INT, max_size=1))
_MEMBER = st.one_of(
    st.fixed_dictionaries(
        {"f3db": st.sampled_from([0.0, 10.0, 5e3]) | _ANY,
         "l100_sq": st.floats(1e-12, 1e-7) | _ANY},
        optional={"linf_sq": st.floats(0.0, 1e-11) | _ANY,
                  "f_ref": st.floats(1e3, 1e6) | _ANY, "f3dB": _ANY}),
    _ANY)
_CONFIG = st.fixed_dictionaries(
    {"n_symbols": st.integers(-2, 20_000) | _ANY,
     "pn_mode": st.sampled_from(["ct", "dt", "none"]) | _ANY},
    optional={"constellation": st.sampled_from(["qpsk", "qam16", "8psk"]) | _ANY,
              "rolloff": st.floats(-0.5, 1.5) | _ANY,
              "osf": st.integers(-1, 8) | _ANY,
              "ts": st.floats(1e-9, 1e-5) | _ANY,
              "pn_model": st.lists(_MEMBER, max_size=3) | _ANY,
              "esn0_db": st.floats(-10.0, 40.0) | _ANY,
              "pilot_len": st.integers(-2, 60) | _ANY,
              "pilot_period": st.integers(-2, 3000) | _ANY,
              "seed": st.integers(-2 ** 70, 2 ** 70) | _ANY,
              "filter_span": st.integers(-1, 40) | _ANY,
              "version": _ANY, "bogus": _ANY})


def _fuzz_examples(default: int) -> int:
    """Examples per fuzz test: ``default``, or PHASENOISE_FUZZ_EXAMPLES when set
    (the CI runs a longer pass that way)."""
    return int(os.environ.get("PHASENOISE_FUZZ_EXAMPLES", default))


def _check_outcome(code: int, err: str) -> None:
    """A run ends in success, a usage error, or one ``phasenoise: error:`` line."""
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("phasenoise: error: "), err


@settings(max_examples=_fuzz_examples(150), deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_CONFIG | _ANY)
def test_ber_config_fuzz_never_tracebacks(tmp_path, capsys, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code = run(["ber", "--config", str(path)])
    _check_outcome(code, capsys.readouterr().err)


# random argv for every subcommand: each option is left out or given a
# value drawn from valid, boundary and malformed strings; the sizes (`--n`,
# `--n-symbols`, `--segment-len`, `--span`, `--osf`) stay small so that
# every accepted run is short
_REAL = st.sampled_from(["1", "10", "-1", "0", "1e-7", "1e5", "-88", "-114", "nan",
                         "inf", "-inf", "1e200", "1e308", "-1e308", "5e-324", "x", ""])
_PAIR = st.sampled_from(["10,-88", "1e3,-90,-120", "0,-100", "5e3,-95,-130", "1,2,3,4",
                         "x,1", "", "nan,-88", "-1,-88", "1e9,300", "3e3,2.37", "1,3.3"])
_LIST = st.sampled_from(["6", "6,8", "0.05", "0.05,0.5", "0.3", "0", "1", "-1", "2",
                         "nan", "inf", "-inf", "x", "", ",", "1e-3,1e-2"])
_SWEEP = st.sampled_from(["1e-4:1e-2:3", "1e-4:1e-2", "1e-3:1e-3:1", "1:2:0", "0:1",
                          "-1:1", "1e-2:1e-4:2", "nan:1", "1", "1:2:3:4", "x:y"])
_INT = st.sampled_from(["-1", "0", "1", "2", "3", "x", "1.5"])


def _sizes(*values):
    return st.sampled_from(values + ("-1", "0", "x"))


_MODEL = {"--f3db": _REAL, "--l100-db": _REAL, "--linf-db": _REAL, "--f-ref": _REAL,
          "--process": _PAIR}
_OPTIONS = {
    "psd": {**_MODEL, "--fmin": _REAL, "--fmax": _REAL, "--n": _sizes("1", "5", "200"),
            "--points": st.just("POINTS"), "--phasor": st.just(None),
            "--threegpp-psd0-db": _REAL, "--threegpp-zero": _PAIR,
            "--threegpp-pole": _PAIR},
    "autocorr": {**_MODEL, "--tau-min": _REAL, "--tau-max": _REAL,
                 "--n": _sizes("1", "5", "200")},
    "gen": {**_MODEL, "--ts": _REAL, "--n": _sizes("1", "7", "300"), "--seed": _INT,
            "--binary": st.just(None)},
    "validate": {**_MODEL, "--ts": _REAL, "--n": _sizes("1", "64", "4096"),
                 "--seed": _INT, "--segment-len": _sizes("1", "16", "1024", "8192"),
                 "--band-top-fraction": _REAL},
    "errors": {"--l100-db": _REAL, "--ts": _REAL, "--f3db": _REAL, "--f-ref": _REAL,
               "--sweep-rho": _SWEEP},
    "sir": {"--sweep-rho": _SWEEP, "--rho": _LIST, "--rolloffs": _LIST,
            "--osf": _sizes("1", "2", "5", "13"), "--ts": _REAL,
            "--n-symbols": _sizes("1", "17", "3000"), "--span": _sizes("16", "33", "200"),
            "--seed": _INT},
    "ber": {**_MODEL, "--esn0-db": _LIST, "--constellation": st.sampled_from(["qpsk", "qam16"]),
            "--rolloff": _REAL, "--osf": _sizes("1", "2", "5", "13"), "--ts": _REAL,
            "--n-symbols": _sizes("1", "17", "3000"), "--pn": st.sampled_from(["ct", "dt", "none"]),
            "--pilot-len": _sizes("1", "36", "5000"), "--pilot-period": _sizes("1", "40", "1476"),
            "--span": _sizes("16", "33", "200"), "--seed": _INT},
    "fit": {"--points": st.just("POINTS"), "--k": _sizes("1", "2", "3", "4")},
}
# the runs stay short only if the sizes are given
_REQUIRED = {"validate": ("--n",), "sir": ("--n-symbols",), "ber": ("--n-symbols",)}
_CELL = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                  st.sampled_from(["", "x", "1e3", "-5", "#", "1e2"]))
_POINTS_FILE = st.one_of(
    st.tuples(st.sampled_from(["freq_hz,level_db", " FREQ_HZ, level_db", "f,l", ""]),
              st.lists(st.lists(_CELL, max_size=3).map(",".join), max_size=8)),
    st.lists(st.tuples(st.floats(1.0, 1e9), st.floats(-200.0, 0.0)), min_size=1,
             max_size=12, unique_by=lambda p: p[0]).map(
        lambda pts: ("freq_hz,level_db", [f"{f!r},{lv!r}" for f, lv in sorted(pts)])),
).map(lambda t: "\n".join([t[0], *t[1]]) + "\n")


@st.composite
def _argv(draw, subcommand):
    options = _OPTIONS[subcommand]
    chosen = draw(st.lists(st.sampled_from(sorted(options)), max_size=6, unique=True))
    chosen = sorted(set(chosen) | set(_REQUIRED.get(subcommand, ())))
    argv = [subcommand]
    for flag in draw(st.permutations(chosen)):
        value = draw(options[flag])
        argv += [flag] if value is None else [flag, value]
    argv += draw(st.sampled_from([[], ["--format", "json"], ["-o", "-"], ["-o", "OUT"],
                                  ["--no-such-flag"]]))
    return argv


def _columns(text: str) -> dict:
    """The cells of a CSV or JSON table by column name; every number of any
    other JSON document under the one name ``""``."""
    if not text.startswith("{"):
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        rows = [[float(c) for c in ln.split(",")] for ln in lines[1:]]
        return dict(zip(lines[0].split(","), zip(*rows)))
    doc = json.loads(text)
    if "columns" in doc:
        return dict(zip(doc["columns"], zip(*doc["rows"])))
    numbers = []

    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        elif isinstance(node, float):
            numbers.append(node)
    walk({k: v for k, v in doc.items() if k != "meta"})
    return {"": numbers}


def _assert_finite_cells(subcommand: str, text: str) -> None:
    # autocorr documents NaN for the phase autocorrelation of a free-running member
    free_running = "# model=f3db=0," in text or '"model": "f3db=0,' in text
    for name, cells in _columns(text).items():
        if (subcommand == "autocorr" and name == "pn_autocorr_rad2" and free_running
                and all(map(math.isnan, cells))):
            continue
        assert all(map(math.isfinite, cells)), f"non-finite {name} cell"


@pytest.mark.parametrize("subcommand", sorted(_OPTIONS))
@settings(max_examples=_fuzz_examples(40), deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), points=_POINTS_FILE)
def test_random_argv_never_tracebacks(tmp_path, capsys, subcommand, data, points):
    (tmp_path / "points.csv").write_text(points)
    out_path = tmp_path / "out"
    out_path.unlink(missing_ok=True)
    argv = [str(tmp_path / "points.csv") if a == "POINTS" else
            str(out_path) if a == "OUT" else a
            for a in data.draw(_argv(subcommand))]
    code = run(argv)
    out, err = capsys.readouterr()
    _check_outcome(code, err)
    if code == 0 and "--binary" not in argv:
        # a successful table has no nan or inf cell, on stdout or in -o OUT
        _assert_finite_cells(subcommand, out_path.read_text() if out_path.exists() else out)
