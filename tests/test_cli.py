"""CLI: exit codes, output schemas, reproducibility."""

import json
import math

import numpy as np
import pytest

from phasenoise import OscillatorParams, gen_composite, load_points, save_points, pn_psd
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
                (dict(good, bogus=1, esn0=3), "unknown link config keys: bogus, esn0"),
                (dict(good, pn_model=[member]), "unknown pn_model member keys: f3dB"),
                ([1], "link config must be a JSON object"),
                (dict(good, pn_model=[1]), "pn_model member must be a JSON object")):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(doc))
            code, out, err = run_capture(capsys, ["ber", "--config", str(path)])
            assert code == 1
            assert out == ""
            assert err.count("\n") == 1 and "Traceback" not in err
            assert msg in err

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

    def test_threegpp(self, capsys):
        code, out, _ = run_capture(capsys, [
            "psd", "--threegpp-psd0-db", "35.65257",
            "--threegpp-zero", "3e3,2.37", "--threegpp-zero", "451e3,2.7",
            "--threegpp-zero", "458e6,2.53",
            "--threegpp-pole", "1,3.3", "--threegpp-pole", "1.54e6,3.3",
            "--threegpp-pole", "30e6,1",
            "--fmin", "1", "--fmax", "1", "--n", "1"])
        assert code == 0
        row = data_section(out).splitlines()[1]
        assert float(row.split(",")[1]) == pytest.approx(32.64, abs=0.01)

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

    def test_composite_flag(self, capsys):
        # a 2 MHz corner above f_ref/10 raises the validity warning by design
        with pytest.warns(UserWarning, match="f_ref"):
            code, out, _ = run_capture(capsys, [
                "psd", "--process", "7e2,-105,-200", "--process", "2e6,-65,-140",
                "--fmin", "1e3", "--fmax", "1e9", "--n", "10"])
        assert code == 0
        assert len(data_section(out).splitlines()) == 11


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


class TestSirBer:
    def test_sir_schema(self, capsys):
        code, out, _ = run_capture(capsys, [
            "sir", "--rho", "1e-3", "--rolloffs", "0.5", "--n-symbols", "20000",
            "--seed", "2"])
        assert code == 0
        lines = data_section(out).splitlines()
        assert lines[0] == "rho,sir_db,se,rolloff,closed_form_db"
        vals = [float(x) for x in lines[1].split(",")]
        assert vals[1] > vals[4]  # measured above the sinc closed form

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

    def test_json_format_output(self, capsys):
        code, out, _ = run_capture(capsys, [
            "errors", "--sweep-rho", "1e-4:1e-2:3", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"][0] == "rho"
        assert len(payload["rows"]) == 3
