"""Tests of the benchmark's output checks: each corrupted result must fail.

    python3 -m pytest perfbench
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import phasenoise as pn  # noqa: E402
from phasenoise import cli  # noqa: E402
from phasenoise.timegen import save_stream_bin, save_stream_csv  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def stats(ber=0.01, ber_se=1e-4, sir_db=35.0, unwrap_flags=0):
    return pn.LinkStats(sir_db=sir_db, sir_se_db=0.0, evm_rms=0.0, ber=ber, ber_se=ber_se,
                        ser=0.0, n_bits=1, n_errors=0, n_symbols=1, power_loss=1.0,
                        unwrap_flags=unwrap_flags)


@pytest.fixture
def stream():
    return pn.gen_composite(workloads.SAT, workloads.TS, 2000, seed=3)


def test_ct_ber_within_ten_percent_of_paired_dt_and_below_ceiling():
    awgn = checks.qpsk_awgn_ber(8.0)
    ceiling = workloads.LinkCt.ber_ceiling
    assert checks.check_ct_ber(0.0092, 0.0095, awgn, ceiling) is None
    assert checks.check_ct_ber(0.0095 * 1.2, 0.0095, awgn, ceiling) is not None
    assert checks.check_ct_ber(0.0095 * 0.8, 0.0095, awgn, ceiling) is not None
    assert checks.check_ct_ber(awgn * 0.99, awgn * 0.99, awgn, ceiling) is not None
    # a broken decision moves the paired dt run too: only the ceiling sees it
    assert checks.check_ct_ber(0.5, 0.5, awgn, ceiling) is not None


def test_awgn_ber_two_sided():
    awgn = checks.qpsk_awgn_ber(8.0)
    se = awgn / 50.0
    assert checks.check_awgn_ber(awgn + 3 * se, se, awgn) is None
    assert checks.check_awgn_ber(awgn - 3 * se, se, awgn) is None
    assert checks.check_awgn_ber(awgn * 1.2, se, awgn) is not None
    assert checks.check_awgn_ber(awgn * 0.8, se, awgn) is not None
    assert checks.check_awgn_ber(0.5, 1e-3, awgn) is not None


def test_sir_at_least_closed_form():
    closed = 10.0 * math.log10(pn.sir_from_rho(1e-3))
    assert checks.check_sir(35.1, closed) is None
    assert checks.check_sir(closed - 0.01, closed) is not None


def test_dt_ber_not_below_awgn_below_ceiling_and_no_unwrap_flags():
    awgn = checks.qam16_awgn_ber(14.0)
    se = awgn / 100.0
    ceiling = workloads.LinkDt.esn0_ceilings[14.0]
    assert checks.check_dt_ber(awgn * 1.3, se, awgn, ceiling, 0) is None
    assert checks.check_dt_ber(awgn * 0.8, se, awgn, ceiling, 0) is not None
    assert checks.check_dt_ber(awgn * 1.3, se, awgn, ceiling, 1) is not None
    assert checks.check_dt_ber(0.5, 1e-3, awgn, ceiling, 0) is not None


def test_qam16_awgn_reference_matches_simulation():
    cfg = pn.LinkConfig(constellation="qam16", n_symbols=100_000, pn_mode="dt",
                        pn_model=pn.OscillatorParams.from_db(0.0, -200.0),
                        esn0_db=12.0, pilot_len=0, seed=8)
    sim = pn.simulate_link(cfg)
    assert abs(sim.ber - checks.qam16_awgn_ber(12.0)) < 4 * sim.ber_se


def ref(stream):
    return stream.samples.size, checks.digest(stream.samples)


def test_stream_csv_exact_and_header_lines_accepted(tmp_path, stream):
    path = tmp_path / "s.csv"
    save_stream_csv(stream, path)
    assert checks.check_stream_csv(path, *ref(stream)) is None
    path.write_text("# tool=phasenoise\n# seed=3\n" + path.read_text())
    assert checks.check_stream_csv(path, *ref(stream)) is None


def test_stream_csv_one_value_changed(tmp_path, stream):
    path = tmp_path / "s.csv"
    changed = stream.samples.copy()
    changed[777] = np.nextafter(changed[777], np.inf)
    save_stream_csv(pn.PnStream(changed, stream.ts, stream.seed, stream.model), path)
    assert checks.check_stream_csv(path, *ref(stream)) is not None
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert checks.check_stream_csv(path, *ref(stream)) is not None


def test_stream_bin_payload_changed(tmp_path, stream):
    path = tmp_path / "s.bin"
    save_stream_bin(stream, path)
    assert checks.check_stream_bin(path, *ref(stream)) is None
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 1
    path.write_bytes(bytes(raw))
    assert checks.check_stream_bin(path, *ref(stream)) is not None
    path.write_bytes(bytes(raw[:-8]))
    assert checks.check_stream_bin(path, *ref(stream)) is not None


def test_validate_deviation_limit(tmp_path):
    path = tmp_path / "v.csv"
    argv = ["validate", *workloads.SAT_FLAGS, "--n", str(2 ** 22), "--seed", "4",
            "-o", str(path)]
    assert cli.run(argv) == 0
    assert checks.check_validate(path) is None
    lines = path.read_text().splitlines()
    row = lines[-1].split(",")
    lines[-1] = ",".join(row[:3] + ["1.6"])
    path.write_text("\n".join(lines) + "\n")
    assert checks.check_validate(path) is not None


def test_psd_matches_reference(tmp_path):
    fit = workloads.Fit(1, str(tmp_path))
    fit.setup()
    assert cli.run(fit.psd_argv) == 0
    path = fit.psd_argv[fit.psd_argv.index("-o") + 1]
    assert checks.check_psd(path, fit.points["cellular"]) is None
    shifted = fit.points["cellular"].copy()
    shifted[80, 1] += 0.01
    assert checks.check_psd(path, shifted) is not None
    assert checks.check_psd(path, shifted[:-1]) is not None


@pytest.fixture
def fit_payload(tmp_path):
    freqs = np.logspace(1, 8, 60)
    pts = np.column_stack([freqs, pn.db(pn.composite_psd(workloads.SAT, freqs))])
    pn.save_points(pts, tmp_path / "p.csv")
    out = tmp_path / "fit.json"
    assert cli.run(["fit", "--points", str(tmp_path / "p.csv"), "--k", "2",
                    "-o", str(out)]) == 0
    return json.loads(out.read_text()), pts


def test_fit_residual_recomputed(fit_payload):
    payload, pts = fit_payload
    assert checks.check_fit(payload, pts) is None
    payload["residual_rms_db"] += 0.1
    assert checks.check_fit(payload, pts) is not None


def test_fit_params_finite(fit_payload):
    payload, pts = fit_payload
    payload["params"][0]["l100_db"] = float("nan")
    assert checks.check_fit(payload, pts) is not None


def test_each_corrupted_output_is_one_failed_operation(tmp_path, stream):
    ct = workloads.LinkCt(1, str(tmp_path))
    ct.paired_dt_ber, ct.awgn_ber, ct.closed_form_db = 0.0095, 0.006, 24.2
    good = [("ber", stats(ber=0.0093)), ("sir", stats(sir_db=35.0)),
            ("awgn", stats(ber=0.00605, ber_se=1e-4))]
    assert workloads.check_pass(ct, good) == []
    bad = [("ber", stats(ber=0.0093 * 1.2)), ("sir", stats(sir_db=20.0)),
           ("ber", RuntimeError("boom")), ("awgn", stats(ber=0.5, ber_se=1e-3))]
    assert len(workloads.check_pass(ct, bad)) == 4

    st = workloads.Streams(1, str(tmp_path))
    st.ref = {"gen_csv": ref(stream), "gen_bin": ref(stream)}
    save_stream_csv(stream, st.paths["gen_csv"])
    save_stream_bin(stream, st.paths["gen_bin"])
    Path(st.paths["validate"]).write_text("freq_hz,est_db,model_db,dev_db\n1,2,3,1.7\n")
    failures = workloads.check_pass(st, [("gen_csv", 0), ("gen_bin", 0), ("validate", 0)])
    assert len(failures) == 1 and "validate" in failures[0]
    Path(st.paths["gen_csv"]).write_text("k,theta_rad\n0,not-a-number\n")
    assert len(workloads.check_pass(st, [("gen_csv", 0), ("gen_bin", 1)])) == 2
