"""The four benchmark workloads.

A workload builds its inputs and references from the workload seed in
``setup`` (untimed by the pass, timed as set-up), lists the operations
of one pass in ``ops``, checks each output in ``check`` and turns the
median CPU times into its own rates in ``summary``.  Operations call the
package through module attributes (``linksim.simulate_link``,
``cli.run``) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

import phasenoise as pn
from phasenoise import cli, linksim

import checks

TS = 1e-7
# satellite-link oscillator: 10 Hz corner, -88 dB at 100 kHz, -114 dB floor
SAT = pn.OscillatorParams.from_db(10.0, -88.0, -114.0)
SAT_FLAGS = ["--f3db", "10", "--l100-db", "-88", "--linf-db", "-114", "--ts", "1e-7"]
# phase noise switched off: a free-running process 200 dB down
NO_PN = pn.OscillatorParams.from_db(0.0, -200.0)
AWGN_SYMBOLS = 250_000


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(1, 2 ** 31, n)]


def _awgn_cfg(constellation: str, esn0_db: float, seed: int):
    """Symbol-rate run with phase noise off and no pilots: its BER has a closed form."""
    return pn.LinkConfig(constellation=constellation, rolloff=0.3, osf=5,
                         n_symbols=AWGN_SYMBOLS, ts=TS, pn_mode="dt", pn_model=NO_PN,
                         esn0_db=esn0_db, pilot_len=0, seed=seed)


class _Link:
    """A link workload: one ``simulate_link`` operation per config in ``cfgs``."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def ops(self):
        return [(op, lambda cfg=cfg: linksim.simulate_link(cfg))
                for op, cfg in self.cfgs.items()]

    def summary(self, op_s: dict, pass_s: float) -> dict:
        n = sum(cfg.n_symbols for cfg in self.cfgs.values())
        return {"link_msym_per_s": n / 1e6 / pass_s}


class LinkCt(_Link):
    """Oversampled link: a BER and an SIR operation, and an AWGN-only reference run."""

    name = "link_ct"
    n_symbols = 500_000
    esn0_db = 8.0
    rho = 1e-3
    # BER / AWGN-only BER of the paired dt run measured 1.46-1.63 over seeds 1-20
    ber_ceiling = 3.0

    def setup(self) -> None:
        s_ber, s_sir, s_awgn = _seeds(self.seed, 3)
        self.ber_cfg = pn.LinkConfig(
            constellation="qpsk", rolloff=0.3, osf=5, n_symbols=self.n_symbols, ts=TS,
            pn_mode="ct", pn_model=SAT, esn0_db=self.esn0_db, pilot_len=36,
            pilot_period=1476, seed=s_ber)
        # free-running oscillator at rho, no AWGN, no pilots, as `phasenoise sir` runs it
        self.sir_cfg = pn.LinkConfig(
            constellation="qpsk", rolloff=0.3, osf=5, n_symbols=self.n_symbols, ts=TS,
            pn_mode="ct",
            pn_model=pn.OscillatorParams(f3db=0.0, l100_sq=self.rho / (math.pi * 1e10 * TS)),
            esn0_db=None, pilot_len=0, seed=s_sir)
        self.cfgs = {"ber": self.ber_cfg, "sir": self.sir_cfg,
                     "awgn": _awgn_cfg("qpsk", self.esn0_db, s_awgn)}
        self.paired_dt_ber = pn.simulate_link(
            dataclasses.replace(self.ber_cfg, pn_mode="dt")).ber
        self.awgn_ber = checks.qpsk_awgn_ber(self.esn0_db)
        self.closed_form_db = 10.0 * math.log10(pn.sir_from_rho(self.rho))

    def check(self, op: str, stats) -> str | None:
        if op == "ber":
            return checks.check_ct_ber(stats.ber, self.paired_dt_ber, self.awgn_ber,
                                       self.ber_ceiling)
        if op == "awgn":
            return checks.check_awgn_ber(stats.ber, stats.ber_se, self.awgn_ber)
        return checks.check_sir(stats.sir_db, self.closed_form_db)


class LinkDt(_Link):
    """Symbol-rate link, 16-QAM with pilots, at three Es/N0 points per pass,
    and an AWGN-only reference run."""

    name = "link_dt"
    n_symbols = 2_000_000
    # Es/N0 (dB) -> ceiling on BER / AWGN-only BER; the ratio measured
    # 1.27-1.30, 2.31-2.53 and 25-40 over seeds 1-20
    esn0_ceilings = {14.0: 2.5, 17.0: 5.0, 20.0: 75.0}
    # a free-running member plus a PLL member with a floor
    model = pn.CompositeModel((pn.OscillatorParams.from_db(0.0, -100.0),
                               pn.OscillatorParams.from_db(5e3, -95.0, -130.0)))

    def setup(self) -> None:
        *seeds, s_awgn = _seeds(self.seed, len(self.esn0_ceilings) + 1)
        self.cfgs = {
            f"esn0_{e:g}": pn.LinkConfig(
                constellation="qam16", rolloff=0.3, osf=5, n_symbols=self.n_symbols,
                ts=TS, pn_mode="dt", pn_model=self.model, esn0_db=e, pilot_len=36,
                pilot_period=1476, seed=s)
            for e, s in zip(self.esn0_ceilings, seeds)}
        self.cfgs["awgn"] = _awgn_cfg("qam16", min(self.esn0_ceilings), s_awgn)
        self.awgn_ber = {op: checks.qam16_awgn_ber(cfg.esn0_db)
                         for op, cfg in self.cfgs.items()}

    def check(self, op: str, stats) -> str | None:
        if op == "awgn":
            return checks.check_awgn_ber(stats.ber, stats.ber_se, self.awgn_ber[op])
        return checks.check_dt_ber(stats.ber, stats.ber_se, self.awgn_ber[op],
                                   self.esn0_ceilings[self.cfgs[op].esn0_db],
                                   stats.unwrap_flags)


class Streams:
    """CLI `gen` to CSV and to binary, and `validate`, of the satellite model."""

    name = "streams"
    n_csv = 1_000_000
    n_bin = 2 ** 22
    n_validate = 2 ** 22

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.paths = {op: os.path.join(workdir, f"{op}.{ext}")
                      for op, ext in (("gen_csv", "csv"), ("gen_bin", "bin"),
                                      ("validate", "csv"))}

    def setup(self) -> None:
        s_csv, s_bin, s_val = _seeds(self.seed, 3)
        self.argv = {
            "gen_csv": ["gen", *SAT_FLAGS, "--n", str(self.n_csv), "--seed", str(s_csv)],
            "gen_bin": ["gen", *SAT_FLAGS, "--n", str(self.n_bin), "--seed", str(s_bin),
                        "--binary"],
            "validate": ["validate", *SAT_FLAGS, "--n", str(self.n_validate),
                         "--seed", str(s_val)],
        }
        for op, argv in self.argv.items():
            argv += ["-o", self.paths[op]]
        # only a digest of each reference stays resident, so that peak_rss_mb
        # is the program's memory and not the benchmark's
        self.ref = {op: (n, checks.digest(pn.gen_composite(SAT, TS, n, s).samples))
                    for op, n, s in (("gen_csv", self.n_csv, s_csv),
                                     ("gen_bin", self.n_bin, s_bin))}

    def ops(self):
        return [(op, lambda argv=argv: cli.run(argv)) for op, argv in self.argv.items()]

    def check(self, op: str, code: int) -> str | None:
        if code != 0:
            return f"exit code {code}"
        if op == "gen_csv":
            return checks.check_stream_csv(self.paths[op], *self.ref[op])
        if op == "gen_bin":
            return checks.check_stream_bin(self.paths[op], *self.ref[op])
        return checks.check_validate(self.paths[op])

    def summary(self, op_s: dict, pass_s: float) -> dict:
        return {"gen_csv_mrows_per_s": self.n_csv / 1e6 / op_s["gen_csv"],
                "validate_msamples_per_s": self.n_validate / 1e6 / op_s["validate"]}


class Fit:
    """CLI `psd` of the cellular curve, then CLI `fit` over point files:
    cellular k=1..4, satellite and two-process k=1,2."""

    name = "fit"
    two_process = pn.CompositeModel((pn.OscillatorParams.from_db(100.0, -95.0),
                                     pn.OscillatorParams.from_db(1e4, -82.0, -140.0)))
    noise_db = 0.5

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        cell_f = np.logspace(1, 9, 160)
        cell_db = pn.db(pn.threegpp_psd(pn.THREEGPP_45GHZ, cell_f))
        model_f = np.logspace(1, 8, 120)
        noise = np.random.default_rng(self.seed).normal(0.0, self.noise_db, model_f.size)
        self.points = {
            "cellular": np.column_stack([cell_f, cell_db]),
            "satellite": np.column_stack([model_f, pn.db(pn.composite_psd(SAT, model_f))]),
            "two_process": np.column_stack(
                [model_f, pn.db(pn.composite_psd(self.two_process, model_f)) + noise]),
        }
        for curve, pts in self.points.items():
            pn.save_points(pts, self._path(curve))
        ks = {"cellular": (1, 2, 3, 4), "satellite": (1, 2), "two_process": (1, 2)}
        tg = pn.THREEGPP_45GHZ
        self.psd_argv = ["psd", "--threegpp-psd0-db", repr(float(pn.db(tg.psd0))),
                         "--fmin", "10", "--fmax", "1e9", "--n", str(cell_f.size),
                         "-o", self._path("cellular_psd")]
        for flag, pairs in (("--threegpp-zero", tg.zeros), ("--threegpp-pole", tg.poles)):
            self.psd_argv += [a for f, e in pairs for a in (flag, f"{f!r},{e!r}")]
        self.fit_argv = {
            f"{curve}_k{k}": ["fit", "--points", self._path(curve), "--k", str(k),
                              "-o", self._path(f"{curve}_k{k}", "json")]
            for curve, kk in ks.items() for k in kk}

    def _path(self, stem: str, ext: str = "csv") -> str:
        return os.path.join(self.workdir, f"{stem}.{ext}")

    def ops(self):
        return [("cellular_psd", lambda: cli.run(self.psd_argv))] + [
            (op, lambda argv=argv: cli.run(argv)) for op, argv in self.fit_argv.items()]

    def payload(self, op: str) -> dict:
        with open(self._path(op, "json")) as fh:
            return json.load(fh)

    def check(self, op: str, code: int) -> str | None:
        if code != 0:
            return f"exit code {code}"
        if op == "cellular_psd":
            return checks.check_psd(self._path(op), self.points["cellular"])
        return checks.check_fit(self.payload(op), self.points[op.rsplit("_k", 1)[0]])

    def summary(self, op_s: dict, pass_s: float) -> dict:
        rms = [self.payload(op)["residual_rms_db"] for op in self.fit_argv]
        return {"fits_per_s": len(self.fit_argv) / pass_s,
                "fit_rms_db": float(np.mean(rms))}


WORKLOADS = {w.name: w for w in (LinkCt, LinkDt, Streams, Fit)}


def check_pass(workload, outputs: list[tuple[str, object]]) -> list[str]:
    """One failure line per operation whose call raised or whose output is wrong."""
    failures = []
    for op, out in outputs:
        if isinstance(out, Exception):
            msg = f"raised {type(out).__name__}: {out}"
        else:
            try:
                msg = workload.check(op, out)
            except (ValueError, TypeError, KeyError, IndexError, OSError) as exc:
                msg = f"unreadable output: {type(exc).__name__}: {exc}"
        if msg is not None:
            failures.append(f"{workload.name}/{op}: {msg}")
    return failures
