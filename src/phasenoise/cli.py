"""Command-line front end.

Every subcommand writes a CSV (or JSON) artifact whose header records the
package version, the resolved parameters, and the seed, so a run is
reproducible from its own output; only a ``gen`` CSV file written with ``-o``
holds the samples alone.  Tables and ``gen`` CSV stream block by block through
``OutputWriter``.  Exit codes: 0 success, 2 usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import signal
import sys

import numpy as np

from . import __version__
from .analysis import (
    eta,
    eta_d,
    eta_isi,
    normalized_aliasing,
    sir_for_pulse,
    sir_from_rho,
)
from .fitting import fit_composite, fit_single
from .linksim import LinkConfig, simulate_link
from .params import CompositeModel, OscillatorParams, ThreeGppParams
from .pointsio import load_points
from .psd import composite_psd, phasor_psd, pn_autocorr, phasor_autocorr, sampled_psd, threegpp_psd
# gen_composite, save_stream_* and welch_psd stay module attributes:
# perfbench/spans.py wraps them on this module
from .spectral import WelchAccumulator, db, undb, welch_psd, compare_psd  # noqa: F401
from .timegen import (CompositeGenerator, format_rows, gen_composite,  # noqa: F401
                      open_text, save_stream_bin, save_stream_csv, write_csv,
                      write_stream_bin, write_stream_csv)

# rows per block of every table, and samples drawn per block by gen and
# validate: their memory is bounded by it, not by --n
_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# output helpers

class OutputWriter:
    """Writes a table as CSV after ``# key=value`` lines for ``meta`` (in its
    order), or as one JSON document, to stdout (no path, or "-") or a file."""

    def __init__(self, path: str | None, fmt: str, meta: dict):
        self.path = path
        self.fmt = fmt
        self.meta = meta

    def write(self, columns: list[str], blocks) -> None:
        """Write the rows of ``blocks`` (see ``format_rows``) as they arrive."""
        if self.fmt != "json":
            return write_csv(self.path, self.meta, columns, blocks)
        # json.dumps(..., indent=2, sort_keys=True) of the whole table, whose
        # "rows" array sorts last and is written row by row
        head = json.dumps({"columns": columns, "meta": self.meta, "rows": []},
                          indent=2, sort_keys=True)
        row = ",\n    [\n      " + ",\n      ".join(["%r"] * len(columns)) + "\n    ]"
        tail, lead = "]\n}\n", 1  # no comma before the first row
        with open_text(self.path) as fh:
            fh.write(head[:-3])  # up to '"rows": ['
            for text in format_rows(blocks, row):
                fh.write(text[lead:].replace("nan", "NaN").replace("inf", "Infinity"))
                tail, lead = "\n  ]\n}\n", 0
            fh.write(tail)


def _meta(args, **extra) -> dict:
    """Tool, version, subcommand, resolved arguments and ``extra``, by key."""
    resolved = {k: v for k, v in sorted(vars(args).items())
                if k not in ("func", "output", "format") and v is not None}
    meta = {"tool": "phasenoise", "version": __version__, "subcommand": args.subcommand,
            "resolved_args": json.dumps(resolved, sort_keys=True), **extra}
    return dict(sorted(meta.items()))


def _write(args, columns: list[str], blocks, **meta) -> int:
    """Write the table of ``blocks`` under the header ``_meta(args, **meta)``."""
    OutputWriter(args.output, args.format, _meta(args, **meta)).write(columns, blocks)
    return 0


# ---------------------------------------------------------------------------
# model flags

def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--f3db", type=float, help="corner frequency, Hz (0 = free-running)")
    p.add_argument("--l100-db", type=float, help="level at the reference offset, dB")
    p.add_argument("--linf-db", type=float, default=None, help="floor level, dB")
    p.add_argument("--f-ref", type=float, default=1e5, help="reference offset, Hz")
    p.add_argument("--process", action="append", default=None, metavar="F3DB,L100DB[,LINFDB]",
                   help="composite member (repeatable); overrides the single flags")


def _numbers(flag: str, text: str, form: str = "a comma list of numbers",
             sizes: tuple[int, ...] = (), sep: str = ",") -> list[float]:
    """The ``sep``-separated numbers of one ``flag`` value, written as ``form``:
    as many as ``sizes`` allows, or any number when it is empty."""
    try:
        parts = [float(x) for x in text.split(sep)]
    except ValueError:
        parts = None
    if parts is None or sizes and len(parts) not in sizes:
        raise ValueError(f"{flag} needs {form}: {text!r}")
    return parts


def _parse_model(args) -> CompositeModel:
    if args.process:
        return CompositeModel(tuple(
            OscillatorParams.from_db(*_numbers("--process", text, "F3DB,L100DB[,LINFDB]", (2, 3)),
                                     f_ref=args.f_ref)
            for text in args.process))
    if args.f3db is None or args.l100_db is None:
        raise ValueError("model required: --f3db/--l100-db or --process")
    return CompositeModel((OscillatorParams.from_db(
        args.f3db, args.l100_db, args.linf_db, f_ref=args.f_ref),))


def _parse_threegpp(args) -> ThreeGppParams | None:
    if getattr(args, "threegpp_psd0_db", None) is None:
        return None
    if not args.threegpp_zero or not args.threegpp_pole:
        raise ValueError("--threegpp-psd0-db needs --threegpp-zero and --threegpp-pole")
    psd0 = undb(args.threegpp_psd0_db)
    zeros, poles = (tuple(tuple(_numbers(flag, text, "FREQ,EXP", (2,))) for text in items)
                    for flag, items in (("--threegpp-zero", args.threegpp_zero),
                                        ("--threegpp-pole", args.threegpp_pole)))
    return ThreeGppParams(psd0=psd0, zeros=zeros, poles=poles)


def _model_meta(model: CompositeModel) -> str:
    return ";".join(
        f"f3db={p.f3db:g},l100_db={db(p.l100_sq):.6g}"
        + (f",linf_db={db(p.linf_sq):.6g}" if p.linf_sq > 0 else "")
        + "".join(f",flag={f}" for f in p.flags)
        for p in model.processes)


def _log_grid(fmin: float, fmax: float, n: int) -> np.ndarray:
    if not 0 < fmin <= fmax < math.inf:
        raise ValueError(f"need 0 < lo <= hi < inf, got {fmin!r}:{fmax!r}")
    if n < 0:
        raise ValueError(f"grid count must be >= 0, got {n}")
    grid = np.linspace(math.log10(fmin), math.log10(fmax), n)
    return np.power(10.0, grid, out=grid)  # np.logspace's values, in place


def _table(n: int, rows):
    """The columns ``rows(index)`` of an n-row table in blocks of ``_BLOCK`` rows.
    Rows 0 and n-1 go first: each model term or factor is monotone in f or tau,
    so one that fails anywhere fails there, before any row is written."""
    if n:
        rows([0, n - 1])
    return (rows(slice(lo, lo + _BLOCK)) for lo in range(0, n, _BLOCK))


# ---------------------------------------------------------------------------
# subcommands

@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # level_db checks each
def _cmd_psd(args) -> int:
    tg = _parse_threegpp(args)
    if tg is not None:
        meta = {"model": f"threegpp,psd0_db={args.threegpp_psd0_db:g}"}
        evaluate = lambda f: threegpp_psd(tg, f)
    else:
        model = _parse_model(args)
        meta = {"model": _model_meta(model)}
        evaluate = lambda f: composite_psd(model, f)

    def level_db(values, f) -> np.ndarray:
        # a term that overflowed or underflowed at an extreme f leaves 0, inf or nan
        bad = ~((0.0 < values) & (values < math.inf))
        if bad.any():
            raise ValueError(f"the PSD has no finite positive level at {f[bad][0]:g} Hz, in "
                             f"the requested {freqs[0]:g} to {freqs[-1]:g} Hz")
        return db(values)

    columns = ["freq_hz", "psd_db"]
    if args.points:
        pts = load_points(args.points)
        freqs = pts[:, 0]
        columns.append("points_db")
    else:
        freqs = _log_grid(args.fmin, args.fmax, args.n)
    if args.phasor:
        if tg is not None:
            raise ValueError("--phasor applies to oscillator models only")
        p0 = model.processes[0]
        if len(model.processes) != 1 or p0.linf_sq != 0:
            raise ValueError("--phasor needs a single floorless process")
        meta["phasor_delta_weight"] = repr(float(phasor_psd(p0, freqs[:0]).delta_weight))
        columns.append("phasor_db")

    def rows(index):
        f = freqs[index]
        cols = [f, level_db(evaluate(f), f)]
        if args.points:
            cols.append(pts[index, 1])
        if args.phasor:
            cols.append(level_db(phasor_psd(p0, f).continuous, f))
        return cols

    return _write(args, columns, _table(freqs.size, rows), **meta)


def _cmd_autocorr(args) -> int:
    model = _parse_model(args)
    if len(model.processes) != 1:
        raise ValueError("autocorr works on a single process")
    p = model.processes[0]
    taus = _log_grid(args.tau_min, args.tau_max, args.n)

    def rows(index):
        t = taus[index]
        return [t, pn_autocorr(p, t) if p.f3db > 0 else np.full(t.shape, math.nan),
                phasor_autocorr(p, t)]

    return _write(args, ["tau_s", "pn_autocorr_rad2", "phasor_autocorr"],
                  _table(taus.size, rows), model=_model_meta(model))


def _blocks(gen: CompositeGenerator, n: int):
    """The first n samples of ``gen`` in blocks of ``_BLOCK``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (gen.take(min(_BLOCK, n - lo)) for lo in range(0, n, _BLOCK))


def _cmd_gen(args) -> int:
    model = _parse_model(args)
    gen = CompositeGenerator(model, args.ts, args.seed)
    blocks = _blocks(gen, args.n)
    to_stdout = args.output in (None, "-")
    if args.binary:
        if to_stdout:
            raise ValueError("--binary needs --output PATH")
        write_stream_bin(args.output, {"ts": args.ts, "seed": args.seed, "model": gen.model},
                         args.n, blocks)
        return 0
    meta = {"tool": "phasenoise", "version": __version__, "model": _model_meta(model),
            "ts": repr(args.ts), "seed": args.seed} if to_stdout else {}
    write_stream_csv(args.output, meta, args.n, blocks)
    return 0


def _cmd_validate(args) -> int:
    model = _parse_model(args)
    gen = CompositeGenerator(model, args.ts, args.seed)
    if not 1.0 / args.ts < math.inf:
        raise ValueError(f"--ts {args.ts!r} has no finite sampling rate 1/ts")
    acc = WelchAccumulator(args.n, fs=1.0 / args.ts, segment_len=args.segment_len)
    for block in _blocks(gen, args.n):
        acc.push(block)
    est = acc.result()
    band = (10 * est.resolution, args.band_top_fraction / args.ts)
    cmp = compare_psd(est, lambda f: sampled_psd(model, args.ts, f), band=band)
    return _write(args, ["freq_hz", "est_db", "model_db", "dev_db"],
                  [[cmp.freqs, cmp.est_db, cmp.model_db, cmp.dev_db]],
                  model=_model_meta(model), seed=args.seed, ts=repr(args.ts), n=args.n,
                  segment_len=args.segment_len, band_hz=f"{band[0]:g}:{band[1]:g}",
                  max_dev_db=f"{cmp.max_dev_db:.4f}", rms_dev_db=f"{cmp.rms_dev_db:.4f}",
                  nonstationary=str(est.nonstationary))


def _parse_sweep(text: str, default_n: int = 25) -> np.ndarray:
    form = "LO:HI[:N], N a whole number >= 0"
    lo, hi, n = [*_numbers("--sweep-rho", text, form, (2, 3), ":"), default_n][:3]
    if not (n >= 0 and n % 1 == 0):
        raise ValueError(f"--sweep-rho needs {form}: {text!r}")
    return _log_grid(lo, hi, int(n))


def _cmd_errors(args) -> int:
    if args.f3db is not None and not 0.0 <= args.f3db < math.inf:
        raise ValueError(f"--f3db must be finite and >= 0, got {args.f3db!r}")
    if args.sweep_rho:
        rhos = _parse_sweep(args.sweep_rho)
    elif args.l100_db is None or args.ts is None:
        raise ValueError("need --sweep-rho or --l100-db with --ts")
    else:
        rhos = np.array([math.pi * args.f_ref ** 2 * undb(args.l100_db) * args.ts])
    columns = ["rho", "eta", "eta_d", "eta_isi", "sir_db"]
    # the aliasing column is the power-normalized ratio, not the absolute
    # variance; it needs the corner frequency of one operating point
    with_alias = bool(args.f3db) and not args.sweep_rho
    if with_alias:
        columns.append("alias_normalized")
        params = OscillatorParams.from_db(args.f3db, args.l100_db, f_ref=args.f_ref)
    cols = [rhos, *([f(r) for r in rhos] for f in (eta, eta_d, eta_isi)),
            [10.0 * math.log10(sir_from_rho(r)) for r in rhos]]
    if with_alias:
        cols.append(np.full(rhos.size, normalized_aliasing(params, args.ts)))
    return _write(args, columns, [cols])


def _cmd_sir(args) -> int:
    rhos = _parse_sweep(args.sweep_rho, default_n=7) if args.sweep_rho \
        else np.asarray(_numbers("--rho", args.rho))
    rolloffs = _numbers("--rolloffs", args.rolloffs)
    rows = []
    for r in rhos:
        closed_db = 10.0 * math.log10(sir_from_rho(float(r)))
        for beta in rolloffs:
            # a nan roll-off takes 0.05 here, and LinkConfig refuses it
            span = max(args.span, int(round(4.8 / max(0.05, beta))))
            l100 = float(r) / (math.pi * 1e10 * args.ts)
            cfg = LinkConfig(constellation="qpsk", rolloff=beta, osf=args.osf,
                             n_symbols=args.n_symbols, ts=args.ts, pn_mode="ct",
                             pn_model=OscillatorParams(f3db=0.0, l100_sq=l100),
                             esn0_db=None, pilot_len=0, seed=args.seed,
                             filter_span=span)
            stats = simulate_link(cfg)
            # the closed form of the simulated taps, next to the sinc form
            pulse_db = 10.0 * math.log10(sir_for_pulse(beta, float(r), span, args.osf))
            rows.append([float(r), stats.sir_db, stats.sir_se_db, beta, closed_db, pulse_db])
    return _write(args, ["rho", "sir_db", "se", "rolloff", "closed_form_db",
                         "closed_form_pulse_db"], [zip(*rows)],
                  seed=args.seed, n_symbols=args.n_symbols, osf=args.osf, ts=repr(args.ts))


def _cmd_ber(args) -> int:
    if args.config:
        with open(args.config) as fh:
            base = LinkConfig.from_json(fh.read())
    else:
        model = _parse_model(args) if args.pn != "none" else None
        base = LinkConfig(constellation=args.constellation, rolloff=args.rolloff,
                          osf=args.osf, n_symbols=args.n_symbols, ts=args.ts,
                          pn_mode=args.pn, pn_model=model, esn0_db=None,
                          pilot_len=args.pilot_len, pilot_period=args.pilot_period,
                          seed=args.seed, filter_span=args.span)
    rows = []
    for esn0_db in _numbers("--esn0-db", args.esn0_db):
        cfg = LinkConfig(**{**base.__dict__, "esn0_db": esn0_db})
        stats = simulate_link(cfg)
        if stats.unwrap_flags:
            print(f"phasenoise: warning: esn0_db={esn0_db:g}: {stats.unwrap_flags} "
                  "inter-pilot phase jumps above pi/2; unwrap may be ambiguous",
                  file=sys.stderr)
        rows.append([esn0_db, stats.ber, stats.ber_se, stats.n_bits,
                     stats.n_errors, stats.ser, stats.evm_rms])
    return _write(args, ["esn0_db", "ber", "se", "n_bits", "n_errors", "ser", "evm_rms"],
                  [zip(*rows)], seed=base.seed, n_symbols=base.n_symbols,
                  constellation=base.constellation, rolloff=base.rolloff, pn_mode=base.pn_mode,
                  model="none" if base.pn_model is None else _model_meta(base.pn_model))


def _cmd_fit(args) -> int:
    pts = load_points(args.points)
    result = fit_single(pts) if args.k == 1 else fit_composite(pts, args.k)
    payload = {
        "meta": _meta(args, points=args.points, k=args.k),
        "params": [
            {"f3db": p.f3db, "l100_db": db(p.l100_sq),
             "linf_db": None if p.linf_sq == 0 else db(p.linf_sq)}
            for p in result.params],
        "residual_rms_db": result.residual_rms_db,
        "iterations": result.iterations,
        "converged": result.converged,
        "flags": list(result.flags),
    }
    with open_text(args.output) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing leaves
    it unchanged, so every ``run`` shares it."""
    top = argparse.ArgumentParser(prog="phasenoise",
                                  description="oscillator phase-noise toolkit")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="subcommand", required=True)

    def command(name: str, func, help: str, formats: bool = True):
        p = sub.add_parser(name, help=help)
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
        if formats:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(func=func)
        return p

    def link(p):
        p.add_argument("--osf", type=int, default=5)
        p.add_argument("--ts", type=float, default=1e-7)
        p.add_argument("--n-symbols", type=int, default=200_000)
        p.add_argument("--span", type=int, default=32)
        p.add_argument("--seed", type=int, default=1)

    p = command("psd", _cmd_psd, "evaluate a PSD model over a frequency grid")
    _add_model_flags(p)
    p.add_argument("--threegpp-psd0-db", type=float, default=None,
                   help="multi-pole/zero model: PSD0 level, dB")
    p.add_argument("--threegpp-zero", action="append", default=None,
                   metavar="FREQ,EXP", help="zero (repeatable)")
    p.add_argument("--threegpp-pole", action="append", default=None,
                   metavar="FREQ,EXP", help="pole (repeatable)")
    p.add_argument("--fmin", type=float, default=1.0)
    p.add_argument("--fmax", type=float, default=1e8)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--points", default=None, help="point CSV to evaluate against")
    p.add_argument("--phasor", action="store_true",
                   help="add the phasor continuous density column")

    p = command("autocorr", _cmd_autocorr, "phase and phasor autocorrelation")
    _add_model_flags(p)
    p.add_argument("--tau-min", type=float, default=1e-9)
    p.add_argument("--tau-max", type=float, default=1e-1)
    p.add_argument("--n", type=int, default=200)

    p = command("gen", _cmd_gen, "generate a phase-noise sample stream", formats=False)
    _add_model_flags(p)
    p.add_argument("--ts", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--binary", action="store_true", help="binary dump instead of CSV")

    p = command("validate", _cmd_validate, "generator spectrum against the model")
    _add_model_flags(p)
    p.add_argument("--ts", type=float, required=True)
    p.add_argument("--n", type=int, default=2 ** 22)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--segment-len", type=int, default=2 ** 14)
    p.add_argument("--band-top-fraction", type=float, default=0.4,
                   help="upper band edge as a fraction of 1/ts")

    p = command("errors", _cmd_errors, "closed-form symbol-rate error metrics")
    p.add_argument("--l100-db", type=float)
    p.add_argument("--ts", type=float)
    p.add_argument("--f3db", type=float, default=None,
                   help="corner for the normalized aliasing column")
    p.add_argument("--f-ref", type=float, default=1e5)
    p.add_argument("--sweep-rho", default=None, metavar="LO:HI[:N]")

    p = command("sir", _cmd_sir, "Monte-Carlo SIR sweep vs the closed form")
    rho = p.add_mutually_exclusive_group(required=True)
    rho.add_argument("--sweep-rho", default=None, metavar="LO:HI[:N]")
    rho.add_argument("--rho", default=None, help="comma list of rho values")
    p.add_argument("--rolloffs", default="0.05,0.1,0.5")
    link(p)

    p = command("ber", _cmd_ber, "Monte-Carlo BER over Es/N0")
    _add_model_flags(p)
    p.add_argument("--esn0-db", default="6,8,10", help="comma list, dB")
    p.add_argument("--constellation", choices=("qpsk", "qam16"), default="qpsk")
    p.add_argument("--rolloff", type=float, default=0.3)
    link(p)
    p.add_argument("--pn", choices=("ct", "dt", "none"), default="none")
    p.add_argument("--pilot-len", type=int, default=36)
    p.add_argument("--pilot-period", type=int, default=1476)
    p.add_argument("--config", default=None, help="JSON link config (overrides flags)")

    p = command("fit", _cmd_fit, "fit process parameters to PSD points", formats=False)
    p.add_argument("--points", required=True, help="CSV freq_hz,level_db")
    p.add_argument("--k", type=int, default=1, help="at most K processes")

    return top


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError, MemoryError) as exc:
        print(f"phasenoise: error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("phasenoise: interrupted", file=sys.stderr)
        return 130


def _interrupt_once(signum, frame):
    """SIGINT handler of the command process: the first interrupt ends the
    command; later ones, as `timeout -s INT` sends to the process group too,
    are ignored, so that no second ``KeyboardInterrupt`` cuts short the
    removal of a partial ``-o`` file or the message."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    raise KeyboardInterrupt


def main() -> None:
    signal.signal(signal.SIGINT, _interrupt_once)
    code = run()
    # the command is over: a late interrupt must not end the process in a
    # traceback instead of its exit code
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    sys.exit(code)


if __name__ == "__main__":
    main()
