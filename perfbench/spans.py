"""Outside-in spans around the names one phasenoise module imports from another.

The tracer replaces a module or class attribute with a wrapper that
records a span (layer metric, call site, parent, start, end, pass id)
and, optionally, counts taken from the call's arguments and result.
Span times are process CPU seconds, the clock ``run_cpu_s`` uses.
Nothing under ``src/`` changes: the wrappers sit at the lookup sites the
package already uses, so ``linksim.gen_composite`` and
``cli.gen_composite`` are wrapped separately but feed one layer metric.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.pass_id = -1
        self.enabled = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, metric: str, count=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``metric`` names the layer time the span's self time adds to;
        ``count(counts, result, args, kwargs)`` adds layer counts.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        site = f"{getattr(owner, '__name__', owner)}.{attr}"

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return orig(*args, **kwargs)
            span = {"metric": metric, "site": site, "pass": self.pass_id,
                    "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.process_time()
            try:
                result = orig(*args, **kwargs)
            finally:
                span["end"] = time.process_time()
                self._stack.pop()
            if count is not None:
                count(self.counts, result, args, kwargs)
            return result

        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.counts = defaultdict(float)
        self.enabled = True

    def end_pass(self) -> dict[str, float]:
        """Stop recording; return this pass's self times and counts."""
        self.enabled = False
        out: dict[str, float] = defaultdict(float)
        first = next((i for i, s in enumerate(self.spans) if s["pass"] == self.pass_id),
                     len(self.spans))
        spans = self.spans[first:]
        child_time = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        for i, s in enumerate(spans, start=first):
            dur = s["end"] - s["start"]
            out[s["metric"] + "_s"] += dur - child_time[i]
            out[s["metric"] + "_total_s"] += dur
        out.update(self.counts)
        return dict(out)

    def dump(self, path) -> None:
        """Write every recorded span as one JSON object per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s}) + "\n")


def _file_size(path) -> int:
    return os.path.getsize(path) if path not in (None, "-") else 0


def _argv_output(argv) -> str | None:
    for flag in ("-o", "--output"):
        if flag in argv:
            return argv[argv.index(flag) + 1]
    return None


def _n_tx(cfg) -> int:
    # transmitted length incl. pilot fields, as build_pilot_layout lays it out
    if cfg.pilot_len == 0:
        return cfg.n_symbols
    fields = max(1, -(-cfg.n_symbols // cfg.pilot_period)) + 1
    return cfg.n_symbols + fields * cfg.pilot_len


def _count_link(counts, stats, args, kwargs):
    cfg = args[0] if args else kwargs["cfg"]
    counts["linksim.symbols"] += cfg.n_symbols
    if cfg.pn_mode != "dt":
        counts["linksim.oversampled_samples"] += _n_tx(cfg) * cfg.osf
    counts["linksim.unwrap_flags"] += stats.unwrap_flags


def _count_samples(counts, stream, args, kwargs):
    counts["timegen.samples"] += len(stream)


def _count_stream_bytes(counts, _result, args, kwargs):
    counts["timegen.bytes_written"] += _file_size(args[1] if len(args) > 1 else kwargs["path"])


def _count_welch(counts, est, args, kwargs):
    counts["spectral.segments"] += est.n_segments
    counts["spectral.nonstationary_flags"] += int(est.nonstationary)


def _count_points(counts, _result, args, kwargs):
    f = args[1] if len(args) > 1 else kwargs["f"]
    counts["psd.points"] += getattr(f, "size", 1)


def _count_fit(counts, result, args, kwargs):
    counts["fitting.fits"] += 1
    counts["fitting.converged"] += int(result.converged)
    counts["fitting.objective_evals"] += result.iterations


def _count_cli(counts, _code, args, kwargs):
    argv = args[0] if args else kwargs["argv"]
    counts["cli.bytes_written"] += _file_size(_argv_output(argv))


def install(tracer: Tracer) -> None:
    """Wrap every cross-module call site the workloads reach."""
    from phasenoise import cli, linksim, timegen

    tracer.wrap(linksim, "simulate_link", "linksim.chain_self", _count_link)
    tracer.wrap(linksim, "gen_composite", "timegen.gen_composite", _count_samples)
    tracer.wrap(linksim, "measure_sir", "linksim.measure_sir")
    tracer.wrap(linksim, "pilot_phase_track", "linksim.pilot_track")
    tracer.wrap(linksim, "rrc_taps", "linksim.rrc_taps")
    tracer.wrap(linksim.Constellation, "map_bits", "linksim.map_bits")
    tracer.wrap(linksim.Constellation, "decide", "linksim.decide")
    tracer.wrap(timegen, "gen_ar", "timegen.gen_ar")
    tracer.wrap(timegen, "gen_wiener", "timegen.gen_wiener")
    tracer.wrap(timegen, "gen_white_floor", "timegen.gen_white_floor")
    tracer.wrap(cli, "run", "cli.run", _count_cli)
    tracer.wrap(cli.OutputWriter, "write", "cli.write")
    tracer.wrap(cli, "gen_composite", "timegen.gen_composite", _count_samples)
    tracer.wrap(cli, "save_stream_csv", "timegen.save_stream_csv", _count_stream_bytes)
    tracer.wrap(cli, "save_stream_bin", "timegen.save_stream_bin", _count_stream_bytes)
    tracer.wrap(cli, "welch_psd", "spectral.welch_psd", _count_welch)
    tracer.wrap(cli, "compare_psd", "spectral.compare_psd")
    tracer.wrap(cli, "composite_psd", "psd.composite_psd", _count_points)
    tracer.wrap(cli, "threegpp_psd", "psd.threegpp_psd", _count_points)
    tracer.wrap(cli, "fit_single", "fitting.fit_single", _count_fit)
    tracer.wrap(cli, "fit_composite", "fitting.fit_composite", _count_fit)
    tracer.wrap(cli, "load_points", "pointsio.load_points")


def layer_metrics(raw: dict[str, float], names: list[str]) -> dict[str, float]:
    """Map one traced pass's raw self times and counts onto the per-layer ``names``.

    ``trace.*`` and ``workload.*`` names are left to the runner.
    """
    m = {name: raw.get(name, 0.0) for name in names
         if not name.startswith(("trace.", "workload."))}
    m["cli.run_s"] = raw.get("cli.run_total_s", 0.0)
    m["cli.self_s"] = raw.get("cli.run_s", 0.0)
    fits = raw.get("fitting.fits", 0.0)
    m["fitting.converged_ratio"] = raw.get("fitting.converged", 0.0) / fits if fits else 0.0
    return m
