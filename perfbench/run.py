#!/usr/bin/env python3
"""phasenoise benchmark.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload link_ct --seed 1 --seconds 22 --trace 0

It imports the package from ``src/`` of that checkout, builds the
workload's inputs from ``--seed``, runs passes of the workload until
``--seconds`` seconds have passed (the first pass is an untimed warm-up),
checks every output, and prints as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones, all measured
untraced: ``setup_s`` (median of repeated import-plus-set-up),
``run_cpu_s`` (median time of one pass) and ``peak_rss_mb``.  With
``--trace 1`` passes alternate between untraced and traced; the metrics
are the per-layer self times and counts (median over traced passes),
the tracing overhead, and the workload's own rates from the untraced
passes.  See LAYERS.md for what each metric should move.

Times are process CPU seconds (all threads), not wall time: on a shared
2-vCPU virtual machine, hypervisor steal made the wall time of one pass
vary by 30 % while its CPU time varied by 5 %.  Every operation runs in
this one process and nearly all of it on one thread, so on an idle
machine the two agree; the median wall time is printed as a report line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.process_time(); import phasenoise; "
                "print(time.process_time() - t)")


def pin_threads() -> dict[str, str]:
    """Cap the BLAS/OpenMP pools before numpy loads: 1 thread, or the caller's count up to nproc.

    A run of the package is single threaded by design, and idle pool
    threads that spin would add to the measured CPU time.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        os.environ[var] = str(min(int(cur), nproc) if cur.isdigit() and int(cur) > 0 else 1)
    return {"nproc": nproc, **{v: os.environ[v] for v in THREAD_VARS}}


def import_seconds() -> float:
    """CPU time of `import phasenoise` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


def run_pass(workload, tracer=None, pass_id=0) -> dict:
    """Run every operation once; return outputs, per-op and pass times, layer data."""
    if tracer is not None:
        tracer.begin_pass(pass_id)
    outputs, op_s = [], {}
    wall, start = time.perf_counter(), time.process_time()
    for op, call in workload.ops():
        t = time.process_time()
        try:
            out = call()
        except Exception as exc:  # a raising operation is a failed operation
            out = exc
        op_s[op] = time.process_time() - t
        outputs.append((op, out))
    return {"outputs": outputs, "op_s": op_s, "cpu_s": time.process_time() - start,
            "wall_s": time.perf_counter() - wall,
            "raw": tracer.end_pass() if tracer is not None else None}


def median_of(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def parse_args(argv):
    p = argparse.ArgumentParser(description="phasenoise benchmark")
    p.add_argument("--workload", required=True,
                   choices=("link_ct", "link_dt", "streams", "fit"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "phasenoise" / "__init__.py").is_file():
        print(f"perfbench: no phasenoise sources at {SRC}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    host = pin_threads()
    sys.path.insert(0, str(SRC))
    t = time.process_time()
    import phasenoise  # noqa: F401  (the first of the timed imports)
    import_s = [time.process_time() - t]
    import warnings

    import numpy
    import scipy

    import spans
    import workloads

    warnings.simplefilter("ignore")  # the package's diagnostic warnings are not measured
    host.update(python=platform.python_version(), numpy=numpy.__version__,
                scipy=scipy.__version__, machine=platform.machine())
    print("host " + json.dumps(host, sort_keys=True))

    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    tracer = spans.Tracer() if args.trace else None
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = []
        for i in range(SETUP_REPEATS):
            if i:
                import_s.append(import_seconds())
            t = time.process_time()
            workload.setup()
            setup_s.append(import_s[i] + time.process_time() - t)
        if tracer is not None:
            spans.install(tracer)

        # the first pass warms caches and lazy set-up; it is checked but not timed
        warmup, untraced, traced = [], [], []
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            is_traced = tracer is not None and len(traced) < len(untraced)
            p = run_pass(workload, tracer if is_traced else None,
                         len(warmup) + len(untraced) + len(traced))
            failures = workloads.check_pass(workload, p["outputs"])
            attempted += len(p["outputs"])
            failed += len(failures)
            for line in failures:
                print("FAILED " + line, file=sys.stderr)
            (traced if is_traced else untraced if warmup else warmup).append(p)
            if (time.perf_counter() - start >= args.seconds and untraced
                    and (tracer is None or traced)):
                break

        op_med = median_of([p["op_s"] for p in untraced])
        run_cpu_s = statistics.median(p["cpu_s"] for p in untraced)
        summary = workload.summary(op_med, run_cpu_s)
        if tracer is not None:
            tracer.dump(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for op, sec in op_med.items():
        print(f"op {op} {sec:.6f} s")
    for name, value in summary.items():
        print(f"workload {name} {value:.6g} {units['workload.' + name]}")
    print(f"passes warmup=1 untraced={len(untraced)} traced={len(traced)} "
          f"wall_run_s={statistics.median(p['wall_s'] for p in untraced):.6f} "
          f"error_rate={failed / attempted:.6g}")

    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_s),
            "run_cpu_s": run_cpu_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    else:
        traced_s = statistics.median(p["cpu_s"] for p in traced)
        wanted = spec["per_layer"]
        names = [m["name"] for m in wanted]
        values = median_of([spans.layer_metrics(p["raw"], names) for p in traced])
        values["trace.run_cpu_s"] = traced_s
        values["trace.untraced_run_cpu_s"] = run_cpu_s
        values["trace.overhead_cpu_s"] = traced_s - run_cpu_s
        # every workload's own rates, from the untraced passes; 0 on the others
        for name in names:
            if name.startswith("workload."):
                values[name] = summary.get(name.removeprefix("workload."), 0.0)
    if set(values) != {m["name"] for m in wanted}:
        raise SystemExit(f"perfbench: metrics do not match {SPEC.name}: "
                         f"{sorted(set(values) ^ {m['name'] for m in wanted})}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
