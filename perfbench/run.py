#!/usr/bin/env python3
"""periodlab benchmark: known-answer workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload periods-circle --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
workload's manifests are generated from ``--seed`` under
``perfbench/out/<workload>-<seed>/``.  One client issues the workload's jobs
in sequence (closed loop); a pass is one trip through the job list, and
passes repeat while one more fits in ``--seconds`` (at least ``tail_passes``).

Times are reported in reference seconds.  On a shared host the speed drifts
by tens of percent over seconds to minutes, which no longer run would
average away.  So a fixed reference kernel (``reference_kernel``: the same
kind of small-array numpy and interpreter work as periodlab's inner loops,
never calling periodlab) is timed right before and right after every job and
every set-up, and each measured time is scaled by ``REF_KERNEL_S`` over the
mean of those two kernel times: the time the job would take on a host where
the kernel takes ``REF_KERNEL_S``.  A change to the program moves these
numbers as it moves wall time; a change in the host's speed moves both the
job and the kernel and cancels.  The unscaled figures are printed too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs
untraced passes, then traced ones (wrappers installed, spans recorded),
prints the per-layer metrics and writes the spans to
``perfbench/out/trace-<workload>-<seed>.json``.  Human-readable lines come
first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import types

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from oracle import FLOOR, judge, run_call, run_cli  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 25  # set-up is repeated and its median reported
TRACED_PASSES = 2
MODULES = ("expr", "chains", "forms", "quad", "stokes", "periods", "homology", "glue", "manifest", "cli")


def import_periodlab():
    """A fresh import of every periodlab module, as a namespace."""
    for name in [m for m in sys.modules if m == "periodlab" or m.startswith("periodlab.")]:
        del sys.modules[name]
    pl = types.SimpleNamespace()
    for mod in MODULES:
        setattr(pl, mod, importlib.import_module(f"periodlab.{mod}"))
    return pl


# The reference kernel's time on the 2-core x86-64 host the benchmark was
# tuned on; scaled times read as seconds on that host.
REF_KERNEL_S = 2.5e-3
_KPTS = np.random.default_rng(0).random((40, 2))
_KW = np.random.default_rng(1).random(40)


def reference_kernel() -> float:
    """Fixed work that never calls periodlab: Jacobian-style arithmetic on a
    40-point batch of small numpy arrays, and interpreter work on floats,
    tuples and lists.  About 2.5 ms; its time tracks the host's speed."""
    s = 0.0
    cells = []
    for i in range(60):
        a = _KPTS[:, 0] * (1.0 + 1e-3 * i)
        b = _KPTS[:, 1]
        r = np.sqrt(a * a + b * b + 1.0)
        jac = np.stack([np.stack([a / r, b]), np.stack([b, a * r])])
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        s += float(np.dot(_KW, np.abs(det)))
        cells.append((s, i, [s] * 4))
        if len(cells) > 20:
            cells.sort(key=lambda c: -c[0])
            del cells[10:]
        t = 0.0
        for j in range(60):
            t += (j * 0.5) ** 0.5 if j % 2 else -j / 3.0
        s += t * 1e-9
    return s


def kernel_time() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def setup(workload_cls, seed, outdir, tracer=None):
    """Import, generate and load the manifests, warm the cubature rules.
    Returns (seconds, periodlab namespace, job list)."""
    t0 = time.perf_counter()
    pl = import_periodlab()
    if tracer is not None:
        tracer.install(pl)
    wl = workload_cls(seed, outdir)
    wl.generate()
    loaded = wl.load(pl)
    for d in (1, 2, 3):
        for n in (3, 4):
            pl.quad.simplex_rule(d, n)
    jobs = wl.jobs(pl, loaded)
    return time.perf_counter() - t0, pl, jobs


class Tally:
    """Outcomes of every job of every pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []  # failures of jobs that carry no recorded defect
        self.failures = {}  # job name -> (defect, first problem)
        self.records = []

    def add(self, job, verdict):
        self.attempted += 1
        self.records.extend(verdict.records)
        if verdict.problems:
            self.failed += 1
            self.failures.setdefault(job.name, (job.defect, verdict.problems[0]))
            if not job.defect:
                self.unexpected.append((job.name, verdict.problems[0]))


def run_passes(pl, jobs, seconds, min_passes, tally, tracer=None):
    """Closed loop over the job list.  Another pass starts while one more is
    expected to end within ``seconds`` (and until ``min_passes`` are done).
    Returns per-pass job latencies and, for each job, the mean time of the
    reference kernel run just before and just after it.  Latencies are the
    time the program spent producing the answers, without the checks."""
    latencies, kernels, durations = [], [], []
    start = time.perf_counter()
    while len(latencies) < min_passes or (
        time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        t_pass = time.perf_counter()
        gc.collect()
        lat, ker = [], [kernel_time()]
        for k, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = k
                root = tracer.open("job")
            t0 = time.perf_counter()
            if job.argv is not None:
                outcome = run_cli(pl.cli.run, job.argv)
            else:
                outcome = run_call(job.call)
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(root)
            lat.append(dt)
            tally.add(job, judge(job, outcome))
            ker.append(kernel_time())
        latencies.append(lat)
        kernels.append([(a + b) / 2 for a, b in zip(ker, ker[1:])])
        durations.append(time.perf_counter() - t_pass)
    return latencies, kernels


def scaled(latencies, kernels):
    """Latencies in reference seconds (see the module docstring)."""
    return [[dt * REF_KERNEL_S / k for dt, k in zip(lat, ker)] for lat, ker in zip(latencies, kernels)]


def quantile(values, q):
    """The q-quantile of ``values``, interpolated linearly between order statistics."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_quantile(jobs_per_pass, tail_passes):
    """The highest quantile with ten samples beyond it in ``tail_passes``
    passes.  Taken over all passes of a run, it keeps ten or more beyond it
    and falls on the same job class whatever the pass count."""
    return 1.0 - 10.0 / (jobs_per_pass * tail_passes)


def frac(num, den, vacuous):
    return num / den if den else vacuous


def end_to_end(latencies, kernels, setups, tally, tail_passes):
    recs = [r for r in tally.records if r.converged is not None and not r.expect_no]
    known = [r for r in tally.records if r.known]
    unconverged = sum(1 for r in recs if not r.converged)
    misses = sum(1 for r in known if not r.bound_holds())
    lat = scaled(latencies, kernels)
    pooled = [x for row in lat for x in row]
    q = tail_quantile(len(lat[0]), tail_passes)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": (statistics.median(sum(row) for row in lat), "s"),
        "job_p50_s": (statistics.median(pooled), "s"),
        "job_tail_s": (quantile(pooled, q), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "pass_frac": (frac(tally.attempted - tally.failed, tally.attempted, 1.0), "1"),
        "converged_frac": (frac(len(recs) - unconverged, len(recs), 1.0), "1"),
        "err_bound_held_frac": (frac(len(known) - misses, len(known), 1.0), "1"),
    }
    raw = [x for row in latencies for x in row]
    extra = {
        "job_tail_percentile": 100.0 * q,
        "job_samples": len(pooled),
        "passes": len(lat),
        "fail_frac": [frac(tally.failed, tally.attempted, 0.0), tally.failed, tally.attempted],
        "unconverged_frac": [frac(unconverged, len(recs), 0.0), unconverged, len(recs)],
        "err_bound_miss_frac": [frac(misses, len(known), 0.0), misses, len(known)],
        "err_bound_floor": FLOOR,
        "max_rel_err": max((r.rel_err() for r in known), default=0.0),
        "kernel_median_s": statistics.median(k for row in kernels for k in row),
        "unscaled_wall_s": statistics.median(sum(row) for row in latencies),
        "unscaled_job_p50_s": statistics.median(raw),
        "unscaled_job_tail_s": quantile(raw, q),
    }
    return metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "periodlab", "__init__.py")):
        sys.stderr.write(f"periodlab sources not found under {src}\n")
        return 2
    sys.path.insert(0, src)
    # write no bytecode into src/: in a fresh checkout every set-up compiles alike
    sys.dont_write_bytecode = True

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wl_cls = WORKLOADS[args.workload]
    outdir = os.path.join(HERE, "out", f"{args.workload}-{args.seed}")
    os.makedirs(outdir, exist_ok=True)
    setups = []
    for _ in range(SETUP_REPS):
        before = kernel_time()
        dt, pl, jobs = setup(wl_cls, args.seed, outdir)
        setups.append(dt * REF_KERNEL_S / ((before + kernel_time()) / 2))

    tally = Tally()
    if args.trace:
        # untraced passes first: the baseline for the tracing overhead
        walls = [sum(row) for row in scaled(*run_passes(pl, jobs, args.seconds / 2, 2, tally))]
        tracer = Tracer()
        _, pl, jobs = setup(wl_cls, args.seed, outdir, tracer)
        t_walls = [sum(row) for row in scaled(*run_passes(pl, jobs, 0.0, TRACED_PASSES, tally, tracer))]
        tracer.uninstall()
        tracer.write(os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.json"))
        layer = tracer.layer_metrics(len(t_walls), statistics.median(t_walls), statistics.median(walls))
        metrics = {k: (v, units[k]) for k, v in layer.items()}
        extra = {"passes": len(walls), "traced_passes": len(t_walls)}
    else:
        latencies, kernels = run_passes(pl, jobs, args.seconds, wl_cls.tail_passes, tally)
        metrics, extra = end_to_end(latencies, kernels, setups, tally, wl_cls.tail_passes)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    assert list(metrics) == [m["name"] for m in declared], "metrics differ from BENCHMARK.json"

    print(f"# workload {args.workload} seed {args.seed}: {len(jobs)} jobs per pass")
    for key, (value, unit) in metrics.items():
        print(f"#   {key:32s} {value:.6g} {unit}")
    for key, value in extra.items():
        print(f"#   {key:32s} {value}")
    if not args.trace:
        for k, job in enumerate(jobs):
            per_job = [row[k] for row in scaled(latencies, kernels)]
            print(f"#   job {job.name:40s} median {statistics.median(per_job):.4f} s")
    for name, (defect, problem) in sorted(tally.failures.items()):
        print(f"#   FAILED {name}: {problem}" + (f" [known defect: {defect}]" if defect else ""))
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
