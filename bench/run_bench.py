"""Run one glekit benchmark workload and print its metrics.

    python3 bench/run_bench.py --workload quartic-kernel --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; glekit is imported from ``src/``.
With ``--trace 0`` the run repeats whole rounds of the workload while the
next round still fits in ``--seconds`` (at least one) and reports the
end-to-end metrics: medians over rounds of ``wall_ref`` and ``kernel_ref``,
the stage times in units of a reference computation timed alongside them
(see ``probe.py``), the median of several set-ups as ``setup_s``, and the
process's peak resident memory.  With ``--trace 1`` it makes one untraced and
one traced round on the same inputs and reports the per-layer metrics of the
traced one.  Every stage is checked after it is timed.  The last line of
standard output is one JSON object; the full record, with the environment,
goes to ``bench/results/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 21
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cap_threads() -> dict:
    """Run BLAS on one thread; must run before NumPy is imported.

    On a few shared CPUs a second BLAS thread mostly measures the scheduler.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    nproc = len(os.sched_getaffinity(0))
    caps = _cap_threads()
    import numpy
    import scipy

    import layers
    import workloads
    from probe import SpeedProbe
    from recorder import summarize

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "glekit" / "__init__.py").is_file():
        print(f"error: no glekit sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = workloads.WORKLOADS[args.workload]
    setups = []

    def fresh():
        """Fresh modules and inputs, so that every round starts with cold caches."""
        t0 = perf_counter()
        lib = workloads.import_glekit()
        ctx = wl.setup(lib, args.seed)
        setups.append(perf_counter() - t0)
        return lib, ctx

    for _ in range(SETUP_REPEATS):
        lib, ctx = fresh()
    if not Path(lib.kernels.__file__).resolve().is_relative_to(SRC):
        print(f"error: glekit was imported from {lib.kernels.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    # The first LAPACK call of a process costs about 1 s on 2 CPUs; pay it untimed.
    sym = numpy.random.default_rng(0).standard_normal((400, 400))
    numpy.linalg.eigh(sym + sym.T)

    if args.trace:
        untraced = workloads.run_round(wl, *fresh(), args.seed, 0)
        lib, ctx = fresh()
        rec = layers.install(lib)
        try:
            traced = workloads.run_round(wl, lib, ctx, args.seed, 0, rec)
        finally:
            rec.restore()
        rec.measure_memory()
        summary = summarize(rec.spans)
        rounds = [untraced, traced]
        values = layers.per_layer(summary, traced.wall, untraced.wall)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in layers.PER_LAYER}
    else:
        rounds = []
        speed = SpeedProbe()
        start = perf_counter()
        while True:
            r = workloads.run_round(wl, *fresh(), args.seed, len(rounds), probe=speed)
            rounds.append(r)
            spent = perf_counter() - start
            if r.error or spent + r.elapsed > args.seconds:
                break
        summary = None
        # A round cut short by a raising stage has no time of the workload.
        whole = [r for r in rounds if not r.error]
        metrics = {
            "wall_ref": {"value": _median(r.wall_ref for r in whole), "unit": "ref"},
            "kernel_ref": {"value": _median(r.kernel_ref for r in whole), "unit": "ref"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        # The same medians in seconds, as the clock read them, for the reader.
        raw = {"wall_s": _median(r.wall for r in whole),
               "kernel_s": _median(r.kernel for r in whole),
               "probe_s": _median(d for _, d in speed.samples)}

    result = {**workloads.outcome(rounds), "metrics": metrics}
    failures = [f for r in rounds for f in ([r.error] if r.error else []) + r.check_failures]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(), "nproc": nproc,
        "thread_caps": caps, "mc_workers": workloads.MC_WORKERS,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "setup_seconds": setups,
        "rounds": [{"wall": r.wall, "kernel": r.kernel, "wall_ref": r.wall_ref,
                    "kernel_ref": r.kernel_ref, "elapsed": r.elapsed,
                    "stages": r.stages, "check_failures": r.check_failures,
                    "error": r.error} for r in rounds],
        "spans": summary, "result": result,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for f in failures:
        print(f"failed: {f}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} round(s), "
          f"{result['attempted']} operations attempted, {result['failed']} failed")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    if not args.trace:
        print("  ({wall_s} s of stages, {kernel_s} s to the kernel, "
              "{probe_s} s per probe)".format(**raw))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
