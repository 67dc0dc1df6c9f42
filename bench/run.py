"""smcbsde benchmark: verified jobs per second on four seeded batch workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload lattice-scale --seed 1 --seconds 22 --trace 0

Each workload is a closed loop with one client: the next job starts when
the previous one has finished and passed or failed its check.  Inputs come
from ``--seed`` and are generated before timing starts.  The loop runs whole
rounds over the workload's job pool for about ``--seconds`` seconds.

End-to-end metrics (``--trace 0``), with job times in gauged seconds (below):

- jobs_per_s  : jobs that passed their check per gauged second of job time,
                the pool size over the sum of each job's median time
- job_p50_s   : median job time over every sample of the run
- job_tail_s  : p90 (nearest rank) of job time over every sample of the run
- peak_rss_mb : peak resident set of this process (ru_maxrss)
- setup_s     : median wall time of five fresh processes that import the
                package, generate the inputs and warm up; two run before
                the timed loop and three after it

A shared host's speed drifts by tens of percent between runs, in CPU time as
much as in wall time.  So a fixed reference kernel (``reference.py``, no
package code) runs before every job, and each job's wall time is divided by
the median slowdown of the kernel calls nearest to it: kernel time over its
nominal time, with the kernel's parts weighted for the workload.  The
quotient is a time in gauged seconds: seconds on a host where the kernel
takes its nominal time.  Set-up time is left raw: process start, imports and
file writes dominate it, and they drift less than the kernel does, so
gauging it made it no steadier.  Raw wall times, the slowdowns,
the fail ratio and the sample counts are printed as comments.

``--trace 1`` spends half the
time untraced and half with spans around the package's public functions,
then rebuilds each lattice once under tracemalloc; it prints a per-layer
attribution table and the tracing overhead, and reports the per-layer
metrics.  The last line of standard output is always one JSON object:
correct, attempted, failed, metrics.
BLAS is pinned to one thread before numpy is imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
SETUP_BEFORE = 2
# Weights of the reference kernel's parts that gauge a workload's jobs:
# lattice-scale jobs are dense LAPACK and BLAS work, the others mix
# interpreted loops with array work.
GAUGE_WEIGHTS = {"lattice-scale": {"array": 1.0}}
TAIL_PCT = 90.0

SPANS = (
    "lattice.build_lattice",
    "lattice.projection_constants",
    "linalg.positivity_condition",
    "linalg.comparison_condition",
    "bsde.solve_bsde.linear",
    "bsde.solve_bsde.general",
    "bsde.check_comparison",
    "duality.dual_value.exhaustive",
    "duality.dual_value.mc",
    "duality.weight_bounds",
    "chain.simulate_paths",
    "control.solve_control",
    "control.brute_force_value",
    "control.epsilon_optimal_policy",
    "files.load",
    "files.write",
    "cli.solve-bsde",
    "cli.solve-control",
    "cli.simulate",
)
COUNTS = (
    ("lattice.dim", "count"),
    ("lattice.sources", "count"),
    ("lattice.reachable_cells", "count"),
    ("lattice.retained_bytes", "bytes"),
    ("bsde.cells", "count"),
    ("bsde.driver_evals", "count"),
    ("duality.lattice_paths", "count"),
    ("duality.mc_path_steps", "count"),
    ("chain.path_steps", "count"),
    ("control.policies", "count"),
    ("control.ties", "count"),
    ("files.bytes_read", "bytes"),
    ("files.bytes_written", "bytes"),
)


def _parse(argv):
    workloads = ("lattice-scale", "path-duality", "control-nonlinear",
                 "cli-roundtrip")
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, warm up and exit (used to time set-up)")
    return p.parse_args(argv)


def _import_package():
    if not (SRC / "smcbsde" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'smcbsde'}; run the "
                 "benchmark from the root of a full checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import smcbsde

    if Path(smcbsde.__file__).resolve().parent != (SRC / "smcbsde").resolve():
        sys.exit(f"error: imported smcbsde from {smcbsde.__file__}, not {SRC}")


@dataclass
class Context:
    workdir: Path
    tracer: object


def setup(workload, seed, tracer):
    """Generate the job pool and warm every code path up on tiny inputs.

    Returns (context, jobs, warm-up failures).
    """
    import numpy as np

    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    ctx = Context(Path(tempfile.mkdtemp(prefix="run-", dir=OUT)), tracer)
    make = WORKLOADS[workload]
    jobs = make(np.random.default_rng(seed), ctx)
    warm = Loop()
    warm.run_round(make(np.random.default_rng([seed, 1]), ctx, tiny=True))
    return ctx, jobs, [f"warm-up {f}" for f in warm.failures]


def _timed_setups(args, repeats):
    """Wall times of ``repeats`` fresh processes that only set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=150)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"error: set-up process failed:\n{proc.stderr[-2000:]}")
    return walls


@dataclass
class Loop:
    """Job times, reference-kernel times, pass counts and work counts.

    The kernel runs before every job and once more when the loop ends, so
    job sample k (counted over the whole loop) lies between kernel times k
    and k + 1.
    """

    weights: dict = field(default_factory=lambda: reference.MIXED)
    round_times: list = field(default_factory=list)
    round_counts: list = field(default_factory=list)
    kernel_times: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    passed: int = 0
    wall: float = 0.0

    @property
    def rounds(self):
        return len(self.round_times)

    @property
    def attempted(self):
        return sum(len(times) for times in self.round_times)

    def run_round(self, jobs):
        """Run every job once, back to back; a failed job is counted."""
        counts, times = {}, []
        passed = 0
        for job in jobs:
            self.kernel_times.append(reference.timed())
            t0 = time.perf_counter()
            try:
                extra = job.run()
            except Exception as exc:  # a failed job is counted, not fatal
                self.failures.append(f"{job.label}: {type(exc).__name__}: {exc}")
                extra = None
            times.append(time.perf_counter() - t0)
            if extra is not None:
                passed += 1
                for key, value in {**job.counts, **extra}.items():
                    counts[key] = counts.get(key, 0) + value
        self.wall += sum(times)
        self.passed += passed
        self.round_times.append(times)
        self.round_counts.append(counts)

    def finish(self):
        self.kernel_times.append(reference.timed())

    def round_rates(self):
        """Jobs per second of raw job wall time, per round."""
        return [len(times) / sum(times) for times in self.round_times]

    def gauged(self):
        """Each job's samples in gauged seconds, one list per job."""
        slowdowns = [reference.slowdown(t, self.weights)
                     for t in self.kernel_times]
        per_job = [[] for _ in self.round_times[0]]
        k = 0
        for times in self.round_times:
            for j, wall in enumerate(times):
                gauge = reference.local_gauge(slowdowns, k, k + 1)
                per_job[j].append(wall / gauge)
                k += 1
        return per_job


def run_rounds(jobs, seconds, step):
    """Call ``step`` (one or more rounds) until about ``seconds`` have passed.

    The loop stops at the round boundary nearest to ``seconds``.
    """
    start = time.perf_counter()
    steps = 0
    while True:
        step(jobs)
        steps += 1
        elapsed = time.perf_counter() - start
        if elapsed * (1.0 + 0.5 / steps) >= seconds:
            return


def percentile(xs, pct):
    """Nearest-rank percentile; returns (value, samples beyond it)."""
    xs = sorted(xs)
    rank = max(1, math.ceil(pct / 100.0 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "smcbsde").glob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_counts(args, loops, extra=None):
    """Counts must repeat exactly in every round and across runs of a seed.

    The first run of a (workload, seed, trace mode, source) combination
    records its counts under .bench_out; later runs compare against them.
    Returns (counts per round, list of problems).
    """
    rounds = [c for loop in loops for c in loop.round_counts]
    problems = [f"round {r} counts differ from round 1"
                for r, counts in enumerate(rounds[1:], start=2)
                if counts != rounds[0]]
    first = dict(rounds[0], **(extra or {}))
    if any(loop.failures for loop in loops):
        return first, problems
    record = OUT / (f"counts-{args.workload}-seed{args.seed}-"
                    f"trace{args.trace}-{_source_digest()}.json")
    if record.exists():
        if json.loads(record.read_text()) != first:
            problems.append(f"counts differ from the earlier run in {record.name}")
    else:
        record.write_text(json.dumps(first, sort_keys=True))
    return first, problems


def environment():
    import ctypes
    import glob

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(loop, setup_walls):
    per_job = loop.gauged()
    samples = [t for times in per_job for t in times]
    medians = [statistics.median(times) for times in per_job]
    tail_value, beyond = percentile(samples, TAIL_PCT)
    raw = [t for times in loop.round_times for t in times]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    slowdowns = [reference.slowdown(t, loop.weights) for t in loop.kernel_times]
    print(f"# rounds {loop.rounds}, jobs {loop.attempted} in {loop.wall:.3f} s "
          f"of job wall time, fail_ratio "
          f"{(loop.attempted - loop.passed) / loop.attempted:.4f}")
    print(f"# reference kernel {loop.weights}: slowdown median "
          f"{statistics.median(slowdowns):.3f} over {len(slowdowns)} calls, "
          f"range {min(slowdowns):.3f}-{max(slowdowns):.3f}")
    print("# raw jobs/s per round: "
          + ", ".join(f"{r:.4f}" for r in loop.round_rates()))
    print(f"# raw job wall time: p50 {statistics.median(raw):.4f} s, "
          f"p{TAIL_PCT:g} {percentile(raw, TAIL_PCT)[0]:.4f} s; job_tail_s is "
          f"p{TAIL_PCT:g} of {len(samples)} gauged samples, {beyond} beyond")
    print("# gauged median per job (s): "
          + ", ".join(f"{m:.4f}" for m in medians))
    print("# setup runs (s): " + ", ".join(f"{w:.3f}" for w in setup_walls))
    return {
        "jobs_per_s": _metric(loop.passed / loop.attempted * len(medians)
                              / sum(medians), "1/s"),
        "job_p50_s": _metric(statistics.median(samples), "s"),
        "job_tail_s": _metric(tail_value, "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "setup_s": _metric(statistics.median(setup_walls), "s"),
    }


def traced(args, jobs, tracer, seconds):
    """Alternate untraced and traced rounds for about ``seconds``.

    Alternating lets both sides see the same load from other tenants, so
    their ratio is the tracing overhead.  Returns (untraced loop, traced
    loop, per-layer metrics, counts known only from tracing).
    """
    weights = GAUGE_WEIGHTS.get(args.workload, reference.MIXED)
    plain, loop = Loop(weights), Loop(weights)

    def pair(jobs):
        plain.run_round(jobs)
        tracer.active = True
        try:
            loop.run_round(jobs)
        finally:
            tracer.active = False

    tracer.install()
    try:
        run_rounds(jobs, seconds, pair)
    finally:
        tracer.uninstall()
    plain.finish()
    loop.finish()
    peak_bytes, retained = tracer.memory_pass()
    baseline = _baseline() if args.workload == "lattice-scale" else []

    rounds = loop.rounds
    job_s = sum(map(sum, loop.round_times)) / rounds
    unattributed = job_s - tracer.top_level / rounds
    plain_s = sum(map(statistics.median, plain.gauged()))
    traced_s = sum(map(statistics.median, loop.gauged()))
    overhead = traced_s / plain_s - 1.0

    print(f"# attribution, {args.workload}, per round of {len(jobs)} jobs "
          f"({rounds} traced rounds)")
    print(f"# {'layer':34s} {'self_s':>10s} {'share':>7s} {'busy_s':>10s} "
          f"{'calls':>7s}")
    for name in sorted(SPANS, key=lambda s: -tracer.self_time.get(s, 0.0)):
        if tracer.calls.get(name):
            print(f"# {name:34s} {tracer.self_time[name] / rounds:10.4f} "
                  f"{tracer.self_time[name] / rounds / job_s:7.1%} "
                  f"{tracer.busy[name] / rounds:10.4f} "
                  f"{tracer.calls[name] / rounds:7.1f}")
    print(f"# {'unattributed_s':34s} {unattributed:10.4f} "
          f"{unattributed / job_s:7.1%}")
    print(f"# {'job_s':34s} {job_s:10.4f}")
    print(f"# tracing overhead: a round takes {plain_s:.4f} gauged s untraced, "
          f"{traced_s:.4f} traced ({overhead:+.1%})")
    for line in baseline:
        print("# baseline " + line)

    metrics = {}
    for name in SPANS:
        metrics[f"{name}.busy_s"] = _metric(tracer.busy.get(name, 0.0) / rounds, "s")
        metrics[f"{name}.self_s"] = _metric(
            tracer.self_time.get(name, 0.0) / rounds, "s")
        metrics[f"{name}.calls"] = _metric(tracer.calls.get(name, 0) / rounds,
                                           "count")
    metrics["lattice.build_lattice.peak_mb"] = _metric(peak_bytes / 2**20, "MB")
    metrics["job_s"] = _metric(job_s, "s")
    metrics["unattributed_s"] = _metric(unattributed, "s")
    metrics["tracing_overhead"] = _metric(overhead, "ratio")
    return plain, loop, metrics, {"lattice.retained_bytes": retained // rounds}


def _baseline():
    """build_lattice on the two reference geometric models of the roadmap."""
    import tracemalloc

    import numpy as np

    from inputs import geometric_model
    from smcbsde import lattice

    rng = np.random.default_rng(0)
    lines = []
    for n, t in ((4, 40), (5, 50)):
        model = geometric_model(rng, n, t)
        tracemalloc.start()
        t0 = time.perf_counter()
        sys_ = lattice.build_lattice(model)
        wall = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        lines.append(f"build_lattice N={n} T={t} (D={sys_.dim}): {wall:.3f} s, "
                     f"tracemalloc peak {peak:.1f} MB")
        del sys_
    return lines


def main(argv=None):
    args = _parse(argv)
    _import_package()
    from tracing import Tracer

    tracer = Tracer()
    if args.setup_only:
        ctx, _, _ = setup(args.workload, args.seed, tracer)
        shutil.rmtree(ctx.workdir, ignore_errors=True)
        return 0

    setup_walls = [] if args.trace else _timed_setups(args, SETUP_BEFORE)
    t0 = time.perf_counter()
    ctx, jobs, warm_failures = setup(args.workload, args.seed, tracer)
    print(f"# {args.workload} seed {args.seed}: {len(jobs)} jobs per round "
          f"({', '.join(j.label for j in jobs)}); set-up in this process "
          f"{time.perf_counter() - t0:.3f} s after import")
    print("# env " + json.dumps(environment(), sort_keys=True))
    try:
        if args.trace:
            plain, loop, metrics, extra = traced(args, jobs, tracer, args.seconds)
            loops = [plain, loop]
        else:
            loop = Loop(GAUGE_WEIGHTS.get(args.workload, reference.MIXED))
            run_rounds(jobs, args.seconds, loop.run_round)
            loop.finish()
            loops, extra = [loop], None
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    if not args.trace:
        setup_walls += _timed_setups(args, SETUP_REPEATS - SETUP_BEFORE)
        metrics = end_to_end(loop, setup_walls)

    counts, problems = check_counts(args, loops, extra)
    print("# counts per round " + json.dumps(counts, sort_keys=True))
    if args.trace:
        for key, unit in COUNTS:
            metrics[key] = _metric(counts.get(key, 0), unit)
    problems = warm_failures + problems
    failures = [f for loop in loops for f in loop.failures]
    attempted = sum(loop.attempted for loop in loops)
    failed = attempted - sum(loop.passed for loop in loops)
    for line in failures[:5] + problems:
        print(f"# FAIL {line}")
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
