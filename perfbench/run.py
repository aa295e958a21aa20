"""Benchmark for mereo: end-to-end metrics per workload, or a traced run.

    python3 perfbench/run.py --workload iso-census --seed 1 --seconds 30 --trace 0

One process, one thread, one client in a closed loop: each job is one
``mereo`` command line run through ``mereo.cli.main`` in-process, the
next starting when the previous returns.  A pass imports the package
afresh (so no library cache survives from an earlier pass, as in a new
CLI process), makes its inputs from the seed, runs its job list and
then checks every output.  Passes repeat while another fits in
``--seconds``.  Times are scaled to a reference machine speed (clock.py).

With ``--trace 0`` the last line of output reports the end-to-end
metrics; with ``--trace 1`` each pass runs once untraced and once with
hooks on every layer, and the last line reports the per-layer metrics
and the tracing overhead.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import typing
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from clock import REFERENCE_S, ScaledClock  # noqa: E402
from tracing import (Tracer, axiom_codes, layer_metrics,  # noqa: E402
                     layer_shares, median_metrics)
from workloads import WORKLOADS  # noqa: E402

# Set-ups made before the first pass, so setup_s is a median of several
# even when only a few passes fit in the run.
EXTRA_SETUPS = 4

# Every workload has at least 54 jobs a pass, so two passes give the 90th
# percentile at least ten samples beyond it.
MIN_PASSES = 2

# Layer predicted to take the most self time on each workload.
PREDICTED = {
    "iso-census": ["search.canonical_form"],
    "countermodel": ["search.generate", "search.is_canonical"],
    "catalog": ["axioms"],
}


def fresh_import():
    """Import mereo from this checkout as a new process would."""
    for name in [m for m in sys.modules
                 if m == "mereo" or m.startswith("mereo.")]:
        del sys.modules[name]
    # typing caches the generic aliases a module builds at import time; a
    # new process starts without them, and they would keep every earlier
    # import's classes alive.
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    importlib.import_module("mereo.cli")
    pkg = sys.modules["mereo"]
    if Path(pkg.__file__).resolve().parent != SRC / "mereo":
        raise ImportError(f"mereo imported from {pkg.__file__}, "
                          f"not from {SRC}")
    return pkg


def library_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "mereo" or name.startswith("mereo.")}


def setup(workload, pass_index, clock):
    """Import afresh and make the pass's inputs; the set-up interval."""
    start = clock.now()
    lib = fresh_import()
    jobs = workload.jobs(pass_index)
    return clock.interval(start), lib, jobs


def scaled(clock, interval):
    begin, end, seconds = interval
    return seconds * clock.scale(begin, end)


class Pass:
    """Run a pass's jobs back to back, keeping each job's interval and
    output (exit status or exception, text)."""

    def __init__(self, lib, jobs, clock):
        main = lib.cli.main
        self.intervals, self.outputs = [], []
        gc.collect()        # free earlier passes' modules outside the timing
        for job in jobs:
            buf = io.StringIO()
            start = clock.now()
            try:
                rc = main(job.argv, out=buf)
            except Exception as exc:  # a job that raises is a failed operation
                rc = exc
            self.intervals.append(clock.interval(start))
            self.outputs.append((rc, buf.getvalue()))

    def latencies(self, clock):
        """Scaled job latencies; their sum is the pass's scaled wall time."""
        return [scaled(clock, iv) for iv in self.intervals]

    def unscaled(self):
        return sum(iv[2] for iv in self.intervals)

    def elapsed(self):
        """Wall time of the jobs, sampling included."""
        return sum(iv[1] - iv[0] for iv in self.intervals)


def verify(jobs, outputs, lib):
    failures = []
    for job, (rc, text) in zip(jobs, outputs):
        if isinstance(rc, Exception):
            problem = f"raised {type(rc).__name__}: {rc}"
        else:
            try:
                problem = job.check(rc, text, lib)
            except Exception as exc:  # malformed output fails the job
                problem = f"output check raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"mereo {' '.join(job.argv)}: {problem}")
    return failures


def more_passes(started, seconds, workload, done):
    """Whether to start another pass: while fewer than MIN_PASSES are done,
    or while one more, as long as the average so far, ends in time."""
    if workload.capacity is not None and done >= workload.capacity:
        return False
    elapsed = perf_counter() - started
    return done < MIN_PASSES or elapsed + elapsed / done <= seconds


def timed_run(workload, seconds):
    passes, setups, failures = [], [], []
    attempted = 0
    with ScaledClock() as clock:
        setups += [setup(workload, 0, clock)[0] for _ in range(EXTRA_SETUPS)]
        started = perf_counter()
        while not passes or more_passes(started, seconds, workload,
                                        len(passes)):
            interval, lib, jobs = setup(workload, len(passes), clock)
            setups.append(interval)
            run = Pass(lib, jobs, clock)
            passes.append(run)
            attempted += len(jobs)
            failures += verify(jobs, run.outputs, lib)
            run.outputs = None      # keep memory flat across passes
        per_pass = [run.latencies(clock) for run in passes]
        setup_times = [scaled(clock, iv) for iv in setups]
    latencies = [x for lat in per_pass for x in lat]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(sum(lat) for lat in per_pass), "s"),
        "job_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "job_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    notes = [f"passes: {len(passes)}, set-ups: {len(setups)}, job latency "
             f"samples: {len(latencies)}",
             "unscaled wall_s: "
             f"{statistics.median(run.unscaled() for run in passes):.6g} s; "
             f"reference kernel: {clock.median_kernel() * 1e3:.4g} ms "
             f"median, {REFERENCE_S * 1e3:g} ms at reference speed"]
    return metrics, attempted, failures, notes


def traced_run(workload, seconds):
    pairs, failures, absent = [], [], []
    attempted = 0
    with ScaledClock() as clock:
        started = perf_counter()
        while not pairs or more_passes(started, seconds, workload, len(pairs)):
            # Every pair runs the first pass's inputs, each time after a
            # fresh import, so the counts of all traced passes agree.
            _, lib, jobs = setup(workload, 0, clock)
            plain = Pass(lib, jobs, clock)
            failures += verify(jobs, plain.outputs, lib)
            _, lib, jobs_t = setup(workload, 0, clock)
            tracer = Tracer(library_modules())
            tracer.install()
            try:
                run = Pass(lib, jobs_t, clock)
            finally:
                tracer.restore()
            failures += verify(jobs_t, run.outputs, lib)
            plain.outputs = run.outputs = None
            attempted += len(jobs) + len(jobs_t)
            absent = tracer.absent
            pairs.append((plain, run, tracer.stats, axiom_codes(lib)))
        per_pass, untraced, traced = [], [], []
        for plain, run, stats, codes in pairs:
            untraced.append(sum(plain.latencies(clock)))
            traced.append(sum(run.latencies(clock)))
            # Span times include sampling; scale them as the whole pass.
            per_pass.append(layer_metrics(stats, codes,
                                          traced[-1] / run.elapsed()))
    metrics = median_metrics(per_pass)
    wall_t, wall_u = statistics.median(traced), statistics.median(untraced)
    metrics["trace.wall_s"] = (wall_t, "s")
    metrics["trace.untraced_wall_s"] = (wall_u, "s")
    metrics["trace.overhead_s"] = (statistics.median(
        t - u for t, u in zip(traced, untraced)), "s")
    notes = [f"passes: {len(pairs)} untraced + {len(pairs)} traced, all on "
             "the inputs of pass 0; times are medians over passes",
             f"layers absent: {', '.join(absent) if absent else 'none'}"]
    shares = layer_shares(metrics, wall_t)
    notes += [f"  {layer:<22} {s:10.4f} s  {share:6.1%}"
              for layer, s, share in shares]
    top = shares[0][0]
    predicted = PREDICTED[workload.name]
    notes.append(f"largest layer: {top}; predicted: {' + '.join(predicted)}"
                 f" -> {'confirmed' if top in predicted else 'differs'}")
    return metrics, attempted, failures, notes


def _commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(workload, seed):
    digest = hashlib.sha256()
    for path in sorted((SRC / "mereo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload.name, "why": workload.why, "seed": seed,
            "commit": _commit(), "source_sha256": digest.hexdigest(),
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "cpu": _cpu_model(), "loop": "closed, 1 client, 1 thread"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mereo" / "cli.py").is_file():
        print(f"error: no mereo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workroot = ROOT / ".perfbench_work"
    workdir = workroot / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        run = traced_run if args.trace else timed_run
        metrics, attempted, failures, notes = run(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass

    print("run " + json.dumps(environment(workload, args.seed)))
    for line in notes:
        print(line)
    print(f"jobs attempted: {attempted}, failed: {len(failures)}, "
          f"failed_frac: {len(failures) / attempted:g}")
    for line in failures[:20]:
        print("FAILED " + line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
