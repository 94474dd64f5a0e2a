"""homforge benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.  The
workload's job list is built from --seed and run in whole passes for about
--seconds (at least one pass).  Every job's output is then checked,
untimed, against an independent reference.  The last line of stdout is one
JSON object: correct / attempted / failed and the metrics, end-to-end ones
with --trace 0, per-layer ones with --trace 1.  End-to-end times are given
at a reference machine speed (see speed.py).  The line before it is a
context object that no bound applies to; it has the times unscaled.

With --trace 1 the first half of the time runs untraced and the second
half with spans around the library (see tracing.py); the spans are written
to .perfbench/ at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from speed import Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_BUILDS = 3


def bootstrap() -> None:
    """Pin numeric libraries to one thread and import homforge from ./src."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "homforge" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no homforge sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import homforge
    if Path(homforge.__file__).resolve().parent != src / "homforge":
        raise SystemExit(f"perfbench: homforge imported from {homforge.__file__}, not {src}")


class JobFailed:
    """Stands in for the output of a job that raised."""

    def __init__(self, text: str):
        self.text = text


def run_pass(jobs, speed=None) -> tuple[float, list[float], list]:
    """One pass over the jobs: the pass time, each job's latency and output.

    With a ``speed.Speed``, the probe runs between jobs when it is due,
    each job's (start, end) is appended to ``speed.jobs``, and the time
    spent probing is left out of the pass time.
    """
    state: dict = {}
    latencies, outputs = [], []
    start = time.perf_counter()
    probing = 0.0
    for job in jobs:
        t0 = time.perf_counter()
        try:
            out = job.run(state)
        except Exception:  # a failing job is counted, the pass goes on
            out = JobFailed(traceback.format_exc())
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        outputs.append(out)
        if speed is not None:
            speed.jobs.append((t0, t1))
            probing += speed.due(t1)
    return time.perf_counter() - start - probing, latencies, outputs


def run_passes(jobs, seconds: float, speed=None) -> list[tuple[float, list[float], list]]:
    """Whole passes until the next one would end after ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(jobs, speed))
        if time.perf_counter() - start + passes[-1][0] > seconds:
            return passes


def count_failures(jobs, passes) -> tuple[int, list[str]]:
    """Outputs that raised or differ from the reference, over all passes."""
    failed = []
    for _wall, _lat, outputs in passes:
        for job, out in zip(jobs, outputs):
            if isinstance(out, JobFailed):
                failed.append(f"{job.name}: raised\n{out.text}")
                continue
            try:
                ok = job.check(out)
            except Exception:  # a reference that cannot take the output
                ok = False
                failed.append(f"{job.name}: check raised\n{traceback.format_exc()}")
                continue
            if not ok:
                failed.append(f"{job.name}: output differs from the reference")
    return len(failed), failed


def band_mean(values: list[float], pct: int, half_width: int = 5) -> float:
    """Mean of the values ranked within ``half_width`` percentage points of
    the ``pct``-th percentile: a percentile that one value near it moves by
    a share of its change, not all of it."""
    ranked = sorted(values)
    last = len(ranked) - 1
    lo = round((pct - half_width) / 100 * last)
    hi = round((pct + half_width) / 100 * last)
    return statistics.fmean(ranked[lo:hi + 1])


def process_age() -> float:
    """Seconds since this process started, interpreter start-up included."""
    with open("/proc/self/stat") as fh:
        starttime = int(fh.read().rsplit(")", 1)[1].split()[19])  # field 22
    return time.clock_gettime(time.CLOCK_BOOTTIME) - starttime / os.sysconf("SC_CLK_TCK")


def build_timed(workloads, name: str, seed: int, speed):
    """The workload, and setup_s raw and at the reference speed: start-up
    and imports, once, plus the median of a few builds of its inputs.  The
    probe runs before and after each build, to scale the set-up."""
    imported = process_age()
    times = []
    speed.probe()
    start = time.perf_counter()
    for _ in range(SETUP_BUILDS):
        t0 = time.perf_counter()
        wl = workloads.build(name, seed)
        times.append(time.perf_counter() - t0)
        speed.probe()
    setup_s = imported + statistics.median(times)
    return wl, setup_s, setup_s * speed.scale(start, time.perf_counter())


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def context(args, jobs, passes, failed: int) -> dict:
    import numpy
    by_stream: dict[str, float] = defaultdict(float)
    for _wall, latencies, _out in passes:
        for job, lat in zip(jobs, latencies):
            by_stream[job.stream] += lat
    total = sum(by_stream.values())
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": git_commit(), "src_lines": src_lines,
        "jobs_per_pass": len(jobs), "passes": len(passes),
        "job_samples": len(jobs) * len(passes),
        "fail_frac": failed / (len(jobs) * len(passes)),
        "stream_shares": {k: v / total for k, v in sorted(by_stream.items())},
        "not_measured": "the tier-1 test suite's wall time is no workload: "
                        "it grows when tests are added, and 1-2 min per run "
                        "would dominate every comparison",
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    bootstrap()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")

    if args.trace:
        return traced(args, workloads)
    speed = Speed()
    wl, setup_raw, setup_s = build_timed(workloads, args.workload, args.seed, speed)
    passes = run_passes(wl.jobs, args.seconds, speed)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, failures = count_failures(wl.jobs, passes)
    spans = iter(speed.jobs)
    scaled = [[lat * speed.scale(*next(spans)) for lat in p[1]] for p in passes]
    metrics = {
        "wall_ref_s": (statistics.median(sum(lats) for lats in scaled), "s"),
        **job_percentiles("job_ref_ms", scaled),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    raw = {
        "wall_s": (statistics.median(p[0] for p in passes), "s"),
        **job_percentiles("job_ms", [p[1] for p in passes]),
        "setup_s": (setup_raw, "s"),
        "probe_ms": (speed.median_s() * 1e3, "ms"),
    }
    extra = {"raw": {k: v for k, (v, _unit) in raw.items()}, "probes": len(speed.took)}
    return report(args, wl.jobs, passes, failed, failures, metrics, extra)


def job_percentiles(prefix: str, latencies: list[list[float]]) -> dict:
    """p50 and p90, over the jobs, of each job's median latency over the
    passes (ms).  Taking each job at its median means a percentile always
    falls on the same jobs, and one slow pass moves it only through its
    own jobs."""
    typical = [statistics.median(lat) for lat in zip(*latencies)]
    return {f"{prefix}.p{pct}": (band_mean(typical, pct) * 1e3, "ms") for pct in (50, 90)}


def traced(args, workloads) -> int:
    from tracing import Tracer
    wl = workloads.build(args.workload, args.seed)
    plain = run_passes(wl.jobs, args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        with_spans = run_passes(wl.jobs, args.seconds / 2)
    finally:
        tracer.uninstall()
    untraced_wall = statistics.median(p[0] for p in plain)
    traced_wall = statistics.median(p[0] for p in with_spans)
    metrics = tracer.metrics(len(with_spans), traced_wall, untraced_wall)
    extra = {"module_shares": tracer.module_shares(sum(p[0] for p in with_spans)),
             "spans": len(tracer.spans)}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-{args.workload}-{args.seed}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "fields": ["name", "start", "end", "parent"],
                   "spans": tracer.spans}, fh)
    passes = plain + with_spans
    failed, failures = count_failures(wl.jobs, passes)
    return report(args, wl.jobs, passes, failed, failures, metrics, extra)


def report(args, jobs, passes, failed, failures, metrics, extra) -> int:
    for line in failures[:20]:
        print(line, file=sys.stderr)
    ctx = context(args, jobs, passes, failed)
    ctx.update(extra)
    print(json.dumps({"context": ctx}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs) * len(passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
