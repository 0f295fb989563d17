"""Benchmark of roundsched: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload synth-small --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src.  For
as close to --seconds as whole cycles allow, the run sets up the
workload's inputs (repeatedly, for a short slot) and then makes one
timed pass of calls over them; afterwards it checks every result,
outside the timed region, and prints the metrics as the last line of
stdout.  With --trace 0 that is the
end-to-end metrics; with --trace 1 the passes are split between an
untraced and a traced half and the line holds the per-layer metrics from
the traced half (see perfbench/README.md).
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

# a closed loop with one caller and no helper threads: BLAS would
# otherwise start a worker per core when numpy loads
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
from scipy.special import betainc  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
# set-up is repeated before every pass for at least this long (at least
# once), so its samples are spread over the run like the passes are
SETUP_SLOT_S = 0.2
# the highest percentile that keeps ten cases beyond it among the 82
# cases of synth-small (82 * 0.13 = 10.7)
TAIL_PCT = 87
WORKLOAD_NAMES = ("synth-small", "synth-ladder", "long-horizon")
END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "call_ms_p50": "ms",
    f"call_ms_p{TAIL_PCT}": "ms",
    "peak_rss_mb": "MB",
}


def _quantile(xs: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with beta weights centred on
    rank p*(n+1).  Per-call times here cluster with gaps between clusters,
    and a plain order statistic jumps across a gap when the sample shifts
    by one case; this estimate moves smoothly instead.
    """
    xs = np.sort(np.asarray(xs, dtype=float))
    n = len(xs)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ xs)


def _setup_slot(work, seed: int, workdir: str, tracer=None) -> float:
    """Median time of set-ups repeated for at least SETUP_SLOT_S."""
    times = []
    t_end = time.perf_counter() + SETUP_SLOT_S
    while not times or time.perf_counter() < t_end:
        span = contextlib.nullcontext() if tracer is None else tracer.span("setup.run")
        with span:
            t0 = time.perf_counter()
            work.setup(seed, workdir, tracer)
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _run_cycles(work, seed: int, workdir: str, seconds: float, tracer=None):
    """Cycles of a set-up slot and a pass, back to back, while the next
    cycle (estimated by the slowest so far) brings the elapsed time closer
    to seconds; at least one, and one more set-up slot after the last
    pass, so that even a run of one long pass samples set-up twice.
    Returns the slots' set-up times, the passes and the passes' wall
    times."""
    setups, passes, walls, cycles = [], [], [], []
    t0 = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        setups.append(_setup_slot(work, seed, workdir, tracer))
        if tracer is not None:
            tracer.install_all()
        p0 = time.perf_counter()
        try:
            passes.append(work.run_pass(tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        walls.append(time.perf_counter() - p0)
        cycles.append(time.perf_counter() - c0)
        if time.perf_counter() - t0 + max(cycles) / 2 > seconds:
            setups.append(_setup_slot(work, seed, workdir, tracer))
            return setups, passes, walls


def _case_means(passes, kind: str) -> list[float]:
    """Each case's mean call time over the run.

    The machine switches between speeds that differ by up to a factor of
    two and last seconds to tens of seconds.  The quantiles are over
    cases, each timed by the mean of its calls, so that a case's time
    averages over those spells instead of jumping from one to the next;
    calls that repeat one input (long-horizon) make a single case."""
    calls: dict[str, list[float]] = {}
    for p in passes:
        for c in p:
            if c.kind == kind:
                calls.setdefault(c.case, []).append(c.wall_s)
    return [statistics.fmean(ts) for ts in calls.values()]


def end_to_end(work, passes, walls, setup_s: float, rss_mb: float) -> dict:
    """The metrics of BENCHMARK.json, the same names on every workload."""
    primary = _case_means(passes, work.primary)
    values = {
        "setup_s": setup_s,
        # the mean pass: the machine's speed drifts in spells of seconds to
        # tens of seconds, and the mean averages over all spells of the run
        "total_s": statistics.fmean(walls),
        "call_ms_p50": 1000 * _quantile(primary, 0.5),
        f"call_ms_p{TAIL_PCT}": 1000 * _quantile(primary, TAIL_PCT / 100),
        "peak_rss_mb": rss_mb,
    }
    return {k: (values[k], unit) for k, unit in END_TO_END.items()}


def named_metrics(work, e2e: dict, plain, verdict) -> dict:
    """The same run under the per-workload names used in the docs."""
    if work.primary == "synthesize":
        out = {
            "synth_total_s": e2e["total_s"],
            "synth_ms_p50": e2e["call_ms_p50"],
            f"synth_ms_p{TAIL_PCT}": e2e[f"call_ms_p{TAIL_PCT}"],
        }
    else:
        (sim_s,) = _case_means(plain, "simulate")
        out = {
            "check_s": (e2e["call_ms_p50"][0] / 1000, "s"),
            "sim_rounds_per_s": (work.n_rounds / sim_s, "1/s"),
        }
    failed = verdict.errors + verdict.wrong + verdict.timeouts
    out["failed_frac"] = (failed / verdict.attempted, "1")
    return {"setup_s": e2e["setup_s"], **out, "peak_rss_mb": e2e["peak_rss_mb"]}


def _fmt(metrics: dict) -> str:
    return "  ".join(f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(REPO, "src")
    if not os.path.isfile(os.path.join(src, "roundsched", "__init__.py")):
        print(f"error: no package source at {src}/roundsched", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    import layers  # noqa: E402
    import workloads  # noqa: E402  (imports the package)

    # the one-off cold import is printed, not gated: a single sample of it
    # spreads more than the set-up it would be added to
    import_s = time.perf_counter() - T_START

    work = workloads.WORKLOADS[args.workload]()
    workdir = os.path.join(REPO, ".bench_build", "perfbench", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = layers.make_tracer() if args.trace else None
    try:
        # end-to-end numbers always come from untraced cycles; a traced run
        # gives half its time to them, to measure the tracing overhead
        setups, plain, plain_walls = _run_cycles(
            work, args.seed, workdir, args.seconds / (2 if tracer else 1)
        )
        # the mean slot, like the mean pass, averages over the machine's
        # slow and fast spells
        setup_s = statistics.fmean(setups)
        traced, traced_walls = [], []
        if tracer is not None:
            _, traced, traced_walls = _run_cycles(
                work, args.seed, workdir, args.seconds / 2, tracer
            )
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        verdict = work.verify(plain + traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(work, plain, plain_walls, setup_s, rss_mb)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)} untraced, "
          f"{len(traced)} traced  calls/pass {len(plain[0])}  set-up slots {len(setups)}  "
          f"import_s={import_s:.4f} s")
    print(_fmt(named_metrics(work, e2e, plain, verdict)))
    print(f"attempted {verdict.attempted}  errors {verdict.errors}  wrong {verdict.wrong}  "
          f"timeouts {verdict.timeouts}")
    for line in work.summary(plain) + verdict.notes[:20]:
        print(line)
    metrics = e2e
    if tracer is not None:
        metrics = layers.per_layer(tracer, len(traced), traced_walls, plain_walls)
        print(f"tracing overhead {metrics['trace.overhead_s'][0]:.4f} s per pass "
              f"({metrics['trace.overhead_frac'][0]:.2%} of an untraced pass)")
        for line in layers.report(tracer, len(traced)):
            print(line)
        spans = os.path.join(REPO, ".bench_build", "perfbench", f"spans-{args.workload}.jsonl")
        tracer.write(spans)
        print(f"spans written to {os.path.relpath(spans, REPO)}")
    result = {
        "correct": verdict.errors == 0 and verdict.wrong == 0,
        "attempted": verdict.attempted,
        "failed": verdict.errors + verdict.wrong,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
