"""miscover benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload mis-sparse --seed 1 --seconds 15 --trace 0

Runs one workload (see BENCHMARK.json for the four, their input mix and why
each was chosen) as a closed loop with one client on one core, in whole
rounds, until its ops have taken ``--seconds`` of reference time (below);
checks every output outside the timed region, and prints as its last line
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Every reported time is CPU time scaled to a reference core speed by a
calibration run between the ops (clock.py): the host's own speed
drifts too much for raw times of identical runs to agree.  ``setup_s`` is
the median of five fresh processes that import miscover and build the
inputs.

``--trace 0`` reports the end-to-end metrics: ``ops_per_s`` is passed ops
per second of op time, ``op_tail_ms`` the latency with exactly ten samples
beyond it (the highest percentile with at least ten), and ``ok_ratio`` the
passed share of attempted ops (its complement, the failed ratio, is 0 when
all is well and is in the details line, with the raw CPU and wall times).
``--trace 1`` is the separate traced run: each round runs traced and then
again untraced (the time ratio is the tracing overhead) for half the time,
then the scaling ladders run; it reports the per-layer metrics, 0 for a
function the workload never calls, and writes every span to
``bench/out/``.  The line before the result records the seed, commit,
cores and versions.

The program is imported from ``src/`` of the checkout the benchmark sits
in; without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from clock import CHILD, Calibrator, cpu_clock, scaled

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "1",
    "peak_rss_mb": "MiB",
}

CLI_COMMANDS = (
    "ell", "s", "perrin", "maxones", "expr", "mis-count", "mis-list",
    "minimal-cover", "validate-cover", "graph-from-cover", "verify",
)

PER_LAYER = {
    "graphs.count_mis.calls": "count",
    "graphs.count_mis.busy_s": "s",
    "graphs.count_mis.p50_ms": "ms",
    "graphs.count_mis.cycle_max_n": "vertices",
    "graphs.count_mis.cycle_exp": "1",
    "graphs.count_mis.path_max_n": "vertices",
    "graphs.count_mis.path_exp": "1",
    "graphs.enumerate_mis.busy_s": "s",
    "graphs.enumerate_mis.sets_per_s": "sets/s",
    "covers.minimal_cover.busy_s": "s",
    "covers.minimal_cover.elements_per_s": "elements/s",
    "covers.minimal_cover.exp": "1",
    "covers.validate_cover.pairs_per_s": "pairs/s",
    "covers.validate_cover.invalid_p50_ms": "ms",
    "covers.validate_cover.exp": "1",
    "covers.graph_from_cover.p50_ms": "ms",
    "covers.cover_from_graph.elements_per_s": "elements/s",
    "complexity.complexity_table.busy_s": "s",
    "complexity.complexity_table.entries_per_s": "entries/s",
    "complexity.complexity_table.exp": "1",
    "complexity.minimal_expression.p50_ms": "ms",
    "complexity.graph_from_expression.p50_ms": "ms",
    "expressions.parse_expression.p50_ms": "ms",
    "expressions.format_expression.p50_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.{c}.p50_ms": "ms" for c in CLI_COMMANDS},
    "trace.overhead_ratio": "1",
}

OP_BUDGET_S = 60.0  # an op still running after this counts as failed
LADDER_BUDGET_S = 100.0  # all ladders of one traced run together
SETUP_SAMPLES = 5


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "miscover" / "__init__.py").is_file():
        print(f"error: no miscover sources under {SRC}", file=sys.stderr)
        return 2
    # one client and no extra threads: numpy's BLAS would otherwise start a
    # thread per core in this process and in every CLI child it imports into
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # one core for this process and the children it starts, so that the
    # calibration (clock.py) runs on the core that runs the ops it scales
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
        if args.setup_only:
            return 0
        run = traced_run if args.trace else untraced_run
        details, correct, attempted, failed, metrics = run(workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details["env"] = environment(args.seed)
    print(json.dumps(details))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": (PER_LAYER if args.trace else END_TO_END)[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


class Log:
    """Ops run so far: one [kind, cpu_s, error, wall_s, calibration] record
    per op, the calibration samples taken between them, and the deferred
    checks as (record index, callable)."""

    def __init__(self, calibration):
        self.records: list[list] = []
        self.deferred: list[tuple] = []
        self.calibrator = Calibrator(calibration)
        self._last = 0.0

    def run_round(self, ops, tracer) -> float:
        """Run one round's ops in order; returns their summed latency in
        reference seconds, as scaled by the calibrations taken so far.

        Each op's check runs right after it, outside its latency.  Runs
        stop on this sum rather than on raw CPU time, so that every run
        of a workload holds about as many rounds whatever the host's speed,
        and its tail percentile sits at the same rank in each.
        """
        from ladders import BudgetExceeded, budget

        timed = 0.0
        for op in ops:
            calibration = self.calibrator.before_op(self._last)
            tracer.op = len(self.records)
            out, err = None, None
            w0, t0 = perf_counter(), cpu_clock()
            try:
                with budget(OP_BUDGET_S), tracer.span(f"op.{op.kind}"):
                    out = op.run(tracer)
            except BudgetExceeded:
                err = f"budget of {OP_BUDGET_S} s exceeded"
            except Exception as e:  # a crashing op is a failed op, not a crashed run
                err = f"{type(e).__name__}: {e}"
            self._last, wall = cpu_clock() - t0, perf_counter() - w0
            timed += self._last * self.calibrator.factor(calibration)
            if err is None:
                err = _checked(op.check, out)
                if callable(err):
                    self.deferred.append((len(self.records), err))
                    err = None
            self.records.append([op.kind, self._last, err, wall, calibration])
        return timed

    def factors(self) -> list[float]:
        """Per op: the factor that scales its CPU time to reference seconds."""
        return [self.calibrator.factor(r[4]) for r in self.records]

    def latencies(self) -> list[float]:
        """Per op: its latency in reference seconds."""
        return [r[1] * f for r, f in zip(self.records, self.factors())]

    def run_deferred(self) -> None:
        for i, check in self.deferred:
            self.records[i][2] = _checked(check)

    def failures(self) -> list[str]:
        return [r[2] for r in self.records if r[2]]


def _checked(check, *args):
    try:
        return check(*args)
    except Exception as e:
        return f"check raised {type(e).__name__}: {e}"


def untraced_run(workload, args):
    from tracing import NullTracer

    log, tracer, timed, rounds = Log(workload.calibration), NullTracer(), 0.0, 0
    rng = workload.round_rng()
    while timed < args.seconds:  # whole rounds until the ops' own time is up
        timed += log.run_round(workload.round(rng, rounds), tracer)
        rounds += 1
    usage = resource.RUSAGE_CHILDREN if workload.name == "cli-session" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024  # Linux reports KiB
    log.run_deferred()
    setup = setup_samples(args)

    records = log.records
    latencies = sorted(log.latencies())
    failures = log.failures()
    attempted, failed = len(records), len(failures)
    # the highest percentile with at least 10 samples beyond it (else the max)
    tail_index = len(latencies) - 11 if len(latencies) > 10 else len(latencies) - 1
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": (attempted - failed) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": latencies[tail_index] * 1e3,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": 0,
        "rounds": rounds,
        "ops": _op_mix(log),
        "op_samples": attempted,
        "op_time_s": sum(latencies),
        "op_cpu_s": sum(r[1] for r in records),
        "op_wall_s": sum(r[3] for r in records),
        "calibration_s": _quartiles(log.calibrator.samples),
        "tail_percentile": 100 * (tail_index + 1) / attempted,
        "tail_samples_beyond": attempted - 1 - tail_index,
        "failed_ratio": failed / attempted,
        "failures": failures[:10],
        "setup_samples_s": setup,
    }
    return details, failed == 0, attempted, failed, metrics


def setup_samples(args) -> list[float]:
    """Set-up times: fresh processes that import miscover and build the inputs."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    return [timed_child(cmd, {}) for _ in range(SETUP_SAMPLES)]


def traced_run(workload, args):
    from ladders import ladder_metrics, run_ladders
    from tracing import NullTracer, Tracer, layer_metrics

    # each round runs traced, then again untraced from the same seed state;
    # the ratio of their times is the tracing overhead, free of drift
    tracer = Tracer()
    traced, untraced = Log(workload.calibration), Log(workload.calibration)
    traced_s, rounds = 0.0, 0
    rng = workload.round_rng()
    while traced_s < args.seconds / 2:
        state = rng.getstate()
        traced_s += traced.run_round(workload.round(rng, rounds), tracer)
        rng.setstate(state)
        untraced.run_round(workload.round(rng, rounds), NullTracer())
        rounds += 1
    points, ladder_failures = run_ladders(tracer, args.tiny, LADDER_BUDGET_S)
    import_ms = statistics.median(import_samples()) * 1e3
    traced.run_deferred()
    untraced.run_deferred()

    records = traced.records
    kinds = {i: r[0] for i, r in enumerate(records)}
    layers = layer_metrics(tracer, kinds, dict(enumerate(traced.factors())))
    ladder = ladder_metrics(points)

    def get(name, field):
        return layers[name][field] if name in layers else 0

    def rate(name):
        busy = get(name, "busy_s")
        return get(name, "count") / busy if busy else 0

    metrics = {
        "graphs.count_mis.calls": get("graphs.count_mis", "calls"),
        "graphs.count_mis.busy_s": get("graphs.count_mis", "busy_s"),
        "graphs.count_mis.p50_ms": get("graphs.count_mis", "p50_ms"),
        "graphs.count_mis.cycle_max_n": ladder["cycle"]["max_size"],
        "graphs.count_mis.cycle_exp": ladder["cycle"]["exp"],
        "graphs.count_mis.path_max_n": ladder["path"]["max_size"],
        "graphs.count_mis.path_exp": ladder["path"]["exp"],
        "graphs.enumerate_mis.busy_s": get("graphs.enumerate_mis", "busy_s"),
        "graphs.enumerate_mis.sets_per_s": rate("graphs.enumerate_mis"),
        "covers.minimal_cover.busy_s": get("covers.minimal_cover", "busy_s"),
        "covers.minimal_cover.elements_per_s": rate("covers.minimal_cover"),
        "covers.minimal_cover.exp": ladder["minimal_cover"]["exp"],
        "covers.validate_cover.pairs_per_s": rate("covers.validate_cover@validate-valid"),
        "covers.validate_cover.invalid_p50_ms": get("covers.validate_cover@validate-invalid", "p50_ms"),
        "covers.validate_cover.exp": ladder["validate_cover"]["exp"],
        "covers.graph_from_cover.p50_ms": get("covers.graph_from_cover", "p50_ms"),
        "covers.cover_from_graph.elements_per_s": rate("covers.cover_from_graph"),
        "complexity.complexity_table.busy_s": get("complexity.complexity_table", "busy_s"),
        "complexity.complexity_table.entries_per_s": rate("complexity.complexity_table"),
        "complexity.complexity_table.exp": ladder["complexity_table"]["exp"],
        "complexity.minimal_expression.p50_ms": get("complexity.minimal_expression", "p50_ms"),
        "complexity.graph_from_expression.p50_ms": get("complexity.graph_from_expression", "p50_ms"),
        "expressions.parse_expression.p50_ms": get("expressions.parse_expression", "p50_ms"),
        "expressions.format_expression.p50_ms": get("expressions.format_expression", "p50_ms"),
        "cli.import_ms": import_ms,
        **{f"cli.{c}.p50_ms": get(f"cli.{c}", "p50_ms") for c in CLI_COMMANDS},
        "trace.overhead_ratio": sum(traced.latencies()) / sum(untraced.latencies()),
    }
    failures = traced.failures() + untraced.failures() + ladder_failures
    attempted = 2 * len(records) + sum(p["status"] != "not-run" for p in points)
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": 1,
        "rounds": rounds,
        "ops": _op_mix(traced),
        "failures": failures[:10],
        "ladders": points,
        "trace_file": None,
    }
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload.name}-{args.seed}.json"
    trace_file.write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": args.seed,
                "env": environment(args.seed),
                "span_fields": ["name", "start", "end", "parent", "op", "count"],
                "spans": [s.to_list() for s in tracer.spans],
                "ops": records,
                "ladders": points,
                "metrics": metrics,
            }
        )
    )
    details["trace_file"] = str(trace_file.relative_to(ROOT))
    return details, not failures, attempted, len(failures), metrics


def import_samples() -> list[float]:
    """Times of ``python -c "import miscover"``, which every CLI call pays."""
    from workloads import child_env

    cmd = [sys.executable, "-c", "import miscover"]
    return [timed_child(cmd, {"env": child_env()}) for _ in range(SETUP_SAMPLES)]


def timed_child(cmd, kwargs) -> float:
    """CPU time of one child process, start to exit, in reference seconds.

    The budget's alarm, not ``timeout=``, bounds it: with a timeout the
    wait polls with a back-off of up to 50 ms.
    """
    from ladders import budget

    def child():
        with budget(OP_BUDGET_S):
            subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, **kwargs)

    return scaled(child, CHILD)[0]


def _op_mix(log) -> dict[str, list]:
    """Per op kind: [count, median latency in ms] - the measured input mix."""
    by_kind: dict[str, list] = {}
    for r, latency in zip(log.records, log.latencies()):
        by_kind.setdefault(r[0], []).append(latency)
    return {k: [len(v), statistics.median(v) * 1e3] for k, v in by_kind.items()}


def _quartiles(values) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3


def environment(seed: int) -> dict:
    import platform

    import numpy

    return {
        "seed": seed,
        "commit": git_commit(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
