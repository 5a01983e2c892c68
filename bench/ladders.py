"""Scaling ladders for the traced run: one traced call per size, under a budget.

A point's time is its CPU time in reference seconds (see clock.py); its
budget is wall time.  A size that exceeds its budget is recorded as
``timeout`` and ends its ladder; the larger sizes are recorded as
``not-run``.  Each ladder yields a fitted log-log time exponent, and the
sparse-graph ladders also the largest size that finished.
"""

from __future__ import annotations

import math
import signal
from contextlib import contextmanager
from time import perf_counter

from clock import IN_PROCESS
from miscover import complexity_table, count_mis, from_edges, minimal_cover, perrin, validate_cover

import workloads as wl


class BudgetExceeded(Exception):
    pass


@contextmanager
def budget(seconds: float):
    """Raise BudgetExceeded in this (main) thread after ``seconds`` of wall time."""

    def alarm(signum, frame):
        raise BudgetExceeded

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _count(edges_of, expected):
    def prepare(n):
        return n, edges_of(n)

    def call(inp):
        return count_mis(from_edges(*inp))

    return prepare, call, lambda n, out: wl.expect(out, expected(n), f"count_mis at n={n}")


def ladders(tiny: bool) -> list[tuple]:
    """(name, span name, sizes, budget s, prepare, call, check) per ladder."""
    sparse = (10, 12, 14) if tiny else (20, 24, 28, 32, 36, 40, 80, 128)
    ladder_cover_m = (30, 60) if tiny else (300, 550, 1000, 1700, 3000)
    return [
        ("cycle", "graphs.count_mis", sparse, 4.0, *_count(wl.cycle_edges, perrin)),
        ("path", "graphs.count_mis", sparse, 4.0, *_count(wl.path_edges, wl.path_mis_count)),
        (
            "complexity_table",
            "complexity.complexity_table",
            wl.TABLE_TINY_N if tiny else wl.TABLE_LADDER_N,
            30.0,
            lambda n: n,
            complexity_table,
            lambda n, table: wl.check_table(table, n),
        ),
        (
            "validate_cover",
            "covers.validate_cover",
            ladder_cover_m,
            30.0,
            minimal_cover,
            validate_cover,
            lambda m, report: wl.expect(report.valid, True, f"minimal_cover({m}) validates"),
        ),
        (
            "minimal_cover",
            "covers.minimal_cover",
            wl.COVER_TINY_M if tiny else wl.COVER_LADDER_M,
            30.0,
            lambda m: m,
            minimal_cover,
            lambda m, cover: wl.check_minimal_cover(cover, m),
        ),
    ]


def run_ladders(tracer, tiny: bool, total_budget: float) -> tuple[list[dict], list[str]]:
    """Run every ladder; returns the points and the failed output checks.

    Ladders stop early once ``total_budget`` seconds have passed, so the
    traced run ends in bounded time whatever the program does.
    """
    deadline = perf_counter() + total_budget
    points, failures = [], []
    for name, span_name, sizes, size_budget, prepare, call, check in ladders(tiny):
        stopped = False
        for size in sizes:
            point = {"ladder": name, "size": size, "status": "not-run", "seconds": None}
            points.append(point)
            if stopped or perf_counter() >= deadline:
                stopped = True
                continue
            inp = prepare(size)
            tracer.op = f"ladder.{name}.{size}"
            before = [IN_PROCESS.sample() for _ in range(3)]
            try:
                with budget(size_budget), tracer.span(span_name) as span:
                    out = call(inp)
            except BudgetExceeded:
                point.update(status="timeout", seconds=size_budget)
                stopped = True
                continue
            after = [IN_PROCESS.sample() for _ in range(2)]
            point.update(status="ok", seconds=span.duration * IN_PROCESS.factor(before + after))
            err = check(size, out)
            if err:
                point["status"] = "wrong"
                failures.append(f"ladder {name}: {err}")
    return points, failures


def ladder_metrics(points: list[dict]) -> dict[str, dict]:
    """Largest finished size and fitted exponent for each ladder."""
    done: dict[str, list] = {p["ladder"]: [] for p in points}
    for p in points:
        if p["status"] == "ok":
            done[p["ladder"]].append((p["size"], p["seconds"]))
    return {
        name: {"max_size": max((s for s, _ in pts), default=0), "exp": fit_exponent(pts)}
        for name, pts in done.items()
    }


def fit_exponent(pts: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(size); 0 below two points."""
    pts = [(math.log(s), math.log(t)) for s, t in pts if t > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    var = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / var
