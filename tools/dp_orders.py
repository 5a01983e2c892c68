"""Table totals of the elimination DP's orders for a graph file.

For each graph file (the ``p``/``e`` text format of ``write_graph_text``),
prints the total table entries of the greedy order of each tie-break that
``_narrow_count`` can try, with no budget, and the order it builds at the
budget ``count_mis`` gives the whole graph: the least of 10^6 and 3^(n/3),
or ``--budget``.  A total over the budget means that order is refused.

    python tools/dp_orders.py graph.txt [more.txt ...] [--budget N]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from miscover.graphs import (  # noqa: E402
    COUNT_MEMO_BUDGET,
    _ORDER_RETRY,
    _TIES,
    _best_order,
    _order,
    read_graph_text,
)

_NAMES = {1: "lowest label first", -1: "highest label first"}


def report(path: str, budget: int | None) -> None:
    g = read_graph_text(path)
    alive = g.full_mask
    rows = {v: g.adj[v] for v in range(g.n)}
    if budget is None:
        budget = min(COUNT_MEMO_BUDGET, 3 ** (g.n // 3))
    retry = _ORDER_RETRY * g.n
    print(f"{path}: {g.n} vertices, {g.edge_count()} edges, budget {budget}, retry past {retry}")
    totals = {}
    for tie in _TIES:
        # every elimination costs at most 3**n entries, so this never refuses
        totals[tie] = _order(rows, alive, g.n * 3**g.n, tie)[1]
        print(f"  tie {tie:2d} ({_NAMES[tie]}): {totals[tie]}")
    best = _best_order(rows, alive, budget)
    if best is None:
        print("  built: none, every order is refused")
    else:
        tie = next(t for t in _TIES if totals[t] == best[1])
        first = totals[_TIES[0]]
        alone = " (the only order run)" if first <= min(budget, retry) else ""
        print(f"  built: tie {tie}, {best[1]} entries{alone}")


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("graphs", nargs="+", help="graph files in the p/e text format")
    parser.add_argument("--budget", type=int, help="table entries allowed (default: count_mis's)")
    args = parser.parse_args(argv)
    for path in args.graphs:
        try:
            report(path, args.budget)
        except (OSError, ValueError) as e:
            sys.exit(f"error: {path}: {e}")


if __name__ == "__main__":
    main(sys.argv[1:])
