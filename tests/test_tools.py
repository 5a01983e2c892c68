import random
import subprocess
import sys
from pathlib import Path

from conftest import random_cubic_graph
from miscover import from_edges, write_graph_text
from miscover.graphs import _order

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_dp_orders_prints_each_tie_break_and_the_order_built(tmp_path):
    # relabeling 0 of the cubic graph that the portfolio test relabels: its
    # label order passes the retry threshold, and the highest-label one wins
    shape = random_cubic_graph(random.Random(2), 36)
    relabel = random.Random(0).sample(range(36), 36)
    g = from_edges(36, [(relabel[u], relabel[v]) for u, v in shape.edges()])
    path = tmp_path / "g.txt"
    write_graph_text(g, path)
    rows = {v: g.adj[v] for v in range(36)}
    low, high = (_order(rows, g.full_mask, 10**9, tie)[1] for tie in (1, -1))
    assert high < low
    out = subprocess.run(
        [sys.executable, str(TOOLS / "dp_orders.py"), str(path)],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out == [
        f"{path}: 36 vertices, 54 edges, budget 531441, retry past 36000",
        f"  tie  1 (lowest label first): {low}",
        f"  tie -1 (highest label first): {high}",
        f"  built: tie -1, {high} entries",
    ]
    refused = subprocess.run(
        [sys.executable, str(TOOLS / "dp_orders.py"), str(path), "--budget", "100"],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert refused[-1] == "  built: none, every order is refused"
