import random

import pytest

from miscover import add, complexity_table, extremal_graph, from_edges, mul, one


def random_graph(rng: random.Random, n: int, p: float = 0.5):
    """Labeled graph on n vertices with independent edge probability p."""
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return from_edges(n, edges)


def random_graph_no_isolated(rng: random.Random, n: int, p: float = 0.5):
    while True:
        g = random_graph(rng, n, p)
        if all(g.adj[v] for v in range(n)):
            return g


def prism_graph(k: int):
    """C_k x K_2: two k-cycles joined by a perfect matching, cubic on 2k vertices."""
    ring = [(i, (i + 1) % k) for i in range(k)]
    return from_edges(
        2 * k,
        ring + [(k + u, k + v) for u, v in ring] + [(i, k + i) for i in range(k)],
    )


def chain_of_triangles(k: int):
    """k triangles, each joined to the next by one edge: a connected graph."""
    g = extremal_graph(3 * k)
    return from_edges(3 * k, [*g.edges(), *((3 * i + 2, 3 * i + 3) for i in range(k - 1))])


def random_cubic_graph(rng: random.Random, n: int):
    """Uniform random cubic graph on n (even) vertices: the pairing model,
    redrawn until the matching of 3n points has no loop or double edge."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {tuple(sorted(points[i : i + 2])) for i in range(0, 3 * n, 2)}
        if len(edges) == 3 * n // 2 and all(u != v for u, v in edges):
            return from_edges(n, edges)


def random_tree(rng: random.Random, ones: int):
    """A random expression with the given number of ones: each inner node
    splits its ones at random and is a sum or a product with equal odds."""
    if ones == 1:
        return one()
    split = rng.randint(1, ones - 1)
    build = add if rng.random() < 0.5 else mul
    return build(random_tree(rng, split), random_tree(rng, ones - split))


def all_graphs(n: int):
    """Every labeled graph on n vertices, in edge-mask order."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        yield from_edges(n, [p for k, p in enumerate(pairs) if mask >> k & 1])


def seed_max_with_ones(n: int) -> list[int]:
    """E[0..n] by the quadratic DP that max_with_ones replaced, as a
    reference: E(k) = max over a+b=k of max(E(a)+E(b), E(a)*E(b)), E(1)=1."""
    e = [0, 1]
    for k in range(2, n + 1):
        best = 0
        for a in range(1, k // 2 + 1):
            x, y = e[a], e[k - a]
            cand = x * y if x * y > x + y else x + y
            if cand > best:
                best = cand
        e.append(best)
    return e[: n + 1]


@pytest.fixture(scope="session")
def big_table():
    # limit exceeds max_partition_product(25) + 1 = 8749, as the largest-
    # integer-of-complexity-n checks require
    return complexity_table(8800)
