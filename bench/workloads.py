"""The four benchmark workloads, their seeded inputs and their output checks.

Every workload is a closed loop with one client: ``Workload.round()``
returns a round of ops, each op runs after the previous one returned, and
every round has the same composition (only the seeded instances and their
order change), and pools of instances are drawn evenly (``_pooled``), so
throughput and latency percentiles are comparable across seeds.  Each mix
puts its median op and its 11th slowest inside a cluster of like ops
rather than on the edge between two.  Constructing a workload builds its
inputs; that is the set-up the benchmark times.

Each op's ``check`` runs outside the timed region and returns None (pass),
an error message, or a deferred check (a callable returning None or a
message) that runs after the timed loop; the deferred ones import networkx,
which must not inflate the loop's peak RSS.  Outputs the roadmap requires
to stay byte-identical are compared against SHA-256 digests recorded at
the commit that introduced the benchmark (``digests.json``).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

from miscover import (
    Graph,
    complexity_table,
    count_mis,
    cover_from_graph,
    enumerate_mis,
    extremal_graph,
    format_expression,
    from_edges,
    graph_from_cover,
    graph_from_expression,
    max_partition_product,
    min_separating_sets,
    minimal_cover,
    minimal_expression,
    parse_expression,
    perrin,
    validate_cover,
    write_cover_json,
    write_graph_text,
)
from miscover.covers import SeparatingCover
from miscover.oracles import brute_complexity

from clock import CHILD, IN_PROCESS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE_CSV = ROOT / "tests" / "data" / "complexity_reference_1000.csv"

# ---------------------------------------------------------------------------
# Catalogs: every input whose output is compared against a frozen digest.
# A run's seed chooses among these; digests.json holds one digest per key.

ENUM_CUBIC_N = (20, 24, 28)
COUNT_CUBIC_N = (30, 36)
COUNT_CUBIC_TINY_N = (12, 14)
CATALOG_K = 8
EXTREMAL_N = (21, 24)
TABLE_N = (10_000, 20_000, 30_000)
TABLE_LADDER_N = (10_000, 18_000, 32_000, 56_000, 100_000)
TABLE_TINY_N = (1_000, 2_000)
COVER_SMALL_M = (1_000, 1_500, 2_000)
COVER_MID_M = (10_000, 15_000, 20_000, 30_000)
COVER_LARGE_M = (60_000,)
COVER_LADDER_M = (1_000, 10_000, 100_000, 1_000_000)
COVER_TINY_M = (100, 200)
CLI_COVER_M = (500, 600, 700)
CLI_COUNT_GRAPHS = tuple(f"cubic-{n}-{k}" for n in (28, 30) for k in range(4))
CLI_LIST_GRAPHS = tuple(f"cubic-{n}-{k}" for n in (20, 24) for k in range(4))


def catalog() -> dict[str, list]:
    """Every digest key, by family; record_digests.py fills digests.json."""
    return {
        "complexity_table": sorted(
            set(TABLE_N + TABLE_LADDER_N + TABLE_TINY_N)
        ),
        "enumerate_mis": [f"cubic-{n}-{k}" for n in ENUM_CUBIC_N for k in range(CATALOG_K)]
        + [f"extremal-{n}" for n in EXTREMAL_N],
        "cubic_mis_count": [
            f"cubic-{n}-{k}" for n in COUNT_CUBIC_N + COUNT_CUBIC_TINY_N for k in range(CATALOG_K)
        ],
        "minimal_cover": sorted(
            set(COVER_SMALL_M + COVER_MID_M + COVER_LARGE_M + COVER_LADDER_M + COVER_TINY_M)
        ),
        "cli": [key for cmds in cli_catalog().values() for key, _, _ in cmds],
    }


def cli_catalog() -> dict[str, list[tuple[str, list[str], int]]]:
    """Scripted commands by span name: (digest key, argv, expected exit code).

    File arguments are names inside the session's work directory, which is
    the child's working directory.
    """
    def cmd(*argv):
        return " ".join(argv), list(argv)

    cat: dict[str, list] = {
        "ell": [cmd("ell", str(n)) + (0,) for n in range(10, 101, 10)],
        "s": [
            cmd("s", str(m)) + (0,)
            for m in (10, 50, 100, 500, 1000, 5000, 10**4, 10**5, 10**6, 10**9)
        ],
        "perrin": [cmd("perrin", str(j)) + (0,) for j in range(10, 101, 10)],
        "maxones": [cmd("maxones", str(n)) + (0,) for n in range(10, 51, 5)],
        "expr": [cmd("expr", str(m)) + (0,) for m in range(9_000, 11_001, 250)],
        "mis-count": [
            cmd("mis", "--count", "--graph", f"{g}.txt") + (0,) for g in CLI_COUNT_GRAPHS
        ],
        "mis-list": [
            cmd("mis", "--list", "--graph", f"{g}.txt") + (0,) for g in CLI_LIST_GRAPHS
        ],
        "minimal-cover": [
            cmd("minimal-cover", str(m)) + (0,) for m in (1_000, 2_000, 3_000, 5_000)
        ],
        "validate-cover": [
            cmd("validate-cover", "--cover", f"{kind}-{m}.json") + (code,)
            for m in CLI_COVER_M
            for kind, code in (("cover", 0), ("unsep", 1))
        ],
        "graph-from-cover": [
            cmd("graph-from-cover", "--cover", f"cover-{m}.json") + (0,) for m in CLI_COVER_M
        ],
        "verify": [cmd("verify", "--level", "quick") + (0,)],
    }
    return cat


_digests: dict | None = None


def frozen(family: str, key) -> str | None:
    global _digests
    if _digests is None:
        _digests = json.loads((BENCH / "digests.json").read_text())
    return _digests[family].get(str(key))


def sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def array_digest(a) -> str:
    """Digest of the values, independent of the array's dtype."""
    return sha(np.asarray(a, dtype="<i8").tobytes())


def mis_listing(sets) -> str:
    """Canonical listing, as ``miscover mis --list`` prints it."""
    return "".join(" ".join(map(str, s.members())) + "\n" for s in sets)


def cover_json_bytes(cover: SeparatingCover) -> bytes:
    """The bytes of ``cover_to_json(cover)``, built in linear time.

    ``cover_to_json`` walks each set bit by bit on a Python int, which is
    quadratic in the ground size (seven seconds at m = 10^5); checks of
    large covers use this equivalent encoder instead.  record_digests.py
    verifies that the two agree.
    """
    nbytes = (cover.ground_size + 7) // 8 or 1
    parts = []
    for s in cover.sets:
        bits = np.unpackbits(
            np.frombuffer(s.to_bytes(nbytes, "little"), dtype=np.uint8), bitorder="little"
        )
        parts.append("[" + ",".join(map(str, np.flatnonzero(bits).tolist())) + "]")
    return (
        '{"ground_size":%d,"sets":[%s]}\n' % (cover.ground_size, ",".join(parts))
    ).encode()


# ---------------------------------------------------------------------------
# Input generators and independent references.


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def cubic_edges(n: int, key) -> list[tuple[int, int]]:
    """A random 3-regular simple graph (pairing model), fixed by (n, key).

    Average degree 3 like a sparse random graph, but with no isolated or
    pendant vertices, so the MIS recursion's cost varies little between
    instances of one size.
    """
    rng = random.Random(f"cubic-{n}-{key}")
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = set()
        for i in range(0, len(points), 2):
            u, v = sorted(points[i : i + 2])
            if u == v or (u, v) in edges:
                break
            edges.add((u, v))
        else:
            return sorted(edges)


def catalog_graph(key: str):
    kind, *nums = key.split("-")
    if kind == "cubic":
        n, k = map(int, nums)
        return from_edges(n, cubic_edges(n, k))
    return extremal_graph(int(nums[0]))


def path_mis_count(n: int) -> int:
    """p(1)=1, p(2)=2, p(3)=2, p(n)=p(n-2)+p(n-3): MIS count of the n-path."""
    p = [0, 1, 2, 2]
    for k in range(4, n + 1):
        p.append(p[k - 2] + p[k - 3])
    return p[n]


def nx_mis_sets(n: int, edges) -> set[frozenset]:
    """Maximal cliques of the complement, found by networkx."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return {frozenset(c) for c in nx.find_cliques(nx.complement(g))}


_reference: list[int] = []


def reference_complexities() -> list[int]:
    """c[1..1000] from the tests' reference file, read once."""
    if not _reference:
        for m, line in enumerate(REFERENCE_CSV.read_text().split(), start=1):
            k, value = map(int, line.split(","))
            if k != m:
                raise ValueError(f"reference file out of order at m={k}")
            _reference.append(value)
    return _reference


def check_table(table, n: int):
    """c[1..1000] against the reference file; c and choice against digests."""
    digests = frozen("complexity_table", n) or {}
    reference = reference_complexities()
    return (
        expect(table.limit, n, "table limit")
        or expect(table.c[1 : len(reference) + 1].tolist(), reference, "c[1..1000] vs reference")
        or expect(array_digest(table.c), digests.get("c"), f"c digest N={n}")
        or expect(array_digest(table.choice), digests.get("choice"), f"choice digest N={n}")
    )


def check_minimal_cover(cover, m: int):
    """Set count from the closed form; bytes against the frozen digest."""
    return (
        expect(len(cover.sets), min_separating_sets(m), f"sets in minimal_cover({m})")
        or expect(cover.ground_size, m, "ground size")
        or expect(sha(cover_json_bytes(cover)), frozen("minimal_cover", m), f"minimal_cover({m}) digest")
    )


def _mask(elements, m: int) -> int:
    bits = np.zeros(m, dtype=bool)
    bits[elements] = True
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _members(mask: int, m: int) -> np.ndarray:
    raw = np.frombuffer(mask.to_bytes((m + 7) // 8 or 1, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little")[:m])


def permuted_cover(m: int, rng: random.Random) -> SeparatingCover:
    """minimal_cover(m) with relabeled elements and shuffled sets: still valid."""
    perm = np.array(rng.sample(range(m), m))
    sets = [_mask(perm[_members(s, m)], m) for s in minimal_cover(m).sets]
    rng.shuffle(sets)
    return SeparatingCover(m, sets)


def plant_uncovered(cover: SeparatingCover, x: int) -> SeparatingCover:
    """Drop element x from every set; x becomes the uncovered witness."""
    return SeparatingCover(cover.ground_size, [s & ~(1 << x) for s in cover.sets])


def plant_unseparated(cover: SeparatingCover, x: int, y: int) -> SeparatingCover:
    """Give y exactly x's sets: (x, y) becomes the only unseparated pair."""
    bit_x, bit_y = 1 << x, 1 << y
    sets = [(s & ~bit_y) | (bit_y if s & bit_x else 0) for s in cover.sets]
    return SeparatingCover(cover.ground_size, sets)


VALID = {"covering": True, "separating": True}


def _plantable(cover: SeparatingCover, v: int) -> bool:
    """Removing v from its sets empties none of them."""
    return all(s != 1 << v for s in cover.sets)


# ---------------------------------------------------------------------------


class Op:
    """One timed call: ``run(tracer)`` returns the output ``check`` judges."""

    def __init__(self, kind: str, run, check):
        self.kind = kind
        self.run = run
        self.check = check


def expect(value, expected, what: str):
    if value != expected:
        return f"{what}: got {value!r}, expected {expected!r}"
    return None


class Workload:
    name = ""
    calibration = IN_PROCESS  # what its op times are scaled by (clock.py)

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._orders: dict = {}

    def _rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.name}-{purpose}-{self.seed}")

    def round_rng(self) -> random.Random:
        """The generator that ``round`` draws the run's sequence of rounds from."""
        return self._rng("rounds")

    def round(self, rng: random.Random, index: int) -> list[Op]:
        """The ops of round ``index``; every round has the same composition."""
        raise NotImplementedError

    def _pooled(self, name: str, pool, draw: int):
        """Draw number ``draw`` from ``pool``, in a seeded order that visits
        every item once before any item again: a run of a few rounds then
        sees each pool evenly, and its cost varies less with the seed."""
        if name not in self._orders:
            self._orders[name] = self._rng(f"order-{name}").sample(range(len(pool)), len(pool))
        return pool[self._orders[name][draw % len(pool)]]


class MisSparse(Workload):
    """count_mis on cycles, paths and relabeled random cubic graphs; enumerate_mis."""

    name = "mis-sparse"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        super().__init__(seed, tiny, workdir)
        if tiny:
            self.sizes, self.enum_n = (10, 12), (20,)
            self.cubic_n = COUNT_CUBIC_TINY_N
        else:
            # per round 5 ops are cheaper than a cubic 30 and 5 dearer, so the
            # median op falls in the middle of the three cubic 30s, and the
            # 11th slowest among the three cubic 36s
            self.sizes, self.enum_n = (28, 32), (24, 28)
            self.cubic_n = (30, 30, 30, 36, 36, 36)  # sizes from COUNT_CUBIC_N
        self.edges = {("cycle", n): cycle_edges(n) for n in self.sizes}
        self.edges.update({("path", n): path_edges(n) for n in self.sizes})
        self._enum_checked: set = set()

    def round(self, rng, index):
        fresh = []
        for n in self.sizes:
            for kind in ("cycle", "path"):
                fresh.append(self._count_op(kind, n, self.edges[kind, n]))
        # the random graphs are the catalog's cubic shapes (CATALOG_K per
        # size, fixed by their keys); each draw relabels one at random, so
        # every seed meets the same shapes equally often and a run's cost
        # hardly depends on its seed
        per_round = {n: self.cubic_n.count(n) for n in self.cubic_n}
        for n, k in per_round.items():
            for j in range(k):
                shape = self._pooled(f"cubic-{n}", range(CATALOG_K), index * k + j)
                label = rng.sample(range(n), n)
                edges = [(label[u], label[v]) for u, v in cubic_edges(n, shape)]
                fresh.append(self._count_op("cubic", n, edges, f"cubic-{n}-{shape}"))
        rng.shuffle(fresh)
        ops = list(fresh)
        # one count per round repeats an earlier op's Graph, whose memo is warm
        target = rng.randrange(len(fresh))
        at = ops.index(fresh[target]) + 1
        ops.insert(rng.randint(at, len(ops)), self._repeat_op(fresh[target]))
        for n in self.enum_n:
            key = f"cubic-{n}-{self._pooled(f'enum-{n}', range(CATALOG_K), index)}"
            ops.insert(rng.randint(0, len(ops)), self._enum_op(key))
        return ops

    def _count_op(self, kind, n, edges, shape=None):
        built = {}  # not on the op itself: a reference cycle would keep memos alive

        def run(tr):
            g = built["graph"] = from_edges(n, edges)  # fresh Graph: its memo starts empty
            with tr.span("graphs.count_mis"):
                return count_mis(g)

        def check(out):
            if kind == "cycle":
                return expect(out, perrin(n), f"count_mis(C{n})")
            if kind == "path":
                return expect(out, path_mis_count(n), f"count_mis(P{n})")
            return self._check_cubic(out, shape)

        op = Op(f"count-{kind}", run, check)
        op.built = built
        return op

    def _check_cubic(self, out, shape):
        """A relabeled graph has its shape's MIS count, which digests.json
        holds as networkx counted it (record_digests.py)."""
        expected = frozen("cubic_mis_count", shape)
        return expect(out, expected, f"count_mis(relabeled {shape}) vs networkx")

    def _repeat_op(self, target: Op):
        built = target.built

        def run(tr):
            with tr.span("graphs.count_mis"):
                return count_mis(built["graph"])  # same Graph object: memo is warm

        return Op("count-repeat", run, target.check)

    def _enum_op(self, key):
        n = int(key.split("-")[1])

        def run(tr):
            g = catalog_graph(key)
            with tr.span("graphs.enumerate_mis") as s:
                sets = enumerate_mis(g)
                s.count = len(sets)
            return sets

        def check(sets):
            err = expect(sha(mis_listing(sets)), frozen("enumerate_mis", key), f"order digest {key}")
            if err or key in self._enum_checked:
                return err
            self._enum_checked.add(key)
            err = expect(len(sets), count_mis(catalog_graph(key)), f"enumerate vs count {key}")
            if err or n > 30:
                return err
            g = catalog_graph(key)
            found = {frozenset(s.members()) for s in sets}
            return lambda: None if nx_mis_sets(n, list(g.edges())) == found else (
                f"networkx MIS sets differ for {key}"
            )

        return Op("enumerate-cubic", run, check)


class CoverPipeline(Workload):
    """minimal_cover, validate_cover, graph_from_cover, cover_from_graph."""

    name = "cover-pipeline"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        super().__init__(seed, tiny, workdir)
        rng = self._rng("setup")
        if tiny:
            self.mc_m = [COVER_TINY_M[:1], COVER_TINY_M[1:]]
            valid, invalid, gfc = [(30, 60)], (40, 60), (30, 50)
            self.cfg_extremal, cubic_n, self.enum_n = (9, 12), (16,), (21,)
        else:
            # per round 6 ops are cheaper than the four enumerations of
            # extremal-24 and 6 dearer, so the median op is the middle of
            # those; the 11th slowest falls among the two minimal_cover(60 000)
            self.mc_m = [COVER_SMALL_M, COVER_SMALL_M, COVER_MID_M, COVER_LARGE_M, COVER_LARGE_M]
            valid, invalid, gfc = [(440, 460), (740, 760)], (300, 400), (640, 660)
            self.cfg_extremal, cubic_n, self.enum_n = (18, 24), (16, 18, 20), (24,)
        self.valid = [
            [permuted_cover(rng.randint(lo, hi), rng) for _ in range(3)] for lo, hi in valid
        ]
        self.gfc = [permuted_cover(rng.randint(*gfc), rng) for _ in range(3)]
        # planted invalid covers, each with the witness validate_cover must report
        self.uncovered, self.unseparated = [], []
        for _ in range(3):
            base = permuted_cover(rng.randint(*invalid), rng)
            m = base.ground_size
            x = rng.choice([v for v in range(m) if _plantable(base, v)])
            self.uncovered.append((plant_uncovered(base, x), {"covering": False, "uncovered": x}))
            x = rng.randrange(m // 8, m // 4)
            y = rng.choice([v for v in range(x + 1, m) if _plantable(base, v)])
            self.unseparated.append(
                (plant_unseparated(base, x, y), {"covering": True, "unseparated": (x, y)})
            )
        self.cubic = [(n, cubic_edges(n, f"{seed}-{n}")) for n in cubic_n]
        self._mc_seen: dict = {}
        self._cfg_seen: dict = {}

    def round(self, rng, index):
        def pick(name, pool, draw=index):
            return self._pooled(name, pool, draw)

        ops = [self._minimal_cover_op(pick(f"mc-{i}", ms)) for i, ms in enumerate(self.mc_m)]
        ops += [self._validate_op(pick(f"valid-{i}", p), VALID) for i, p in enumerate(self.valid)]
        ops.append(self._validate_op(*pick("uncovered", self.uncovered)))
        ops.append(self._validate_op(*pick("unseparated", self.unseparated)))
        ops.append(self._gfc_op(pick("gfc", self.gfc)))
        lo, hi = self.cfg_extremal
        ops.append(self._cfg_op(pick("cfg-extremal", range(lo, hi + 1))))
        ops.append(self._cfg_op(*pick("cfg-cubic", self.cubic)))
        ops += [self._enum_op(pick("enum", self.enum_n, 4 * index + j)) for j in range(4)]
        rng.shuffle(ops)
        return ops

    def _minimal_cover_op(self, m):
        def run(tr):
            with tr.span("covers.minimal_cover") as s:
                s.count = m
                return minimal_cover(m)

        def check(cover):
            if m in self._mc_seen:
                return expect(cover.sets, self._mc_seen[m], f"minimal_cover({m}) changed")
            err = check_minimal_cover(cover, m)
            if not err:
                self._mc_seen[m] = cover.sets
            return err

        return Op("minimal-cover", run, check)

    def _validate_op(self, cover, expected: dict):
        """Valid covers must validate; invalid ones must report the planted witness."""
        m = cover.ground_size
        valid = expected is VALID

        def run(tr):
            with tr.span("covers.validate_cover") as s:
                s.count = m * (m - 1) // 2 if valid else 0
                return validate_cover(cover)

        def check(report):
            got = {field: getattr(report, field) for field in expected}
            return expect(got, expected, f"validate_cover (m={m})")

        return Op("validate-valid" if valid else "validate-invalid", run, check)

    def _gfc_op(self, cover):
        m = cover.ground_size

        def run(tr):
            with tr.span("covers.graph_from_cover"):
                return graph_from_cover(cover, check=True)

        def check(g):
            err = expect(g.n, len(cover.sets), "vertices of graph_from_cover")
            count = count_mis(g)
            return err or (None if count >= m else f"graph_from_cover: {count} MISes < m={m}")

        return Op("graph-from-cover", run, check)

    def _cfg_op(self, n, edges=None):
        """cover_from_graph on extremal_graph(n), or on the cubic graph ``edges``."""
        key = f"extremal-{n}" if edges is None else f"cubic-{n}-{self.seed}"

        def run(tr):
            g = extremal_graph(n) if edges is None else from_edges(n, edges)
            with tr.span("covers.cover_from_graph") as s:
                cover = cover_from_graph(g)
                s.count = cover.ground_size
            return cover

        def check(cover):
            if key in self._cfg_seen:
                return expect(cover.sets, self._cfg_seen[key], f"cover_from_graph({key}) changed")
            self._cfg_seen[key] = cover.sets
            if edges is None:
                err = expect(cover.ground_size, max_partition_product(n), f"elements of {key}")
                return err or expect(
                    len(cover.sets), min_separating_sets(cover.ground_size), f"sets of {key}"
                )
            err = expect(cover.ground_size, count_mis(from_edges(n, edges)), f"elements of {key}")
            err = err or expect(validate_cover(cover).valid, True, f"cover of {key} valid")
            if err:
                return err
            return lambda: expect(
                cover.ground_size, len(nx_mis_sets(n, edges)), f"networkx MIS count of {key}"
            )

        return Op("cover-from-graph", run, check)

    def _enum_op(self, n):
        key = f"extremal-{n}"

        def run(tr):
            g = extremal_graph(n)
            with tr.span("graphs.enumerate_mis") as s:
                sets = enumerate_mis(g)
                s.count = len(sets)
            return sets

        def check(sets):
            err = expect(len(sets), max_partition_product(n), f"MISes of {key}")
            return err or expect(
                sha(mis_listing(sets)), frozen("enumerate_mis", key), f"order digest {key}"
            )

        return Op("enumerate-extremal", run, check)


class ComplexityExpr(Workload):
    """complexity_table, then expressions and their graphs from its rows."""

    name = "complexity-expr"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        super().__init__(seed, tiny, workdir)
        # every round builds the same tables, so rounds cost alike
        if tiny:
            self.table_n, self.chains, self.brute_chains = TABLE_TINY_N, 3, 1
        else:
            # two of the largest tables, so that the 11th slowest op falls
            # inside their cluster rather than on its lower edge
            self.table_n, self.chains, self.brute_chains = TABLE_N + TABLE_N[-1:], 12, 3
        self._brute: dict = {}

    def round(self, rng, index):
        state: dict = {}
        big = max(self.table_n)
        ops = [self._table_op(n, state, keep=n == big) for n in self.table_n]
        rng.shuffle(ops)
        chains = []
        for i in range(self.chains):
            m = rng.randint(2, 500) if i < self.brute_chains else rng.randint(501, big)
            chains.append(self._chain(m, state))
        rng.shuffle(chains)
        return ops + [op for chain in chains for op in chain]

    def _table_op(self, n, state, keep):
        def run(tr):
            with tr.span("complexity.complexity_table") as s:
                s.count = n
                table = complexity_table(n)
            if keep:
                state["table"] = table
            return table

        return Op("complexity-table", run, lambda table: check_table(table, n))

    def _chain(self, m, state):
        """minimal_expression -> format -> parse -> graph -> count_mis, for m."""

        def minimal(tr):
            with tr.span("complexity.minimal_expression"):
                state[m] = minimal_expression(m, state["table"])
            return state[m]

        def check_minimal(e):
            ones = state["table"][m]
            err = expect((e.value, e.ones), (m, ones), f"minimal_expression({m}) value, ones")
            if err or m > 500:
                return err
            if m not in self._brute:
                self._brute[m] = brute_complexity(m)
            return expect(ones, self._brute[m], f"c[{m}] vs brute force")

        def fmt(tr):
            with tr.span("expressions.format_expression"):
                state[m, "text"] = format_expression(state[m])
            return state[m, "text"]

        def parse(tr):
            with tr.span("expressions.parse_expression"):
                return parse_expression(state[m, "text"])

        def graph(tr):
            with tr.span("complexity.graph_from_expression"):
                state[m, "graph"] = graph_from_expression(state[m])
            return state[m, "graph"]

        def count(tr):
            g = state[m, "graph"]
            g = Graph(g.n, g.adj)  # graph_from_expression already filled g's memo
            with tr.span("graphs.count_mis"):
                return count_mis(g)

        return [
            Op("minimal-expression", minimal, check_minimal),
            Op("format-expression", fmt, lambda s: None if s else "empty expression text"),
            Op("parse-expression", parse, lambda e: expect(e, state[m], f"parse(format(e)) for {m}")),
            Op("graph-from-expression", graph, lambda g: expect(g.n, state[m].ones, f"vertices for {m}")),
            Op("count-expression-graph", count, lambda c: expect(c, m, f"MISes of expression graph {m}")),
        ]


class CliSession(Workload):
    """``python -m miscover ...`` subprocesses, one at a time."""

    name = "cli-session"
    calibration = CHILD

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        super().__init__(seed, tiny, workdir)
        prepare_cli_files(workdir)
        self.catalog = cli_catalog()
        self.env = child_env()

    def round(self, rng, index):
        ops = []
        for name, cmds in self.catalog.items():
            # validate-cover runs once on a valid and once on a planted invalid cover
            groups = [[c for c in cmds if c[2] == code] for code in (0, 1)]
            for code, group in enumerate(groups if name == "validate-cover" else [cmds]):
                ops.append(self._op(name, *self._pooled(f"{name}-{code}", group, index)))
        rng.shuffle(ops)
        return ops

    def _op(self, name, key, argv, code):
        def run(tr):
            with tr.span(f"cli.{name}"):
                return run_cli(argv, self.workdir, self.env)

        def check(result):
            rc, out = result
            return expect(rc, code, f"exit code of {key!r}") or expect(
                sha(out), frozen("cli", key), f"stdout digest of {key!r}"
            )

        return Op(name, run, check)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv, cwd, env) -> tuple[int, bytes]:
    """One CLI invocation.

    No ``timeout=``: its wait polls with up to 50 ms of back-off, which
    would add to the measured latency.  The op budget's alarm bounds the
    call instead, and subprocess.run kills and reaps the child when it fires.
    """
    p = subprocess.run(
        [sys.executable, "-m", "miscover", *argv],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    return p.returncode, p.stdout


def prepare_cli_files(workdir: Path) -> None:
    """Graph and cover files every scripted command may name."""
    workdir.mkdir(parents=True, exist_ok=True)
    for key in CLI_COUNT_GRAPHS + CLI_LIST_GRAPHS:
        write_graph_text(catalog_graph(key), workdir / f"{key}.txt")
    for m in CLI_COVER_M:
        cover = minimal_cover(m)
        write_cover_json(cover, workdir / f"cover-{m}.json")
        x = m // 5
        y = next(v for v in range(3 * m // 4, m) if _plantable(cover, v))
        write_cover_json(plant_unseparated(cover, x, y), workdir / f"unsep-{m}.json")


WORKLOADS = {w.name: w for w in (MisSparse, CoverPipeline, ComplexityExpr, CliSession)}
