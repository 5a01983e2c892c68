"""Separating covers and the two constructions linking them to graphs.

A separating cover over a ground set X is a family of subsets whose union
is X and in which every pair of distinct elements is split by two disjoint
family members (one containing each element).  The minimum family size on
m elements is ``closedforms.min_separating_sets(m)``; the constructions
here realize both directions of that bound:

* a graph with m MISes yields a cover on m elements with at most one set
  per vertex (``cover_from_graph``), and
* a cover with n sets yields an n-vertex graph with at least m MISes
  (``graph_from_cover``).

Ground elements are labeled 0..m-1 and sets are stored as bitmasks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .closedforms import min_separating_sets
from .graphs import (
    DEFAULT_MIS_CAP,
    MAX_VERTICES,
    Graph,
    MisCapError,
    VertexSet,
    _bits_of,
    _mis_masks,
    extremal_graph,
)


def _is_index(x) -> bool:
    """A non-negative int that is not a bool (JSON true would pass as 1)."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


@dataclass(frozen=True)
class SeparatingCover:
    """Ground set 0..ground_size-1 plus an ordered list of element subsets.

    Construction deduplicates the sets (keeping first occurrences) and
    rejects empty or out-of-range ones; storing an empty set would add
    nothing to covering and only trivially to separation.
    """

    ground_size: int
    sets: tuple[int, ...]

    def __init__(self, ground_size: int, sets):
        if not _is_index(ground_size):
            raise ValueError(f"ground_size must be an int >= 0, got {ground_size!r}")
        masks = []
        for i, s in enumerate(sets):
            if isinstance(s, int):
                mask = s
            else:
                mask = 0
                for x in s:
                    if not _is_index(x) or x >= ground_size:
                        raise ValueError(
                            f"set {i}: element {x!r} is not an integer "
                            f"in 0..{ground_size - 1}"
                        )
                    mask |= 1 << x
            if mask == 0:
                raise ValueError("empty sets are not allowed in a cover")
            if mask < 0 or mask >> ground_size:
                raise ValueError(
                    f"set with elements outside 0..{ground_size - 1} is not allowed"
                )
            masks.append(mask)
        deduped = tuple(dict.fromkeys(masks))
        object.__setattr__(self, "ground_size", ground_size)
        object.__setattr__(self, "sets", deduped)

    def set_members(self, i: int) -> tuple[int, ...]:
        return tuple(_bits_of(self.sets[i]))

    def __len__(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class CoverReport:
    """Outcome of validate_cover: two flags plus first-failure witnesses."""

    covering: bool
    separating: bool
    uncovered: int | None = None
    unseparated: tuple[int, int] | None = None

    @property
    def valid(self) -> bool:
        return self.covering and self.separating


class CoverValidationError(ValueError):
    """An operation required a valid separating cover and did not get one."""

    def __init__(self, report: CoverReport):
        if not report.covering:
            msg = f"not covering: element {report.uncovered} lies in no set"
        else:
            x, y = report.unseparated
            msg = f"not separating: no disjoint sets split elements ({x},{y})"
        super().__init__(msg)
        self.report = report


def validate_cover(cover: SeparatingCover) -> CoverReport:
    """Check the covering and separating properties, with witnesses.

    Covering: the union of the sets is the whole ground set.  Separating:
    for every pair of distinct elements x, y there are disjoint stored
    sets S, T with x in S and y in T.  The first failing element (or pair,
    scanned in lexicographic order) is reported.
    """
    m = cover.ground_size
    sets = cover.sets
    union = 0
    for s in sets:
        union |= s
    uncovered = None
    if union != (1 << m) - 1:
        missing = ~union & ((1 << m) - 1)
        uncovered = (missing & -missing).bit_length() - 1

    # element_sets[x]: bitmask over set indices containing x;
    # disjoint_with[i]: bitmask over set indices disjoint from set i.
    k = len(sets)
    element_sets = [0] * m
    for i, s in enumerate(sets):
        for x in _bits_of(s):
            element_sets[x] |= 1 << i
    disjoint_with = [0] * k
    for i in range(k):
        for j in range(k):
            if i != j and not sets[i] & sets[j]:
                disjoint_with[i] |= 1 << j

    unseparated = None
    for x in range(m):
        if unseparated:
            break
        for y in range(x + 1, m):
            for i in _bits_of(element_sets[x]):
                if disjoint_with[i] & element_sets[y]:
                    break
            else:
                unseparated = (x, y)
                break
    return CoverReport(
        covering=uncovered is None,
        separating=unseparated is None,
        uncovered=uncovered,
        unseparated=unseparated,
    )


def cover_from_graph(g: Graph, cap: int = DEFAULT_MIS_CAP) -> SeparatingCover:
    """Separating cover whose elements are the MISes of g, one set per vertex.

    Element x is the x-th MIS in canonical order (ascending member lists,
    generated in that order by branching on the lowest undecided vertex,
    include first, as in ``enumerate_mis``); the set for vertex v collects
    the MISes containing v.  Distinct MISes M, N are separated because
    some u in M\\N forces a neighbor v in N, and the u- and v-sets are
    disjoint.  Duplicated vertex sets are merged, so the result has at
    most g.n sets.

    Isolated vertices (for g.n >= 2) are rejected: such a vertex lies in
    every MIS, so no pair of MISes could ever be separated.
    """
    if g.n == 0:
        raise ValueError(
            "graph must have at least one vertex: the empty graph's sole "
            "MIS would leave a one-element ground set with no sets at all"
        )
    if g.n >= 2:
        for v in range(g.n):
            if g.adj[v] == 0:
                raise ValueError(
                    f"vertex {v} is isolated; its MIS-membership set would "
                    f"intersect every other and the cover could not separate"
                )
    mis = _mis_masks(g.adj, g.full_mask, cap + 1)
    if len(mis) > cap:
        raise MisCapError(cap, cap)
    return SeparatingCover(len(mis), _membership_sets(mis, g.n))


def _membership_sets(mis: list[int], n: int) -> list[int]:
    """For each vertex v < n, the bitmask of indices x with v in mis[x]."""
    # accumulate in bytearrays: |= (1 << x) on a multi-megabit int would
    # copy the whole integer once per MIS membership
    nbytes = (len(mis) + 7) // 8 or 1
    buffers = [bytearray(nbytes) for _ in range(n)]
    for x, mask in enumerate(mis):
        byte, bit = x >> 3, 1 << (x & 7)
        for v in _bits_of(mask):
            buffers[v][byte] |= bit
    return [int.from_bytes(buf, "little") for buf in buffers]


def greedy_mis_witnesses(cover: SeparatingCover, graph: Graph | None = None) -> list[VertexSet]:
    """One MIS of graph_from_cover(cover) per ground element, all distinct.

    Element x starts from the independent set {sets containing x} and is
    extended greedily by ascending vertex index.  Distinctness is what
    makes the constructed graph have at least ground_size MISes.
    """
    if graph is None:
        graph = graph_from_cover(cover, check=False)
    # probe set membership through bytes: s >> x on a large ground set
    # would materialize a shifted copy of the whole mask per probe
    nbytes = (cover.ground_size + 7) // 8 or 1
    set_bytes = [s.to_bytes(nbytes, "little") for s in cover.sets]
    witnesses = []
    for x in range(cover.ground_size):
        byte, bit = x >> 3, x & 7
        current = 0
        for i, sb in enumerate(set_bytes):
            if sb[byte] >> bit & 1:
                current |= 1 << i
        for v in range(graph.n):
            if not current >> v & 1 and not graph.adj[v] & current:
                current |= 1 << v
        witnesses.append(VertexSet(current, graph.n))
    return witnesses


def graph_from_cover(cover: SeparatingCover, check: bool = True) -> Graph:
    """Graph with one vertex per stored set, adjacent exactly when disjoint.

    For each ground element x the sets containing x are pairwise
    intersecting, hence independent here, and extend to an MIS; the
    separation property keeps those ground_size MISes pairwise distinct,
    so the result has at least ground_size MISes.  With ``check`` the
    cover is validated first and the witness distinctness is checked.
    """
    if len(cover.sets) > MAX_VERTICES:
        raise ValueError(
            f"cover has {len(cover.sets)} sets; at most {MAX_VERTICES} supported"
        )
    if check:
        report = validate_cover(cover)
        if not report.valid:
            raise CoverValidationError(report)
    k = len(cover.sets)
    adj = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if not cover.sets[i] & cover.sets[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    g = Graph(k, tuple(adj))
    if check:
        witnesses = {w.bits for w in greedy_mis_witnesses(cover, g)}
        if len(witnesses) != cover.ground_size:
            raise ValueError("witness MISes collided; cover was not separating")
    return g


def minimal_cover(m: int) -> SeparatingCover:
    """A separating cover on m elements with the minimum number of sets.

    Takes the extremal graph on min_separating_sets(m) vertices, which has
    at least m MISes, and builds the MIS cover of ``cover_from_graph`` over
    only its first m MISes in canonical order; the enumeration stops there
    rather than listing every MIS.  This is the restriction of the full
    MIS cover to its first m elements, which keeps both properties:
    surviving elements keep a containing set, surviving pairs keep their
    disjoint witnesses.  Vertex sets left empty are dropped and
    duplicates merged.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m > 10**6:
        raise ValueError(f"m must be <= 10**6, got {m}")
    g = extremal_graph(min_separating_sets(m))
    mis = _mis_masks(g.adj, g.full_mask, m)
    return SeparatingCover(m, [s for s in _membership_sets(mis, g.n) if s])


# ---------------------------------------------------------------------------
# Cover file format: JSON {"ground_size": m, "sets": [[indices...], ...]},
# order-preserving.


def cover_to_json(cover: SeparatingCover) -> str:
    obj = {
        "ground_size": cover.ground_size,
        "sets": [list(cover.set_members(i)) for i in range(len(cover.sets))],
    }
    return json.dumps(obj, indent=None, separators=(",", ":")) + "\n"


def cover_from_json(text: str) -> SeparatingCover:
    obj = json.loads(text)
    if not isinstance(obj, dict) or set(obj) != {"ground_size", "sets"}:
        raise ValueError("cover JSON must have exactly the keys ground_size, sets")
    sets = obj["sets"]
    if not isinstance(sets, list):
        raise ValueError(f"cover JSON sets must be a list, got {sets!r}")
    for i, s in enumerate(sets):
        # a bare int would be read as a bitmask, which the format does not allow
        if not isinstance(s, list):
            raise ValueError(f"set {i} must be a list of elements, got {s!r}")
    return SeparatingCover(obj["ground_size"], sets)


def write_cover_json(cover: SeparatingCover, path) -> None:
    Path(path).write_text(cover_to_json(cover))


def read_cover_json(path) -> SeparatingCover:
    return cover_from_json(Path(path).read_text())
