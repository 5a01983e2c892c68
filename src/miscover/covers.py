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
``_transpose`` turns per-set element masks into per-element set masks
("signatures") and back; it also turns MIS vertex masks into per-vertex
MIS masks.  It unpacks the masks into a byte matrix with numpy, one
bounded tile at a time and only up to the longest mask, so a conversion
costs about the size of the masks and of the result, never sets times
ground size.

``_disjointness`` gives, per set, the mask of the sets disjoint from it,
by one mask AND per pair of sets; it is also the adjacency of
``graph_from_cover``.  Separation reads it together with the signatures:
``sep[i]`` is the element mask of the sets disjoint from set i, and x is
separated from every other element exactly when the OR of ``sep[i]`` over
the signature of x holds all of them.  One big-int OR per set containing
x replaces a test per pair of elements.

``minimal_cover`` needs no enumeration.  The extremal graph is a union of
vertex-contiguous cliques, and in canonical order its MISes count in mixed
radix with the first clique as the most significant digit: vertex t of a
clique of size r lies in MIS x exactly when floor(x / P) mod r == t, with
P the product of the later clique sizes.  Each set is that periodic
pattern cut to m bits.

``graph_from_cover`` validates once and builds no witness MISes: in a
valid cover, distinct x and y are split by disjoint sets S containing x
and T containing y, which are adjacent in the graph, so no independent
set holds both and the MISes extending the signatures of x and y differ.

numpy is imported inside the three functions that use it (``_transpose``,
``_members_mask``, ``SeparatingCover.set_members``), so that importing the
package does not load it.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .closedforms import _is_index, min_separating_sets
from .graphs import (
    DEFAULT_MIS_CAP,
    MAX_VERTICES,
    Graph,
    MisCapError,
    _bits_of,
    _check_cap,
    _clique_sizes,
    _mis_masks,
)


def _transpose(rows, width: int) -> list[int]:
    """Bit-matrix transpose: bit i of result[j] is bit j of rows[i].

    Columns past the longest row are zero and cost nothing.  The rest is
    unpacked one tile at a time: at most 2**16 rows (MIS masks can be
    millions) by as many columns as keep the tile near 16 MiB (sets can
    span 10**7 elements).  With more than one column tile, each row is
    converted to bytes once, in its own length, so a sparse row on a large
    ground set costs its own size, not the width, in every tile.
    """
    import numpy as np

    used = min(width, max((r.bit_length() for r in rows), default=0))
    height = 1 << 16  # a multiple of 8, so the packed row blocks join exactly
    step = max(8, ((1 << 24) // max(1, min(len(rows), height))) & ~7)
    wide = used > step  # several column tiles
    rows = [r.to_bytes((r.bit_length() + 7) // 8, "little") for r in rows] if wide else rows
    out = [0] * width
    for lo in range(0, used, step):
        n = min(step, used - lo)
        a, b = lo // 8, (lo + n + 7) // 8
        blocks = []
        for r0 in range(0, len(rows), height):
            raw = b"".join(
                r[a:b].ljust(b - a, b"\0") if wide else r.to_bytes(b, "little")
                for r in rows[r0 : r0 + height]
            )
            bits = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(-1, b - a), 1, n, "little")
            blocks.append(np.packbits(np.ascontiguousarray(bits.T), axis=1, bitorder="little"))
        out[lo : lo + n] = [int.from_bytes(c, "little") for c in np.concatenate(blocks, 1)]
    return out


def _disjointness(sets) -> list[int]:
    """adj[i]: bitmask over the indices j of the sets disjoint from sets[i]."""
    adj = [0] * len(sets)
    for (i, s), (j, t) in itertools.combinations(enumerate(sets), 2):
        if not s & t:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


def _members_mask(i: int, members: list, ground_size: int) -> int:
    """Element mask of set i's member list, checked and scattered by numpy.

    numpy's int64 cast reads True as 1 and 0.5 as 0, so the types and the
    range are checked first; a list failing either goes to the Python loop,
    which only names the first bad element.  An empty list gives 0.
    """
    types = set(map(type, members))
    ints = bool not in types and all(issubclass(t, int) for t in types)
    if not (ints and min(members, default=0) >= 0 and max(members, default=-1) < ground_size):
        bad = next(x for x in members if not _is_index(x) or x >= ground_size)
        raise ValueError(f"set {i}: element {bad!r} is not an integer in 0..{ground_size - 1}")
    import numpy as np

    a = np.array(members, np.int64)
    buf = np.zeros((a.max(initial=-1) >> 3) + 1, np.uint8)  # sized by the set, not the ground set
    np.bitwise_or.at(buf, a >> 3, np.left_shift(1, a & 7).astype(np.uint8))
    return int.from_bytes(buf.tobytes(), "little")


@dataclass(frozen=True)
class SeparatingCover:
    """Ground set 0..ground_size-1 plus an ordered list of element subsets.

    Construction deduplicates the sets (keeping first occurrences) and
    rejects empty or out-of-range ones; storing an empty set would add
    nothing to covering and only trivially to separation.  A set may be
    an element mask or an iterable of elements; ground_size is at most
    2**63, so that every element fits numpy's int64.
    """

    ground_size: int
    sets: tuple[int, ...]

    def __init__(self, ground_size: int, sets):
        if not _is_index(ground_size) or ground_size > 2**63:  # elements are int64 in numpy
            raise ValueError(f"ground_size must be an int in 0..2**63, got {ground_size!r}")
        masks = []
        for i, s in enumerate(sets):
            mask = s if isinstance(s, int) else _members_mask(i, list(s), ground_size)
            if mask == 0:
                raise ValueError("empty sets are not allowed in a cover")
            if mask < 0 or mask >> ground_size:
                raise ValueError(f"set with elements outside 0..{ground_size - 1} is not allowed")
            masks.append(mask)
        object.__setattr__(self, "ground_size", ground_size)
        object.__setattr__(self, "sets", tuple(dict.fromkeys(masks)))

    def set_members(self, i: int) -> tuple[int, ...]:
        import numpy as np

        s = self.sets[i]
        raw = np.frombuffer(s.to_bytes((s.bit_length() + 7) // 8, "little"), np.uint8)
        nonzero = np.flatnonzero(raw)  # unpack only the bytes holding members
        pos = np.flatnonzero(np.unpackbits(raw[nonzero], bitorder="little"))
        return tuple((nonzero[pos >> 3] * 8 + (pos & 7)).tolist())

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

    Both read the element signatures: x is uncovered when its signature is
    empty, and the first y > x not separated from x is the lowest bit
    above x missing from ``reach``, the OR of ``sep[i]`` over the sets i
    containing x (see the module docstring), where ``sep[i]`` is the
    element mask of the sets disjoint from set i.  ``sep[i]`` is built when
    first needed, so a failure on the first elements costs little.  The
    scan stays quadratic, about m**2 * |signature| / 64 word operations:
    finding an unseparated pair is an orthogonal-vectors search.  Valid
    minimal covers took 0.03 s at m = 10**4, 1.2 s at 10**5 and 10 s at
    3 * 10**5 (process time, 2-core x86, Python 3.11), so a valid dense
    cover at the 10**7 JSON cap takes hours; an invalid one stops at its
    first failure.
    """
    return _scan(cover, _disjointness(cover.sets))


def _scan(cover: SeparatingCover, adj: list[int]) -> CoverReport:
    """validate_cover's scan, on the disjointness table already built."""
    sets, signature = cover.sets, _transpose(cover.sets, cover.ground_size)
    uncovered = next((x for x, sig in enumerate(signature) if not sig), None)
    sep = [None] * len(sets)
    for x, sig in enumerate(signature):
        reach = 0
        for i in _bits_of(sig):
            if sep[i] is None:
                sep[i] = functools.reduce(int.__or__, (sets[j] for j in _bits_of(adj[i])), 0)
            reach |= sep[i]
        above = reach >> (x + 1)
        y = x + (above ^ (above + 1)).bit_length()  # the lowest y > x missing
        if y < len(signature):
            return CoverReport(uncovered is None, False, uncovered, (x, y))
    return CoverReport(uncovered is None, True, uncovered)


def cover_from_graph(g: Graph, cap: int = DEFAULT_MIS_CAP) -> SeparatingCover:
    """Separating cover whose elements are the MISes of g, one set per vertex.

    Element x is the x-th MIS in canonical order (ascending member lists,
    generated in that order by ``_mis_masks``, as in ``enumerate_mis``: a
    product over the lowest component when it lies below the rest, whose
    MISes then decide the order, else branching on the lowest undecided
    vertex, include first, with a waiting vertex's one alive neighbor
    forced into the set); the set for vertex v collects
    the MISes containing v.  Distinct MISes M, N are separated because
    some u in M\\N forces a neighbor v in N, and the u- and v-sets are
    disjoint.  Duplicated vertex sets are merged, so the result has at
    most g.n sets.  ``_mis_masks`` returns all masks or None, so a graph
    over the cap is refused without building a partial list; a union is
    refused once its first factors show that the rest, capped at ``cap``
    divided by their product, cannot fit.

    Isolated vertices (for g.n >= 2) are rejected: such a vertex lies in
    every MIS, so no pair of MISes could ever be separated.  Raises
    MisCapError if g has more than ``cap`` MISes, and ValueError if cap is
    not an int >= 0.
    """
    _check_cap(cap)
    if g.n == 0:
        raise ValueError(
            "graph must have at least one vertex: the empty graph's sole "
            "MIS would leave a one-element ground set with no sets at all"
        )
    isolated = [v for v in range(g.n) if not g.adj[v]] if g.n >= 2 else []
    if isolated:
        raise ValueError(
            f"vertex {isolated[0]} is isolated; its MIS-membership set would "
            f"intersect every other and the cover could not separate"
        )
    mis = _mis_masks(g.adj, g.full_mask, cap)
    if mis is None:
        raise MisCapError(cap, cap)
    return SeparatingCover(len(mis), _transpose(mis, g.n))


def graph_from_cover(cover: SeparatingCover, check: bool = True) -> Graph:
    """Graph with one vertex per stored set, adjacent exactly when disjoint.

    For each ground element x the sets containing x are pairwise
    intersecting, hence independent here, and extend to an MIS; the
    separation property keeps those ground_size MISes pairwise distinct,
    so the result has at least ground_size MISes.  With ``check`` the
    cover is validated first, which is all the distinctness needs (see
    the module docstring); the validation and the adjacency share one
    ``_disjointness``.
    """
    if len(cover.sets) > MAX_VERTICES:
        raise ValueError(f"cover has {len(cover.sets)} sets; at most {MAX_VERTICES} supported")
    adj = _disjointness(cover.sets)
    if check:
        report = _scan(cover, adj)
        if not report.valid:
            raise CoverValidationError(report)
    return Graph(len(cover.sets), tuple(adj))


def minimal_cover(m: int) -> SeparatingCover:
    """A separating cover on m elements with the minimum number of sets.

    The MIS cover of the extremal graph on min_separating_sets(m)
    vertices, which has at least m MISes, restricted to its first m MISes
    in canonical order; the restriction keeps both properties (surviving
    elements keep a containing set, surviving pairs keep their disjoint
    witnesses).  Each vertex set is built in closed form as a periodic bit
    pattern (see the module docstring), in O(m) bit operations, with no
    enumeration.  Vertex sets left empty are dropped.

    m is bounded by 10**6.  At that bound this call took about 15 ms of
    CPU, and ``miscover minimal-cover 1000000 --out F`` about 5 s of wall
    time and 253 MiB peak RSS, nearly all of it formatting 90 MB of JSON
    (2-core x86, Python 3.11, numpy 2.4).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m > 10**6:
        raise ValueError(f"m must be <= 10**6, got {m}")
    sizes = _clique_sizes(min_separating_sets(m))
    keep = (1 << m) - 1
    run = math.prod(sizes)
    sets = []
    for r in sizes:
        run //= r  # product of the later clique sizes
        for t in range(min(r, -(-m // run))):  # vertex sets left empty are dropped
            s, period = ((1 << run) - 1) << (t * run), r * run
            while period < m:
                s |= s << period
                period *= 2
            sets.append(s & keep)
    return SeparatingCover(m, sets)


# ---------------------------------------------------------------------------
# Cover file format: JSON {"ground_size": m, "sets": [[indices...], ...]},
# order-preserving.


def cover_to_json(cover: SeparatingCover) -> str:
    # one set at a time: all member lists at once took 0.7 GiB at m = 10**6
    sets = ",".join(
        "[" + ",".join(map(str, cover.set_members(i))) + "]"
        for i in range(len(cover.sets))
    )
    return '{"ground_size":%d,"sets":[%s]}\n' % (cover.ground_size, sets)


def cover_from_json(text: str) -> SeparatingCover:
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("cover JSON is nested too deeply") from None
    if not isinstance(obj, dict) or set(obj) != {"ground_size", "sets"}:
        raise ValueError("cover JSON must have exactly the keys ground_size, sets")
    m = obj["ground_size"]
    # reject before anything is sized by m
    if _is_index(m) and m > DEFAULT_MIS_CAP:
        raise ValueError(
            f"ground_size {m} exceeds {DEFAULT_MIS_CAP}, the largest cover supported"
        )
    sets = obj["sets"]
    if not isinstance(sets, list):
        raise ValueError(f"cover JSON sets must be a list, got {sets!r}")
    for i, s in enumerate(sets):
        # a bare int would be read as a bitmask, which the format does not allow
        if not isinstance(s, list):
            raise ValueError(f"set {i} must be a list of elements, got {s!r}")
    return SeparatingCover(m, sets)


def write_cover_json(cover: SeparatingCover, path) -> None:
    Path(path).write_text(cover_to_json(cover))


def read_cover_json(path) -> SeparatingCover:
    return cover_from_json(Path(path).read_text())
