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
MIS masks.  It packs the masks' 64-bit words column by column into one
Python int per bounded tile, transposes every 64x64 bit block of it with
six mask-and-shift swaps, and reads the transposed words back, only up to
the longest mask and skipping zero words, so a conversion costs about
the size of the masks and of the result, never sets times ground size.

``_disjointness`` gives, per set, the mask of the sets disjoint from it;
it is also the adjacency of ``graph_from_cover``.  Separation reads it
together with the signatures: ``sep[i]`` is the element mask of the sets
disjoint from set i, and y is separated from x exactly when y lies in the
OR of ``sep[i]`` over the signature sig(x) of x.

That OR is needed only for elements that are not saturated.  Call x
saturated when every set holds x or is disjoint from a set holding x:
sig(x), independent in the disjointness graph because its sets share x,
is then a maximal independent set of it.  x is saturated exactly when
it lies in ``sets[i] | sep[i]`` for every set i, so k big-int operations
tell whether all elements are, stopping at the first mask that is not
full.  If x is saturated, every set outside sig(x) is disjoint from one
in it, so y fails to be separated from x exactly when sig(y) lies inside
sig(x).  If y is saturated too, sig(y) is maximal, and a maximal
independent set lies inside no other one, so that happens only when
sig(y) = sig(x).  So a cover whose elements are all saturated, as are
those of every minimal cover and of every ``cover_from_graph`` cover, is
valid exactly when its m signatures are pairwise distinct, and its first
failure is the least x whose signature repeats, with the next element of
that signature.  A cover with an unsaturated element, as is every
uncovered or random one, is scanned element by element: one big-int OR
per set holding x replaces a test per pair of elements, but the scan
stays quadratic, since finding an unseparated pair is an
orthogonal-vectors search.

``cover_from_graph`` and ``minimal_cover`` share one builder, which
lists no MIS of the whole graph.  ``graphs._mis_factors`` splits the
MISes into factors F_1..F_r: components lying wholly below the rest, then
what is left.  In canonical order the MISes count in mixed radix, F_1 the
most significant digit: MIS x holds MIS number floor(x / P) mod t of a
factor with t MISes, P being the product of the later factors' sizes.
So the set of a vertex v of that factor is a run of P ones at j * P for
each MIS j of the factor that holds v, repeated with period t * P and cut
to m bits.  Only the factors' own short MIS lists go through
``_transpose``, which says which of them hold v.  ``cover_from_graph``
takes all the MISes; ``minimal_cover(m)`` takes the first m of the
extremal graph on min_separating_sets(m) vertices, a union of cliques,
whose sets are then single periodic runs.

``graph_from_cover`` validates once and builds no witness MISes: in a
valid cover, distinct x and y are split by disjoint sets S containing x
and T containing y, which are adjacent in the graph, so no independent
set holds both and the MISes extending the signatures of x and y differ.

The module uses no numpy: its bit conversions are big-int, bytes and
``struct`` operations, as fast as numpy at the sizes the cover commands
meet, and a command that loads no numpy starts about 100 ms sooner.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
import struct
from dataclasses import dataclass
from operator import and_, ne
from pathlib import Path

from .closedforms import _is_index, min_separating_sets
from .graphs import (
    DEFAULT_MIS_CAP,
    MAX_VERTICES,
    Graph,
    _bits_of,
    _mis_factors,
    extremal_graph,
)

# the byte with bit i set, for i < 8
_BIT = bytes(1 << i for i in range(8))
# bytes.translate table from binary digits ("0", "1") to flag bytes (0, 1)
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")
# zero bytes that set_members skips, from one word up: on random sets of
# density 1/100 and 1/1000 over 10**6 elements this read them 1.9x and 1.4x
# faster than runs from 32 bytes, and level on minimal_cover(10**6)
_ZERO_RUN = re.compile(rb"\0{8,}")
_WORD = (1 << 64) - 1


def _block_level(d: int) -> tuple[int, bytes]:
    """Shift and 512-byte mask of the swap that trades bit d of row and column.

    In a block of 64 little-endian 64-bit words, bit c of word r sits at
    64 * r + c.  The mask picks the bits whose row r has bit d clear and
    whose column c has it set; each one swaps with the bit at (r + d, c - d),
    63 * d places up.
    """
    column = _WORD // ((1 << 2 * d) - 1) * ((1 << d) - 1) << d
    return 63 * d, (column.to_bytes(8, "little") * d + bytes(8 * d)) * (32 // d)


_BLOCK_LEVELS = [_block_level(1 << i) for i in range(6)]


def _transpose_blocks(data: bytes, masks) -> bytes:
    """Transpose each 64x64 bit block (512 bytes) of data, in big-int operations."""
    x = int.from_bytes(data, "little")
    for shift, mask in masks:
        t = (x ^ x >> shift) & mask
        x ^= t ^ t << shift
    return x.to_bytes(len(data), "little")


def _transpose(rows, width: int) -> list[int]:
    """Bit-matrix transpose: bit i of result[j] is bit j of rows[i].

    Columns past the longest row are zero and cost nothing.  The rest goes
    through 64x64 bit blocks.  Each word column of a tile of rows is packed
    as bytes, all blocks are transposed at once by ``_transpose_blocks``,
    and each transposed column is read back by a strided memoryview.  Word
    columns that are zero in a tile are skipped.  A tile holds at most
    2**16 rows (MIS masks can be millions; the tiles' columns are joined at
    the end) by as many words as keep it near 2 MiB (sets can span 10**7
    elements).  Each row is converted to bytes once, in its own length, so
    a sparse row on a large ground set costs its own size, not the width,
    in every tile.

    A tile of at most 64 rows (a cover's sets) is one block per word
    column, whose transposed words are its columns, read back by one
    ``struct.unpack``: minimal_cover(10**6)'s sets took 0.17 s against
    0.50 s through strided views (process time, 2-core x86, Python 3.11).
    """
    used = min(width, max(map(int.bit_length, rows), default=0))
    words = (used + 63) // 64
    height = min(1 << 16, -(-len(rows) // 64) * 64 or 64)  # rows per tile
    step = (1 << 18) // height  # words per row in one tile
    blocks = min(words, step) * height // 64
    masks = [(shift, int.from_bytes(p * blocks, "little")) for shift, p in _BLOCK_LEVELS]
    zero = bytes(8 * height)
    tiles = []
    for r0 in range(0, len(rows), height):
        tile = rows[r0 : r0 + height]
        tile = [r.to_bytes(8 * ((r.bit_length() + 63) // 64), "little") for r in tile]
        cols = [0] * (64 * words)
        for a in range(0, words, step):
            nw = min(step, words - a)
            joined = b"".join([r[8 * a : 8 * (a + nw)].ljust(8 * nw, b"\0") for r in tile])
            joined = joined.ljust(8 * nw * height, b"\0")  # the rows past the last
            units = memoryview(joined).cast("Q")
            packed = [units[c::nw].tobytes() for c in range(nw)]
            found = {a + c: p for c, p in enumerate(packed) if p != zero}
            t = _transpose_blocks(b"".join(found.values()), masks)
            if height == 64:  # a word column is one block, whose words are its columns
                values = struct.unpack(f"<{len(t) // 8}Q", t)
                for i, c in enumerate(found):
                    cols[64 * c : 64 * c + 64] = values[64 * i : 64 * i + 64]
            else:  # column k of a word column joins word k of each of its blocks
                units = memoryview(t).cast("Q")
                for i, c in enumerate(found):
                    cols[64 * c : 64 * c + 64] = [
                        int.from_bytes(units[k : height * (i + 1) : 64].tobytes(), "little")
                        for k in range(height * i, height * i + 64)
                    ]
        tiles.append(cols)
    if len(tiles) > 1:  # each column is its tiles' bits end to end
        out = [
            int.from_bytes(b"".join([c.to_bytes(height // 8, "little") for c in col]), "little")
            if any(col)
            else 0
            for col in zip(*tiles)
        ]
    else:
        out = tiles[0] if tiles else []
    del out[used:]
    out += [0] * (width - used)
    return out


def _disjointness(sets) -> list[int]:
    """adj[i]: bitmask over the indices j of the sets disjoint from sets[i].

    One mask AND per pair of sets, except that two sets whose spans (lowest
    to highest element) do not overlap are disjoint with no AND.  The spans
    are read only when some set has no element below the end of the
    shortest set, the one case where two spans can miss each other; dense
    covers, whose spans all overlap, pay one AND per set for that test.
    300 single-element sets near element 10**6 took 0.04 s against 1.8 s
    with an AND per pair (process time, 2-core x86, Python 3.11).
    """
    below = (1 << min(map(int.bit_length, sets), default=0)) - 1
    apart = not all(map(and_, sets, itertools.repeat(below)))
    if apart:
        spans = [((s & -s).bit_length(), s.bit_length()) for s in sets]
    adj = [0] * len(sets)
    for (i, s), (j, t) in itertools.combinations(enumerate(sets), 2):
        if apart and (spans[i][1] < spans[j][0] or spans[j][1] < spans[i][0]) or not s & t:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


def _members_mask(i: int, members: list, ground_size: int) -> int:
    """Element mask of set i's member list, checked and then scattered.

    The types and the range are checked first, in passes that run in C; a
    list failing either goes to the Python loop, which only names the first
    bad element.  The members are then set one bit at a time in a buffer
    sized by the greatest member, not the ground set, and no larger than
    the mask it becomes.  An empty list gives 0.
    """
    if not members:
        return 0
    types = set(map(type, members))
    ints = bool not in types and all(issubclass(t, int) for t in types)
    if not (ints and min(members) >= 0 and (hi := max(members)) < ground_size):
        bad = next(x for x in members if not _is_index(x) or x >= ground_size)
        raise ValueError(f"set {i}: element {bad!r} is not an integer in 0..{ground_size - 1}")
    buf = bytearray((hi >> 3) + 1)
    for x in members:
        buf[x >> 3] |= _BIT[x & 7]
    return int.from_bytes(buf, "little")


@dataclass(frozen=True)
class SeparatingCover:
    """Ground set 0..ground_size-1 plus an ordered list of element subsets.

    Construction deduplicates the sets (keeping first occurrences) and
    rejects empty or out-of-range ones; storing an empty set would add
    nothing to covering and only trivially to separation.  A set may be
    an element mask or an iterable of elements; ground_size is at most
    2**63, so that every element fits a signed 64-bit integer.
    """

    ground_size: int
    sets: tuple[int, ...]

    def __init__(self, ground_size: int, sets):
        if not _is_index(ground_size) or ground_size > 2**63:  # elements fit int64
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
        # the binary digits of each stretch of bytes between long zero runs,
        # lowest first, pick the members out of a count
        s = self.sets[i]
        raw = s.to_bytes((s.bit_length() + 7) // 8, "little")
        members: list[int] = []
        a = 0
        for b, end in [*(run.span() for run in _ZERO_RUN.finditer(raw)), (len(raw), 0)]:
            digits = bin(int.from_bytes(raw[a:b], "little"))[:1:-1].encode()
            members += itertools.compress(itertools.count(8 * a), digits.translate(_DIGIT_FLAGS))
            a = end
        return tuple(members)

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

    Both read the element signatures (see the module docstring).  When
    every element is saturated, the check is whether the m signatures are
    distinct: valid minimal covers took 0.03 s at m = 10**5 and 0.6 s at
    10**6, and the 3 188 646-element MIS cover of extremal_graph(41) took
    1.7 s and 0.42 GiB peak RSS with the cover, 3.8 s and 0.55 GiB with a
    repeated signature planted in it (process time, 2-core x86, Python
    3.11).  Otherwise x is uncovered when its signature is empty, and the
    first y > x not separated from x is the lowest bit above x missing from
    ``reach``, the OR of ``sep[i]`` over the sets i containing x.
    ``sep[i]`` is built when first needed, so a failure on the first
    elements costs little, and the scan stops at the first element past
    every set, so it is sized by the sets, not by ground_size.  This scan
    is quadratic, about m**2 * |signature| / 64 word operations: a
    minimal cover with the union of two of its sets added, valid but with
    unsaturated elements, took 0.1 s at m = 2 * 10**4 and 1.5 s at 10**5,
    so such a cover at the 10**7 JSON cap would take hours; an invalid one
    stops at its first failure.
    """
    return _scan(cover, _disjointness(cover.sets))


def _scan(cover: SeparatingCover, adj: list[int]) -> CoverReport:
    """validate_cover's check, on the disjointness table already built."""
    sets, m = cover.sets, cover.ground_size
    used = max(map(int.bit_length, sets), default=0)  # elements from used on lie in no set
    sep = [None] * len(sets)

    def sep_of(i: int) -> int:
        if sep[i] is None:
            sep[i] = functools.reduce(int.__or__, (sets[j] for j in _bits_of(adj[i])), 0)
        return sep[i]

    if used == m:
        full = (1 << m) - 1
        if all(s | sep_of(i) == full for i, s in enumerate(sets)):  # every element saturated
            signature = _transpose(sets, m)
            if len(set(signature)) == m:
                return CoverReport(True, True)
            # first[sig]: the least element with signature sig (the lowest
            # is written last); x is the least first[sig] below an element
            # with that signature
            first = dict(zip(reversed(signature), range(m - 1, -1, -1)))
            owner = list(map(first.__getitem__, signature))
            x = min(itertools.compress(owner, map(ne, owner, itertools.count())))
            return CoverReport(True, False, None, (x, signature.index(signature[x], x + 1)))
    # element used is uncovered and in no reach, so the first failure lies at or below it
    signature = _transpose(sets, min(m, used + 1))
    uncovered = signature.index(0) if 0 in signature else None
    for x, sig in enumerate(signature):
        reach = 0
        for i in _bits_of(sig):
            reach |= sep[i] if sep[i] is not None else sep_of(i)  # a call per bit costs 10 %
        above = reach >> (x + 1)
        y = x + (above ^ (above + 1)).bit_length()  # the lowest y > x missing
        if y < m:
            return CoverReport(uncovered is None, False, uncovered, (x, y))
    return CoverReport(uncovered is None, True, uncovered)


def cover_from_graph(g: Graph, cap: int = DEFAULT_MIS_CAP) -> SeparatingCover:
    """Separating cover whose elements are the MISes of g, one set per vertex.

    Element x is the x-th MIS in canonical order, as in ``enumerate_mis``;
    the set for vertex v collects the MISes containing v.  Distinct MISes
    M, N are separated because some u in M\\N has a neighbor v in N, and
    the u- and v-sets are disjoint.  Duplicated vertex sets are merged, so
    the result has at most g.n sets.  The sets are laid out from the
    factors of g in mixed radix (see the module docstring), so a union
    lists only its factors' own MISes: extremal_graph(44), whose 9 565 938
    MISes took about 4 s of CPU and 518 MiB peak RSS to list and
    transpose, takes about 0.2 s and 73 MiB (2-core x86, Python 3.11).
    A graph over the cap is refused by the policy in
    ``graphs._mis_factors``.

    An isolated vertex lies in every MIS, so its set is the whole ground
    set; separation never needs it.  Raises MisCapError if g has more than
    ``cap`` MISes, and ValueError if g has no vertex or cap is not an int
    >= 0.
    """
    if g.n == 0:
        raise ValueError(
            "graph must have at least one vertex: the empty graph's sole "
            "MIS would leave a one-element ground set with no sets at all"
        )
    return _mis_cover(g, cap)


def _mis_cover(g: Graph, cap: int, m: int | None = None) -> SeparatingCover:
    """The MIS cover of g cut to its first m MISes (all of them by default).

    The factors' MIS lists go through one ``_transpose``, end to end, so
    that for a vertex v, bit j of its column past the offset of v's factor
    says whether MIS j of that factor holds v.  With t the size of v's
    factor and P the product of the later factors' sizes, v gets a run of
    P ones at j * P for each such j (``_spread``), repeated with period
    t * P and cut to m bits.  Vertex sets left empty by the cut are
    dropped.  Raises MisCapError if g has more than cap MISes, by the
    policy of ``graphs._mis_factors``.
    """
    factors = _mis_factors(g.adj, g.full_mask, cap)
    rows = factors[0][1] if len(factors) == 1 else [x for _, masks in factors for x in masks]
    signature = _transpose(rows, g.n)
    later = math.prod(len(masks) for _, masks in factors)
    m = later if m is None else m
    keep = (1 << m) - 1
    sets, offset = [], 0
    for vertices, masks in factors:
        t = len(masks)
        later //= t
        for v in _bits_of(vertices):
            s = signature[v] >> offset
            if later > 1:
                s = _spread(s, later)
            period = t * later
            while period < m:
                s |= s << period
                period *= 2
            s &= keep
            if s:
                sets.append(s)
        offset += t
    return SeparatingCover(m, sets)


def _spread(s: int, p: int) -> int:
    """A run of p ones at j * p for each bit j of s.

    Past one byte, s goes a byte at a time: the runs of eight bits fill p
    whole bytes, built once for each byte value that occurs and joined, so
    a mask of many bits costs its output's size, not a shift per bit.
    """
    if s >> 8:
        raw = s.to_bytes((s.bit_length() + 7) // 8, "little")
        chunks = {b: _spread(b, p).to_bytes(p, "little") for b in set(raw)}
        return int.from_bytes(b"".join(map(chunks.__getitem__, raw)), "little")
    out, run = 0, (1 << p) - 1
    while s:
        j = s.bit_length() - 1
        out |= run << j * p
        s ^= 1 << j
    return out


def graph_from_cover(cover: SeparatingCover, check: bool = True) -> Graph:
    """Graph with one vertex per stored set, adjacent exactly when disjoint.

    For each ground element x the sets containing x are pairwise
    intersecting, hence independent here, and extend to an MIS; the
    separation property keeps those ground_size MISes pairwise distinct,
    so the result has at least ground_size MISes.  With ``check`` the
    cover is validated first, which is all the distinctness needs (see
    the module docstring); the validation and the adjacency share one
    ``_disjointness``.  A cover whose elements are all saturated, which
    every cover from ``minimal_cover`` or ``cover_from_graph`` is, is
    validated by the distinctness of its signatures, with no per-element
    scan: on minimal_cover(10**6) this call took 0.4 s of CPU (2-core x86,
    Python 3.11).
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
    witnesses).  The graph is a union of cliques, each its own factor, so
    every set is a periodic run pattern laid out by the builder of
    ``cover_from_graph``, in O(m) bit operations, with no enumeration.
    Vertex sets left empty are dropped.

    m is bounded by 10**6.  At that bound this call took about 15 ms of
    CPU, and ``miscover minimal-cover 1000000 --out F`` about 5 s of wall
    time and 242 MiB peak RSS, nearly all of it formatting 90 MB of JSON
    (2-core x86, Python 3.11).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m > 10**6:
        raise ValueError(f"m must be <= 10**6, got {m}")
    return _mis_cover(extremal_graph(min_separating_sets(m)), DEFAULT_MIS_CAP, m)


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
