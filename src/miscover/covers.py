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
Two bit-matrix transposes read such masks the other way, one per use.
``_signatures`` turns per-set element masks into per-element set masks
("signatures"): it transposes the 8x8 bit blocks of eight sets' bytes
with three delta swaps on one Python int, over the sets' own spans, so it
costs about the size of the sets plus one list entry per element, never
sets times ground size.  ``_columns`` turns MIS vertex masks into
per-vertex MIS masks: one strided bytes slice per vertex, read as binary
digits.

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
lists no MIS of the whole graph.  It takes the MISes as factors
F_1..F_r on consecutive vertices.  In canonical order the MISes count in
mixed radix, F_1 the most significant digit: MIS x holds MIS number
floor(x / P) mod t of a factor with t MISes, P being the product of the
later factors' sizes.  So the set of a vertex v of that factor is a run
of P ones at j * P for each MIS j of the factor that holds v, repeated
with period t * P and cut to m bits.  Only the factors' own short MIS
lists go through ``_columns``, which says which of them hold v.
``cover_from_graph`` takes all the MISes of the factors that
``graphs._mis_factors`` finds: components lying wholly below the rest,
then what is left.  ``minimal_cover(m)`` takes the first m MISes of the
extremal graph on min_separating_sets(m) vertices, a union of cliques
whose sizes ``closedforms._parts`` gives.  It builds no graph and lists
nothing: a clique's MISes are its vertices, so each factor is written
down at once, and every set is a single periodic run.

``graph_from_cover`` validates once and builds no witness MISes: in a
valid cover, distinct x and y are split by disjoint sets S containing x
and T containing y, which are adjacent in the graph, so no independent
set holds both and the MISes extending the signatures of x and y differ.

The module uses no numpy: its bit conversions are big-int and bytes
operations, as fast as numpy at the sizes the cover commands meet, and a
command that loads no numpy starts about 100 ms sooner.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
from dataclasses import dataclass
from operator import and_, ne
from pathlib import Path

from .closedforms import _check_positive, _is_index, _parts, min_separating_sets
from .graphs import DEFAULT_MIS_CAP, MAX_VERTICES, Graph, _bits_of, _mis_factors

# the byte with bit i set, for i < 8
_BIT = bytes(1 << i for i in range(8))
# bytes.translate table from binary digits ("0", "1") to flag bytes (0, 1)
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")
# zero bytes that set_members skips, from one word up: on random sets of
# density 1/100 and 1/1000 over 10**6 elements this read them 1.9x and 1.4x
# faster than runs from 32 bytes, and level on minimal_cover(10**6)
_ZERO_RUN = re.compile(rb"\0{8,}")
# the delta swaps of the 8x8 bit-matrix transpose (Warren, Hacker's Delight,
# section 7-3): shift, and the mask of one 64-bit word as bytes
_SWAPS = [
    (7, (0x00AA00AA00AA00AA).to_bytes(8, "little")),
    (14, (0x0000CCCC0000CCCC).to_bytes(8, "little")),
    (28, (0x00000000F0F0F0F0).to_bytes(8, "little")),
]
# bytes.translate tables from a byte to the ASCII digit of its bit i, for i < 8
_BIT_DIGIT = [bytes(48 + (b >> i & 1) for b in range(256)) for i in range(8)]


def _signatures(sets, m: int) -> list[int]:
    """Bit i of result[x] is bit x of sets[i]; no set reaches m.

    The sets go in blocks of 64, one 64-bit word of each signature, and
    groups of 8.  A group's sets, shifted down to its lowest element, are
    interleaved byte by byte, so that 64-bit word p holds byte p of each;
    three delta swaps on one Python int transpose the 8x8 bit matrix in
    every word, which leaves one byte per element.  Those bytes are strided
    into the block's buffer of 8 bytes per element, read back as words and
    ORed into the result at bit 64 * block; the first block's words, padded
    with zeros, become the result.  All of this follows the sets' spans, so
    a sparse cover on a large ground set pays m only for the result list.
    Each block rebuilds the signatures it touches, so blocks of sets that
    share elements cost blocks times the signatures' size: 2 * 10**6 random
    40-bit rows took about 30 s, against 0.5 s for ``_columns``; a cover's
    sets are far fewer.
    """
    for b in range(0, max(len(sets), 1), 64):  # one empty block when there are no sets
        block = sets[b : b + 64]
        spans = [_span(block[g : g + 8]) for g in range(0, len(block), 8)]
        lo = min((glo for glo, ghi in spans if ghi), default=0)
        hi = max((ghi for _, ghi in spans), default=0)
        buf = bytearray(8 * (hi - lo))
        for g, (glo, ghi) in zip(range(0, len(block), 8), spans):
            if not ghi:  # eight empty sets
                continue
            nb = (ghi - glo + 7) // 8
            rows = bytearray(8 * nb)
            for t, s in enumerate(block[g : g + 8]):
                rows[t::8] = (s >> glo).to_bytes(nb, "little")
            x = int.from_bytes(rows, "little")
            for shift, mask in _SWAPS:
                d = (x ^ x >> shift) & int.from_bytes(mask * nb, "little")
                x ^= d ^ d << shift
            start = 8 * (glo - lo) + g // 8
            buf[start : start + 8 * (ghi - glo) : 8] = x.to_bytes(8 * nb, "little")[: ghi - glo]
        words = memoryview(buf).cast("Q").tolist()  # native order: little-endian hosts
        del buf  # before the result grows
        if b:
            result[lo:hi] = [r | w << b for r, w in zip(result[lo:hi], words)]
        else:  # no list of m zeros stands beside the words
            result = [0] * lo
            result += words
            result += itertools.repeat(0, m - hi)
    return result


def _span(sets) -> tuple[int, int]:
    """The lowest element of the sets and one past the highest; (0, 0) if all are empty."""
    lo = min(((s & -s).bit_length() for s in sets if s), default=1) - 1
    return lo, max(map(int.bit_length, sets), default=0)


def _columns(masks, n: int) -> list[int]:
    """Bit j of result[v] is bit v of masks[j], for n <= MAX_VERTICES.

    The masks are written end to end, w bytes each, and the buffer is
    reversed, so that the slice from w - 1 - v // 8 in steps of w is byte
    v // 8 of every mask, last mask first.  Its bit v % 8, translated to
    ASCII digits, is read by one int(..., 2) in linear time.  The masks are
    joined in chunks of 2**16, so that no list of millions of bytes objects
    is built.
    """
    w = (n + 7) // 8
    buf = bytearray()
    for i in range(0, len(masks), 1 << 16):
        buf += b"".join([x.to_bytes(w, "little") for x in masks[i : i + (1 << 16)]])
    buf.reverse()
    return [
        int(buf[w - 1 - v // 8 :: w].translate(_BIT_DIGIT[v % 8]) or b"0", 2) for v in range(n)
    ]


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

    def __reduce__(self):
        # pickle and copy rebuild an error from the arguments of __init__
        return type(self), (self.report,), self.__dict__


def validate_cover(cover: SeparatingCover) -> CoverReport:
    """Check the covering and separating properties, with witnesses.

    Covering: the union of the sets is the whole ground set.  Separating:
    for every pair of distinct elements x, y there are disjoint stored
    sets S, T with x in S and y in T.  The first failing element (or pair,
    scanned in lexicographic order) is reported.

    Both read the element signatures (see the module docstring).  When
    every element is saturated, the check is whether the m signatures are
    distinct: valid minimal covers took 0.02 s at m = 10**5 and about 0.4
    s at 10**6, and the 3 188 646-element MIS cover of extremal_graph(41)
    took about 1.5 s and 400 MiB peak RSS with the cover, about 4 s and
    549 MiB with a repeated signature planted in it (process time, 2-core
    x86, Python 3.11).  Otherwise x is uncovered when its signature is empty,
    and the first y > x not separated from x is the lowest bit above x
    missing from ``reach``, the OR of ``sep[i]`` over the sets i
    containing x.  ``sep[i]`` is built when first needed, so a failure on
    the first elements costs little, and the scan stops at the first
    element past every set, so it is sized by the sets, not by
    ground_size.  This scan is quadratic, about m**2 * |signature| / 64
    word operations: a minimal cover with the union of two of its sets
    added, valid but with unsaturated elements, took 0.1 s at m = 2 *
    10**4 and 1.3-1.7 s at 10**5, so such a cover at the 10**7 JSON cap
    would take hours; an invalid one stops at its first failure.
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
            signature = _signatures(sets, m)
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
    signature = _signatures(sets, min(m, used + 1))
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
    transpose, takes about 0.15 s and 76 MiB (2-core x86, Python 3.11).
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
    return _mis_cover(_mis_factors(g.adj, g.full_mask, cap))


def _mis_cover(factors, m: int | None = None) -> SeparatingCover:
    """The cover of the product of the factors, cut to its first m
    elements (all of them by default).

    ``factors`` are (vertex mask, MIS masks in canonical order) pairs, as
    ``graphs._mis_factors`` gives them: each holds consecutive vertices, in
    order, so the last one ends at the vertex count.  The factors' MIS
    lists go through one ``_columns``, end to end, so that for a vertex
    v, bit j of its column past the offset of v's factor says whether MIS
    j of that factor holds v.  With t the size of v's factor and P the
    product of the later factors' sizes, v gets a run of P ones at j * P
    for each such j (``_spread``), repeated with period t * P and cut to
    m bits.  Vertex sets left empty by the cut are dropped.
    """
    rows = factors[0][1] if len(factors) == 1 else [x for _, masks in factors for x in masks]
    signature = _columns(rows, factors[-1][0].bit_length())
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
    scan: on minimal_cover(10**6) this call took about 0.4 s of CPU (2-core
    x86, Python 3.11).
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
    witnesses).  That graph is one clique per part of
    ``closedforms._parts``, on consecutive vertices, and a clique's MISes
    are its vertices in order.  So the cliques go to the builder of
    ``cover_from_graph`` as its factors as they are, with no graph built
    and no MIS listed, and every set is a periodic run pattern laid out in
    O(m) bit operations.  Vertex sets left empty are dropped.

    m is bounded by 10**6.  At that bound this call took about 6 ms of
    CPU, and ``miscover minimal-cover 1000000 --out F`` 4-5 s of wall time
    and 242 MiB peak RSS, nearly all of it formatting 90 MB of JSON (2-core
    x86, Python 3.11).
    """
    _check_positive("m", m)
    if m > 10**6:
        raise ValueError(f"m must be <= 10**6, got {m}")
    i, tail = _parts(min_separating_sets(m))
    factors, off = [], 0
    for k in [3] * i + tail:
        factors.append((((1 << k) - 1) << off, [1 << v for v in range(off, off + k)]))
        off += k
    return _mis_cover(factors, m)


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
