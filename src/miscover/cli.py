"""Command-line interface.

Exit codes: 0 success, 1 domain failure (bad value, invalid cover, cap
overflow, out of memory), 2 usage error.  Standard output is deterministic
for identical inputs; timing and progress notes go to standard error.

Each command imports the library modules it runs inside its own body, so
``miscover ell 10`` loads ``closedforms`` alone and only the table
commands (``complexity``, ``expr``) and ``verify`` load numpy.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

# The largest arguments whose answers print under Python's default limit of
# 4 300 digits for int-to-str conversion: ell(27 037) and perrin(35 210)
# have 4 300 digits.  Larger ones are rejected before computing: ell(10**8)
# and perrin(10**7) were still computing after 20 s, only to fail to print.
ELL_MAX_N = 27037
PERRIN_MAX_J = 35210


def _printable(name: str, value: int, bound: int) -> int:
    """value, or a ValueError when its answer would not print."""
    if value > bound:
        raise ValueError(
            f"{name} must be <= {bound}, got {value}: the answer would have more "
            "than 4300 digits, Python's limit for printing an int"
        )
    return value


def _emit_graph(g, out: str | None) -> None:
    from .graphs import graph_to_text, write_graph_text

    if out:
        write_graph_text(g, out)
        print(f"wrote graph ({g.n} vertices) to {out}", file=sys.stderr)
    else:
        sys.stdout.write(graph_to_text(g))


def _emit_cover(cover, out: str | None) -> None:
    from .covers import cover_to_json, write_cover_json

    if out:
        write_cover_json(cover, out)
        print(
            f"wrote cover ({cover.ground_size} elements, {len(cover.sets)} sets) "
            f"to {out}",
            file=sys.stderr,
        )
    else:
        sys.stdout.write(cover_to_json(cover))


def _cmd_ell(args) -> int:
    from .closedforms import max_partition_product

    print(max_partition_product(_printable("n", args.n, ELL_MAX_N)))
    return 0


def _cmd_s(args) -> int:
    from .closedforms import min_separating_sets

    print(min_separating_sets(args.m))
    return 0


def _cmd_perrin(args) -> int:
    from .closedforms import perrin

    print(perrin(_printable("j", args.j, PERRIN_MAX_J)))
    return 0


def _cmd_maxones(args) -> int:
    from .closedforms import max_with_ones

    print(max_with_ones(args.n))
    return 0


def _cmd_complexity(args) -> int:
    from .complexity import _csv_blocks, complexity_table

    table = complexity_table(args.max)
    blocks = _csv_blocks(table, table.limit)
    if args.csv:
        with open(args.csv, "w") as f:
            f.writelines(blocks)
        print(f"wrote {args.max} rows to {args.csv}", file=sys.stderr)
    else:
        sys.stdout.writelines(blocks)
    return 0


def _cmd_expr(args) -> int:
    from .complexity import complexity_table, minimal_expression
    from .expressions import format_expression

    table = complexity_table(args.m)
    e = minimal_expression(args.m, table)
    print(format_expression(e))
    print(f"value {e.value}")
    print(f"ones {e.ones}")
    return 0


def _cmd_expr_graph(args) -> int:
    from .complexity import graph_from_expression
    from .expressions import parse_expression

    g = graph_from_expression(parse_expression(args.expression))
    _emit_graph(g, args.out)
    return 0


def _cmd_mis(args) -> int:
    from .graphs import DEFAULT_MIS_CAP, _mis_factors, count_mis, read_graph_text

    g = read_graph_text(args.graph)
    if args.count:
        print(count_mis(g))
    else:
        # one line per set, members ascending, in enumerate_mis's order, but
        # no set is built: the factors hold consecutive vertices in order,
        # so a line is its factors' member strings joined by spaces, and the
        # C-major product is itertools.product.  Each factor MIS is
        # formatted once: byte k of its mask indexes the 256 strings of the
        # vertices 8k..8k+7 it may hold.  The empty graph's one factor is
        # [""], which prints one empty line.
        width = (g.n + 7) // 8
        tables = [
            [" ".join(str(8 * k + i) for i in range(8) if b >> i & 1) for b in range(256)]
            for k in range(width)
        ]
        texts = [
            [
                " ".join(filter(None, map(list.__getitem__, tables, m.to_bytes(width, "little"))))
                for m in masks
            ]
            for _, masks in _mis_factors(g.adj, g.full_mask, DEFAULT_MIS_CAP)
        ]
        lines = map(" ".join, itertools.product(*texts))
        while block := list(itertools.islice(lines, 4096)):  # bounded blocks
            block.append("")
            sys.stdout.write("\n".join(block))
    return 0


def _cmd_extremal(args) -> int:
    from .graphs import Variant, extremal_graph

    variant = {
        None: Variant.DEFAULT,
        "two-edges": Variant.TWO_EDGES,
        "k4": Variant.K4,
    }[args.variant]
    _emit_graph(extremal_graph(args.n, variant), args.out)
    return 0


def _cmd_cover_from_graph(args) -> int:
    from .covers import cover_from_graph
    from .graphs import read_graph_text

    _emit_cover(cover_from_graph(read_graph_text(args.graph)), args.out)
    return 0


def _cmd_graph_from_cover(args) -> int:
    from .covers import graph_from_cover, read_cover_json

    _emit_graph(graph_from_cover(read_cover_json(args.cover)), args.out)
    return 0


def _cmd_minimal_cover(args) -> int:
    from .covers import minimal_cover

    _emit_cover(minimal_cover(args.m), args.out)
    return 0


def _cmd_validate_cover(args) -> int:
    from .covers import read_cover_json, validate_cover

    report = validate_cover(read_cover_json(args.cover))
    print(f"covering {'yes' if report.covering else 'no'}")
    print(f"separating {'yes' if report.separating else 'no'}")
    if report.uncovered is not None:
        print(f"uncovered {report.uncovered}")
    if report.unseparated is not None:
        print(f"unseparated {report.unseparated[0]} {report.unseparated[1]}")
    return 0 if report.valid else 1


def _cmd_verify(args) -> int:
    from .oracles import run_verification

    reports = run_verification(args.level)
    for r in reports:
        print(r.tsv_line())
    failures = sum(not r.agree for r in reports)
    total_time = sum(r.elapsed for r in reports)
    print(
        f"{len(reports)} checks, {failures} disagreements, {total_time:.2f}s",
        file=sys.stderr,
    )
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miscover",
        description=(
            "Maximum-product partitions, separating covers, maximal "
            "independent sets, and integer complexity."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ell", help="largest product of integers summing to N")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_ell)

    p = sub.add_parser("s", help="minimum sets in a separating cover on M elements")
    p.add_argument("m", type=int)
    p.set_defaults(func=_cmd_s)

    p = sub.add_parser("perrin", help="J-th Perrin number (MIS count of the J-cycle)")
    p.add_argument("j", type=int)
    p.set_defaults(func=_cmd_perrin)

    p = sub.add_parser("maxones", help="largest integer expressible with N ones")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_maxones)

    p = sub.add_parser("complexity", help="integer complexity table as 'm,c' lines")
    p.add_argument("--max", type=int, required=True, metavar="N")
    p.add_argument("--csv", metavar="PATH", help="write to file instead of stdout")
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("expr", help="a minimal expression for M")
    p.add_argument("m", type=int)
    p.set_defaults(func=_cmd_expr)

    p = sub.add_parser("expr-graph", help="graph built from an expression")
    p.add_argument("expression")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_expr_graph)

    p = sub.add_parser("mis", help="maximal independent sets of a graph file")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--count", action="store_true")
    mode.add_argument("--list", action="store_true")
    p.add_argument("--graph", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_mis)

    p = sub.add_parser("extremal", help="N-vertex graph with the most MISes")
    p.add_argument("n", type=int)
    p.add_argument("--variant", choices=["two-edges", "k4"])
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("cover-from-graph", help="separating cover from a graph's MISes")
    p.add_argument("--graph", required=True, metavar="PATH")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_cover_from_graph)

    p = sub.add_parser("graph-from-cover", help="disjointness graph of a cover")
    p.add_argument("--cover", required=True, metavar="PATH")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_graph_from_cover)

    p = sub.add_parser("minimal-cover", help="smallest separating cover on M elements")
    p.add_argument("m", type=int)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_minimal_cover)

    p = sub.add_parser("validate-cover", help="check covering and separation")
    p.add_argument("--cover", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_validate_cover)

    p = sub.add_parser("verify", help="run the brute-force agreement suite")
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Dispatch one CLI invocation; returns the exit code instead of exiting."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        message = str(e)
    except MemoryError as e:
        message = str(e) or "out of memory"
    except RuntimeError as e:
        from .graphs import MisCapError  # only a raised error pays for this import

        if not isinstance(e, MisCapError):
            raise
        message = str(e)
    # printed once the except clause has let go of the failed call's frames
    print(f"error: {message}", file=sys.stderr)
    return 1


def main() -> None:
    # numpy's bundled OpenBLAS starts a thread per core when it loads, and
    # miscover calls no BLAS routine; a value the user set is kept
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(run())


if __name__ == "__main__":
    main()
