import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import miscover
import miscover.graphs
from conftest import chain_of_triangles, prism_graph, random_graph
from miscover import (
    Variant,
    complete_graph,
    count_mis,
    cover_from_graph,
    cycle_graph,
    disjoint_union,
    enumerate_mis,
    extremal_graph,
    from_edges,
    graph_from_text,
    minimal_cover,
    perrin,
    write_cover_json,
    write_graph_text,
)
from miscover.cli import ELL_MAX_N, PERRIN_MAX_J, run


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out


def test_single_number_commands(capsys):
    assert run(["ell", "10"]) == 0
    assert run(["s", "10"]) == 0
    assert run(["perrin", "10"]) == 0
    assert run(["maxones", "7"]) == 0
    assert out_of(capsys) == "36\n7\n17\n12\n"


def test_domain_errors_exit_1(capsys):
    assert run(["ell", "0"]) == 1
    assert run(["s", "-2"]) == 1
    assert run(["perrin", "0"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_unprintable_answers_are_rejected_before_computing(capsys):
    # the bounds print exactly 4 300 digits; one more is a domain error
    # before computing, not Python's int-to-str error after it
    for command, name, bound in (("ell", "n", ELL_MAX_N), ("perrin", "j", PERRIN_MAX_J)):
        assert run([command, str(bound)]) == 0
        assert len(out_of(capsys)) == 4301
        for arg in (bound + 1, 10**8):
            assert run([command, str(arg)]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            assert err.startswith(f"error: {name} must be <= {bound}, got {arg}: ")


def test_maxones_over_cap_is_one_line_error(capsys):
    assert run(["maxones", "27037"]) == 0
    assert len(out_of(capsys)) == 4301
    assert run(["maxones", "27038"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: n must be <= 27037, got 27038: the answer would have more than "
        "4300 digits, Python's limit for printing an int\n"
    )


NUMPY_FREE = """
import contextlib, io, json, sys
def loaded():
    return sorted(k for k in sys.modules if k.startswith("miscover"))
import miscover
seen = [["import miscover", 0, "numpy" in sys.modules, "", loaded()]]
from miscover.cli import run
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    seen.append([" ".join(argv), code, "numpy" in sys.modules, out.getvalue(), loaded()])
print(json.dumps(seen))
"""


def test_numpy_free_commands_never_import_numpy(tmp_path):
    # start-up cost: numpy is most of a fresh interpreter's import time, and
    # only the table and oracle functions use it
    # the cycle is counted by the elimination DP, the extremal graph by splits
    graph, cycle, cover = tmp_path / "g.txt", tmp_path / "c.txt", tmp_path / "c.json"
    write_graph_text(extremal_graph(5), graph)
    write_graph_text(cycle_graph(24), cycle)
    write_cover_json(minimal_cover(10), cover)
    free = [
        ["ell", "10"], ["s", "10"], ["perrin", "10"], ["maxones", "7"],
        ["mis", "--count", "--graph", str(graph)], ["mis", "--list", "--graph", str(graph)],
        ["mis", "--count", "--graph", str(cycle)],
        ["extremal", "7"], ["expr-graph", "(1+1)((1+1)(1+1)+1)"],
        ["minimal-cover", "5"], ["validate-cover", "--cover", str(cover)],
        ["graph-from-cover", "--cover", str(cover)], ["cover-from-graph", "--graph", str(graph)],
    ]
    with_numpy = [["expr", "10"], ["verify"]]
    env = dict(os.environ, PYTHONPATH=str(Path(miscover.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE, json.dumps(free + with_numpy)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    assert [(name, code, numpy) for name, code, numpy, *_ in rows] == [
        (name, 0, i > len(free)) for i, (name, *_) in enumerate(rows)
    ]
    assert rows[7][3] == f"{perrin(24)}\n"  # the cycle's count
    assert rows[11][3] == "covering yes\nseparating yes\n"  # validate-cover
    assert rows[14][3] == "1+(1+1+1)(1+1+1)\nvalue 10\nones 7\n"  # expr 10
    # what each command loads, cumulatively, since the commands run in one
    # process in ascending order of what they need
    base = ["miscover", "miscover.cli", "miscover.closedforms"]
    graphs = sorted(base + ["miscover.graphs"])
    expr = sorted(graphs + ["miscover.complexity", "miscover.expressions"])
    covers = sorted(expr + ["miscover.covers"])
    everything = sorted(covers + ["miscover.oracles"])
    expected = [["miscover"], *[base] * 4, *[graphs] * 4, expr, *[covers] * 5, everything]
    assert [row[4] for row in rows] == expected


BLAS_DEFAULT = """
import os, sys
from miscover.cli import main
seen = []
for preset in (None, "2"):
    os.environ.pop("OPENBLAS_NUM_THREADS", None)
    if preset:
        os.environ["OPENBLAS_NUM_THREADS"] = preset
    sys.argv = ["miscover", "s", "1"]
    try:
        main()
    except SystemExit as e:
        seen.append([e.code, os.environ.get("OPENBLAS_NUM_THREADS")])
print(seen)
"""


def test_main_defaults_blas_to_one_thread():
    # numpy's OpenBLAS would start a thread per core at load; miscover
    # calls no BLAS routine, and a value the user set is kept
    env = dict(os.environ, PYTHONPATH=str(Path(miscover.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", BLAS_DEFAULT], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "1\n1\n[[0, '1'], [0, '2']]\n"), proc.stderr


def test_memory_error_is_one_line_error(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr("miscover.cli._cmd_s", exhausted)
    assert run(["s", "10"]) == 1
    assert capsys.readouterr() == ("", "error: out of memory\n")


def test_usage_errors_exit_2(capsys):
    assert run(["no-such-command"]) == 2
    assert run([]) == 2
    assert run(["mis", "--graph", "x"]) == 2  # needs --count or --list
    capsys.readouterr()


def test_complexity_stdout_and_csv(tmp_path, capsys):
    assert run(["complexity", "--max", "10"]) == 0
    out = out_of(capsys)
    assert out.splitlines()[-1] == "10,7"
    path = tmp_path / "c.csv"
    assert run(["complexity", "--max", "1000", "--csv", str(path)]) == 0
    assert out_of(capsys) == ""
    lines = path.read_text().splitlines()
    assert lines[9] == "10,7" and lines[-1] == "1000,21"


def test_expr_command(capsys):
    assert run(["expr", "10"]) == 0
    lines = out_of(capsys).splitlines()
    assert lines[1] == "value 10"
    assert lines[2] == "ones 7"
    from miscover import parse_expression

    e = parse_expression(lines[0])
    assert e.value == 10 and e.ones == 7


def test_expr_graph_command(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert run(["expr-graph", "(1+1)((1+1)(1+1)+1)", "--out", str(out)]) == 0
    g = graph_from_text(out.read_text())
    assert g.n == 7 and count_mis(g) == 10
    assert run(["expr-graph", "(1+2)"]) == 1  # syntax error is a domain failure
    capsys.readouterr()


def cli(*args):
    """Run ``python -m miscover`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(miscover.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "miscover", *args],
        env=env, capture_output=True, text=True, timeout=60,
    )


def test_expr_command_at_1e5():
    proc = cli("expr", "100000")
    assert proc.returncode == 0, proc.stderr
    text, value, ones = proc.stdout.splitlines()
    assert value == "value 100000"
    assert ones == f"ones {miscover.complexity_table(10**5)[10**5]}"
    e = miscover.parse_expression(text)
    assert (e.value, f"ones {e.ones}") == (100000, ones)


def test_minimal_cover_command_at_1e5():
    proc = cli("minimal-cover", "100000")
    assert proc.returncode == 0, proc.stderr
    cover = miscover.minimal_cover(100000)
    assert len(cover.sets) == 32
    assert proc.stdout == miscover.cover_to_json(cover)


def test_sparse_cover_on_large_ground_set_stays_small(tmp_path):
    # single-element sets on 10**7 elements: reports and errors come from
    # the first elements, in the memory of a 10**7-entry signature list,
    # not of a sets x elements bit matrix (1.5 GB to 10 GB here)
    limit = 1 << 30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    def run_capped(command, k):
        path = tmp_path / f"sparse{k}.json"
        path.write_text(json.dumps({"ground_size": 10**7, "sets": [[x] for x in range(k)]}))
        # one BLAS thread: the limit is for this program's arrays, not for
        # per-core BLAS buffers
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(miscover.__file__).parents[1]),
            OPENBLAS_NUM_THREADS="1",
        )
        return subprocess.run(
            [sys.executable, "-m", "miscover", command, "--cover", str(path)],
            env=env, capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
        )

    proc = run_capped("validate-cover", 300)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout == "covering no\nseparating no\nuncovered 300\nunseparated 0 300\n"
    proc = run_capped("graph-from-cover", 128)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: not covering: element 128 lies in no set\n"


def test_expr_graph_long_and_deep_input_has_no_traceback():
    # each of these once overflowed the recursive-descent parser's stack
    proc = cli("expr-graph", "(" * 1200 + "1" + ")" * 1200)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "p 1 0\n", "")
    for text in ("1" * 1500, "(1+" * 1500 + "1" + ")" * 1500):
        proc = cli("expr-graph", text)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: expression has 1")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_mis_count_on_128_cycle(tmp_path, capsys):
    path = tmp_path / "c128.txt"
    write_graph_text(cycle_graph(128), path)
    assert run(["mis", "--count", "--graph", str(path)]) == 0
    assert out_of(capsys) == f"{perrin(128)}\n"


def test_mis_count_over_budget_is_one_line_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "prism.txt"
    write_graph_text(prism_graph(18), path)  # cubic, 36 vertices
    monkeypatch.setattr(miscover.graphs, "COUNT_MEMO_BUDGET", 50)
    assert run(["mis", "--count", "--graph", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: counting maximal independent sets needs more than 50 memo "
        "entries; the graph is too hard to count\n"
    )


@pytest.mark.parametrize("command", [["mis", "--list"], ["cover-from-graph"]])
def test_enumeration_over_the_cap_is_one_line_error(tmp_path, capsys, command):
    # a union, refused by its factors, and a connected graph, refused by its
    # lower bound: 2 * 3**42 (about 2.2e20) and 267 914 296 MISes
    path = tmp_path / "g.txt"
    for graph in (extremal_graph(128), chain_of_triangles(20)):
        write_graph_text(graph, path)
        assert run(command + ["--graph", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: number of maximal independent sets exceeds cap 10000000")


def test_uncountable_graphs_over_the_cap_fail_fast(tmp_path):
    # count_mis cannot count G(128, 0.03) or G(128, 0.1), and listing cap + 1
    # sets took 160 s and 61 s; their lower bounds refuse them after
    # MIS_COUNT_PROBE sets, in 0.9-1.7 s of CPU with start-up and 64 MiB.
    # The four commands run at once, each under its own CPU limit.
    def cap_cpu():
        resource.setrlimit(resource.RLIMIT_CPU, (5, 5))

    env = dict(os.environ, PYTHONPATH=str(Path(miscover.__file__).parents[1]))
    procs = []
    for p in (0.03, 0.1):
        path = tmp_path / f"g{p}.txt"
        write_graph_text(random_graph(random.Random(1), 128, p), path)
        for command in (["mis", "--list"], ["cover-from-graph"]):
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "miscover", *command, "--graph", str(path)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                preexec_fn=cap_cpu,
            ))
    for proc in procs:
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out) == (1, "")
        assert err == "error: number of maximal independent sets exceeds cap 10000000\n"


def test_mis_count_and_list(tmp_path, capsys):
    path = tmp_path / "g.txt"
    write_graph_text(extremal_graph(5), path)
    assert run(["mis", "--count", "--graph", str(path)]) == 0
    assert out_of(capsys) == "6\n"
    assert run(["mis", "--list", "--graph", str(path)]) == 0
    lines = out_of(capsys).splitlines()
    assert len(lines) == 6
    assert lines[0] == "0 3"
    assert lines == sorted(lines)


# extremal_graph(12) with vertex v renamed v % 3 * 4 + v // 3, so that its
# triangles {0, 4, 8}, {1, 5, 9}, ... interleave and stay one factor
DEALT_OUT = from_edges(
    12, [(u % 3 * 4 + u // 3, v % 3 * 4 + v // 3) for u, v in extremal_graph(12).edges()]
)


@pytest.mark.parametrize(
    "g",
    [
        prism_graph(12),
        extremal_graph(24),
        complete_graph(128),
        complete_graph(0),
        extremal_graph(10, Variant.K4),
        extremal_graph(10, Variant.TWO_EDGES),
        disjoint_union(disjoint_union(complete_graph(1), extremal_graph(5)), from_edges(2, [])),
        disjoint_union(disjoint_union(cycle_graph(5), complete_graph(2)), extremal_graph(7)),
        disjoint_union(extremal_graph(4), DEALT_OUT),
        disjoint_union(cycle_graph(5), extremal_graph(21)),
    ],
    ids=[
        "cubic-24", "extremal-24", "K128", "empty", "extremal-10-k4", "extremal-10-two-edges",
        "isolated-vertices", "C5+K2+extremal-7", "interleaved", "C5+extremal-21",
    ],
)
def test_mis_list_prints_what_print_would(tmp_path, capsys, g):
    # lines are the product of the factors' member strings, written in
    # blocks of 4 096 (C5+extremal-21 has 10 935); the bytes must be those
    # of one print per set.  They are compared as lists of lines: pytest's
    # line diff of two unequal strings this long runs for minutes
    path = tmp_path / "g.txt"
    write_graph_text(g, path)
    expected = io.StringIO()
    with contextlib.redirect_stdout(expected):
        for s in enumerate_mis(g):
            print(" ".join(map(str, s.members())))
    assert run(["mis", "--list", "--graph", str(path)]) == 0
    lines = out_of(capsys).splitlines(keepends=True)
    assert lines == expected.getvalue().splitlines(keepends=True)
    if g.n == 0:
        assert expected.getvalue() == "\n"


LIST_AND_REPORT_RSS = """
import resource, sys
from miscover.cli import run
code = run(["mis", "--list", "--graph", sys.argv[1]])
sys.stdout.flush()
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
sys.exit(code)
"""


def test_mis_list_of_extremal_41_streams_under_cpu_and_memory_limits(tmp_path):
    # 3 188 646 lines, written from 14 clique factors in about 0.9 s of CPU
    # and 17 MiB peak RSS; one VertexSet per line took 9 s and 663 MiB
    # (2-core x86 host, Python 3.11)
    graph, listing = tmp_path / "g.txt", tmp_path / "out.txt"
    write_graph_text(extremal_graph(41), graph)

    def cap_cpu():
        resource.setrlimit(resource.RLIMIT_CPU, (3, 3))

    env = dict(os.environ, PYTHONPATH=str(Path(miscover.__file__).parents[1]))
    with open(listing, "wb") as out:
        proc = subprocess.run(
            [sys.executable, "-c", LIST_AND_REPORT_RSS, str(graph)],
            env=env, stdout=out, stderr=subprocess.PIPE, text=True, timeout=60,
            preexec_fn=cap_cpu,
        )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stderr) < 64 * 1024  # KiB
    md5, lines = hashlib.md5(), 0
    with open(listing, "rb") as f:
        while chunk := f.read(1 << 20):
            md5.update(chunk)
            lines += chunk.count(b"\n")
    assert (lines, md5.hexdigest()) == (3_188_646, "0d5147fbcc9a7dcadecc7dd11e0aeeb1")


def test_extremal_variants(tmp_path, capsys):
    assert run(["extremal", "7"]) == 0
    default = out_of(capsys)
    assert run(["extremal", "7", "--variant", "two-edges"]) == 0
    assert out_of(capsys) == default
    assert run(["extremal", "7", "--variant", "k4"]) == 0
    assert out_of(capsys) != default
    assert run(["extremal", "6", "--variant", "k4"]) == 1  # needs n = 3i+1
    capsys.readouterr()


def test_cover_pipeline(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    cpath = tmp_path / "c.json"
    hpath = tmp_path / "h.txt"
    write_graph_text(extremal_graph(6), gpath)
    assert run(["cover-from-graph", "--graph", str(gpath), "--out", str(cpath)]) == 0
    cover = json.loads(cpath.read_text())
    assert cover["ground_size"] == 9 and len(cover["sets"]) <= 6
    assert run(["validate-cover", "--cover", str(cpath)]) == 0
    assert out_of(capsys).startswith("covering yes\nseparating yes")
    assert run(["graph-from-cover", "--cover", str(cpath), "--out", str(hpath)]) == 0
    assert count_mis(graph_from_text(hpath.read_text())) >= 9


def test_minimal_cover_command(tmp_path, capsys):
    assert run(["minimal-cover", "10"]) == 0
    obj = json.loads(out_of(capsys))
    assert obj["ground_size"] == 10 and len(obj["sets"]) <= 7


def test_validate_cover_reports_witness(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"ground_size":2,"sets":[[0,1]]}')
    assert run(["validate-cover", "--cover", str(bad)]) == 1
    out = out_of(capsys)
    assert "separating no" in out and "unseparated 0 1" in out


def test_graph_from_cover_rejects_invalid(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"ground_size":3,"sets":[[0,1],[2]]}')
    assert run(["graph-from-cover", "--cover", str(bad)]) == 1
    assert "not separating" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        '{"ground_size":3,"sets":[[0.5]]}',
        '{"ground_size":"3","sets":[[0]]}',
        '{"ground_size":3,"sets":5}',
        '{"ground_size":3,"sets":[["a"]]}',
        '{"ground_size":3,"sets":[[-1]]}',
        '{"ground_size":true,"sets":[[0]]}',
        '{"ground_size":3,"sets":[7]}',
        '{"ground_size":3,"sets":[[[0]]]}',
        '{"ground_size":1000000000000,"sets":[[0]]}',
        # nested past json's recursion limit, in the sets and at the top
        '{"ground_size":3,"sets":' + "[" * 200_000 + "]" * 200_000 + "}",
        "[" * 200_000 + "]" * 200_000,
    ],
    ids=lambda text: text if len(text) < 80 else f"nested-{len(text)}",
)
def test_malformed_cover_json_is_one_line_error(tmp_path, capsys, text):
    path = tmp_path / "c.json"
    path.write_text(text)
    for command in ("validate-cover", "graph-from-cover"):
        assert run([command, "--cover", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and "shift count" not in err


def _one_line_run(argv):
    """run(argv) in-process; its exit code, after checking stderr is one line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), err
    if code == 0:
        assert err == "" and out.getvalue()
    return code


_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.sampled_from([10**7 + 1, 2**63, -(2**63) - 1, 10**30])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3)
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=30,
)
_element_lists = st.lists(st.lists(_json_leaves | st.integers(0, 12), max_size=6), max_size=8)


@st.composite
def _cover_texts(draw):
    """JSON texts near and far from the cover format, some nested deeply."""
    kind = draw(st.sampled_from(["cover", "keys", "value", "deep", "raw"]))
    if kind == "cover":  # both keys, the values mostly well typed
        size = draw(st.integers(0, 12) | _json_leaves)
        return json.dumps({"ground_size": size, "sets": draw(_element_lists | _json_values)})
    if kind == "keys":  # missing or extra keys
        keys = draw(st.sets(st.sampled_from(["ground_size", "sets", "extra"])))
        return json.dumps({k: draw(_json_values) for k in keys})
    if kind == "deep":
        depth = draw(st.integers(1, 3000) | st.just(200_000))
        return '{"ground_size":3,"sets":[' + "[" * depth + "0" + "]" * depth + "]}"
    if kind == "raw":  # not JSON at all, or cut short
        return draw(st.text(max_size=40))
    return json.dumps(draw(_json_values))


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=_cover_texts())
def test_fuzzed_cover_json_gives_exit_code_and_one_line(tmp_path, text):
    path = tmp_path / "fuzz.json"
    path.write_text(text)
    for command in ("validate-cover", "graph-from-cover"):
        _one_line_run([command, "--cover", str(path)])


@pytest.mark.parametrize("header", ["p 100000000000 0", "p -1 0", "p 129 0"])
def test_graph_vertex_count_out_of_range_is_one_line_error(tmp_path, capsys, header):
    # the count is checked before any per-vertex list is allocated
    path = tmp_path / "g.txt"
    path.write_text(header + "\n")
    n = header.split()[1]
    for argv in (["mis", "--count"], ["mis", "--list"], ["cover-from-graph"]):
        assert run([*argv, "--graph", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: vertex count must be in 0..128, got {n}\n"


_graph_numbers = st.integers(-2, 12) | st.sampled_from([128, 129, -(10**12), 10**12])
_graph_tokens = _graph_numbers.map(str) | st.sampled_from(["", "x", "1.5", "1e3", "0x1f", "--"])


@st.composite
def _graph_texts(draw):
    """Graph texts: mostly a header and at most 10 edges, some bad."""
    kind = draw(st.sampled_from(["graph", "graph", "records", "raw"]))
    if kind == "graph":  # a tree, a few more edges, then maybe one bad edge
        n = draw(st.integers(0, 8) | _graph_numbers)
        edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, min(n, 9))}
        inside = st.integers(0, max(0, min(n, 13) - 1))
        extra = st.tuples(inside, st.integers(1, 3)).map(lambda e: (e[0], e[0] + e[1]))
        edges = sorted(edges | set(draw(st.lists(extra, max_size=2))))
        if edges and draw(st.integers(0, 2)) == 0:  # repeated, reversed, a loop, far
            u, v = draw(st.sampled_from(edges))
            bad = draw(st.sampled_from([(u, v), (v, u), (u, u), (-1, v), (u, 10**12)]))
            edges.insert(draw(st.integers(0, len(edges))), bad)
        m = len(edges) + draw(st.sampled_from([0, 0, 0, -1, 1]))
        lines = [f"p {n} {m}"] + [f"e {u} {v}" for u, v in edges]
        if draw(st.booleans()):
            lines.insert(draw(st.integers(0, len(lines))), "c comment")
        return "\n".join(lines) + "\n"
    if kind == "records":  # any record, any arity, any order
        record = st.tuples(
            st.sampled_from(["p", "e", "c", "q", ""]), st.lists(_graph_tokens, max_size=4)
        ).map(lambda r: " ".join([r[0], *r[1]]))
        return "\n".join(draw(st.lists(record, max_size=12)))
    return draw(st.text(max_size=40))


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=_graph_texts())
def test_fuzzed_graph_text_gives_exit_code_and_one_line(tmp_path, text):
    path = tmp_path / "fuzz.txt"
    path.write_text(text)
    for command in (["mis", "--count"], ["mis", "--list"], ["cover-from-graph"]):
        _one_line_run([*command, "--graph", str(path)])


@st.composite
def _expression_texts(draw):
    """Expression texts: well formed or not, unbalanced, long or deep."""
    kind = draw(st.sampled_from(["tokens", "deep", "chain", "raw"]))
    if kind == "tokens":
        return draw(st.text(alphabet="1111+*() 2x-", max_size=60))
    if kind == "deep":  # balanced or one parenthesis off
        depth = draw(st.integers(0, 3000))
        close = max(0, depth + draw(st.sampled_from([0, 0, -1, 1])))
        return "(" * depth + draw(st.sampled_from(["1", "1+1", "", "+"])) + ")" * close
    if kind == "chain":  # up to twice the 128-vertex cap
        return draw(st.sampled_from(["+", "", "*", ")("])).join(["1"] * draw(st.integers(1, 256)))
    return draw(st.text(max_size=40))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=_expression_texts())
def test_fuzzed_expression_gives_exit_code_and_one_line(text):
    # after "--", a text starting with "-" is the expression, not an option
    _one_line_run(["expr-graph", "--", text])


def test_missing_file_is_domain_error(capsys):
    assert run(["mis", "--count", "--graph", "/nonexistent/g.txt"]) == 1
    capsys.readouterr()


def test_stdout_determinism(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    write_graph_text(complete_graph(4), gpath)
    outputs = []
    for _ in range(2):
        assert run(["cover-from-graph", "--graph", str(gpath)]) == 0
        outputs.append(out_of(capsys))
    assert outputs[0] == outputs[1]


def test_verify_quick(capsys):
    import time

    t0 = time.perf_counter()
    assert run(["verify", "--level", "quick"]) == 0
    assert time.perf_counter() - t0 < 60
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines, "verify must print report lines"
    assert all(line.count("\t") == 4 for line in lines)
    assert all(line.endswith(("OK", "FAIL")) for line in lines)
    assert "0 disagreements" in err
    # stdout is byte-identical on a second run (timings stay on stderr)
    assert run(["verify", "--level", "quick"]) == 0
    again, _ = capsys.readouterr()
    assert again == out
