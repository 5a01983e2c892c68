"""The public ``miscover`` namespace, whose names load from submodules on first use."""

import copy
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import miscover

PUBLIC = {
    "closedforms": [
        "max_partition_product", "max_with_ones", "min_separating_sets", "perrin",
    ],
    "complexity": [
        "ComplexityTable", "complexity_csv", "complexity_table",
        "graph_from_expression", "minimal_expression",
    ],
    "covers": [
        "CoverReport", "CoverValidationError", "SeparatingCover", "cover_from_graph",
        "cover_from_json", "cover_to_json", "graph_from_cover", "minimal_cover",
        "read_cover_json", "validate_cover", "write_cover_json",
    ],
    "expressions": [
        "Expression", "ExpressionSyntaxError", "add", "format_expression", "mul",
        "one", "parse_expression",
    ],
    "graphs": [
        "COUNT_MEMO_BUDGET", "DEFAULT_MIS_CAP", "MAX_VERTICES", "CountBudgetError",
        "Graph", "MisCapError", "Variant", "VertexSet", "closed_neighborhood",
        "complete_graph", "count_mis", "cycle_graph", "delete_vertices",
        "disjoint_union", "enumerate_mis", "extremal_graph", "from_edges",
        "graph_from_text", "graph_to_text", "induced_subgraph", "is_independent",
        "is_maximal_independent", "join", "read_graph_text", "write_graph_text",
    ],
    "oracles": [
        "OracleReport", "brute_complexity", "brute_max_mis_count",
        "brute_max_partition_product", "brute_mis_masks",
        "brute_min_separating_sets", "canonical_form", "extremal_graphs_up_to_iso",
        "greedy_mis_witnesses", "run_verification",
    ],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)


def test_public_names_are_the_62_of_each_submodule():
    assert len(NAMES) == 62
    assert sorted(miscover.__all__) == NAMES
    for module, names in PUBLIC.items():
        defining = importlib.import_module(f"miscover.{module}")
        for name in names:
            assert getattr(miscover, name) is getattr(defining, name), name
    assert set(NAMES) <= set(dir(miscover))
    assert miscover.__version__ == "0.1.0"


def test_every_exported_error_is_a_value_error():
    # cli.run reports a ValueError as one line with exit code 1; an exported
    # error outside that family would reach the user as a traceback
    exported = [getattr(miscover, name) for name in NAMES]
    errors = [obj for obj in exported if isinstance(obj, type) and issubclass(obj, BaseException)]
    assert [e.__name__ for e in errors] == [
        "CountBudgetError", "CoverValidationError", "ExpressionSyntaxError", "MisCapError",
    ]
    for error in errors:
        assert issubclass(error, ValueError), error


def test_every_exported_error_survives_pickle_and_copy():
    # a process pool returns errors pickled; each is rebuilt with its
    # message and attributes, not with its message passed back as argument
    errors = [
        miscover.CountBudgetError(7),
        miscover.CoverValidationError(miscover.CoverReport(False, False, 2, (0, 2))),
        miscover.CoverValidationError(miscover.CoverReport(True, False, None, (0, 1))),
        miscover.ExpressionSyntaxError(3, "bad: unexpected ')'"),
        miscover.MisCapError(5),
    ]
    assert sorted({type(e).__name__ for e in errors}) == [
        name for name in NAMES if name.endswith("Error")
    ]
    for error in errors:
        for clone in (pickle.loads(pickle.dumps(error)), copy.copy(error)):
            assert type(clone) is type(error)
            assert str(clone) == str(error)
            assert vars(clone) == vars(error)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from miscover import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        miscover.no_such_name
    assert not hasattr(miscover, "_csv_blocks")  # private names stay in their module


def test_submodules_resolve_after_a_bare_import():
    env = dict(os.environ, PYTHONPATH=str(Path(miscover.__file__).parents[1]))
    code = "import miscover; print(miscover.graphs.count_mis(miscover.cycle_graph(10)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (0, "17\n"), proc.stderr
