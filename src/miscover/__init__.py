"""Maximal independent sets, separating covers, and integer complexity.

One chain of equalities ties this library together: the largest product
of positive integers summing to n equals the largest number of maximal
independent sets an n-vertex graph can carry, its left inverse is the
minimum size of a separating cover, and the same quantity caps the
integers expressible with n ones.  Every closed form ships next to a
brute-force oracle and an explicit construction attaining it.

``import miscover`` loads none of the submodules: each public name below
is imported from its submodule on first use (PEP 562), so a caller, or a
CLI command, pays only for the modules it actually runs.
"""

import importlib

__version__ = "0.1.0"

# each public name, by the submodule that defines it
_EXPORTS = {
    "closedforms": (
        "max_partition_product",
        "max_with_ones",
        "min_separating_sets",
        "perrin",
    ),
    "complexity": (
        "ComplexityTable",
        "complexity_csv",
        "complexity_table",
        "graph_from_expression",
        "minimal_expression",
    ),
    "covers": (
        "CoverReport",
        "CoverValidationError",
        "SeparatingCover",
        "cover_from_graph",
        "cover_from_json",
        "cover_to_json",
        "graph_from_cover",
        "minimal_cover",
        "read_cover_json",
        "validate_cover",
        "write_cover_json",
    ),
    "expressions": (
        "Expression",
        "ExpressionSyntaxError",
        "add",
        "format_expression",
        "mul",
        "one",
        "parse_expression",
    ),
    "graphs": (
        "COUNT_MEMO_BUDGET",
        "DEFAULT_MIS_CAP",
        "MAX_VERTICES",
        "CountBudgetError",
        "Graph",
        "MisCapError",
        "Variant",
        "VertexSet",
        "closed_neighborhood",
        "complete_graph",
        "count_mis",
        "cycle_graph",
        "delete_vertices",
        "disjoint_union",
        "enumerate_mis",
        "extremal_graph",
        "from_edges",
        "graph_from_text",
        "graph_to_text",
        "induced_subgraph",
        "is_independent",
        "is_maximal_independent",
        "join",
        "read_graph_text",
        "write_graph_text",
    ),
    "oracles": (
        "OracleReport",
        "brute_complexity",
        "brute_max_mis_count",
        "brute_max_partition_product",
        "brute_mis_masks",
        "brute_min_separating_sets",
        "canonical_form",
        "extremal_graphs_up_to_iso",
        "greedy_mis_witnesses",
        "run_verification",
    ),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_SUBMODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, e.g. miscover.graphs after import miscover
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SUBMODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
