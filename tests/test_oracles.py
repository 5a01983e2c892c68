import pytest

import miscover.covers
import miscover.oracles
from miscover import (
    CoverReport,
    Variant,
    count_mis,
    extremal_graph,
    max_partition_product,
    min_separating_sets,
)
from miscover.oracles import (
    _cover_witnesses,
    brute_complexity,
    brute_max_mis_count,
    brute_max_partition_product,
    brute_min_separating_sets,
    canonical_form,
    extremal_graphs_up_to_iso,
    run_verification,
)


def test_partition_search_examples():
    assert brute_max_partition_product(1) == 1
    assert brute_max_partition_product(4) == 4
    assert brute_max_partition_product(9) == 27
    with pytest.raises(ValueError):
        brute_max_partition_product(0)
    with pytest.raises(ValueError):
        brute_max_partition_product(46)


def test_graph_scan_examples():
    assert brute_max_mis_count(2) == 2
    assert brute_max_mis_count(4) == 4
    assert brute_max_mis_count(7) == 12
    with pytest.raises(ValueError):
        brute_max_mis_count(8)  # 2**28 graphs: over the cap
    with pytest.raises(ValueError):
        brute_max_mis_count(0)


def test_graph_scan_matches_closed_form():
    for n in range(1, 8):
        assert brute_max_mis_count(n) == max_partition_product(n)


def test_separating_search_examples():
    assert brute_min_separating_sets(1, "direct") == 1
    assert brute_min_separating_sets(2, "direct") == 2
    assert brute_min_separating_sets(4, "direct") == 4
    with pytest.raises(ValueError):
        brute_min_separating_sets(5, "direct")
    with pytest.raises(ValueError):
        brute_min_separating_sets(13, "reduction")
    with pytest.raises(ValueError):
        brute_min_separating_sets(3, "guess")


def test_separating_modes_agree():
    for m in range(1, 5):
        direct = brute_min_separating_sets(m, "direct")
        reduced = brute_min_separating_sets(m, "reduction")
        assert direct == reduced == min_separating_sets(m)


def test_separating_search_does_not_trust_the_validator(monkeypatch):
    # the direct search certifies validate_cover's answers, so it checks
    # each family itself: with a validator that calls every family valid it
    # still finds 1, 2, 3, 4 sets, not 1 for every m
    def valid(cover):
        return CoverReport(covering=True, separating=True)

    monkeypatch.setattr(miscover.covers, "validate_cover", valid)
    monkeypatch.setattr(miscover.oracles, "validate_cover", valid, raising=False)
    assert [brute_min_separating_sets(m, "direct") for m in range(1, 5)] == [1, 2, 3, 4]


def test_separating_reduction_matches_closed_form():
    for m in range(1, 13):
        assert brute_min_separating_sets(m, "reduction") == min_separating_sets(m)


def test_complexity_oracle_examples():
    assert brute_complexity(1) == 1
    assert brute_complexity(10) == 7
    assert brute_complexity(107) == 16
    with pytest.raises(ValueError):
        brute_complexity(501)


def test_duality_other_direction():
    # the largest m reachable with n sets is exactly the n-vertex maximum
    for n in range(1, 8):
        best = max(
            m
            for m in range(1, 13)
            if brute_min_separating_sets(m, "reduction") <= n
        )
        assert best == brute_max_mis_count(n)


def test_extremal_class_counts():
    assert len(extremal_graphs_up_to_iso(2)) == 1
    assert extremal_graphs_up_to_iso(2)[0].edge_count() == 1
    assert len(extremal_graphs_up_to_iso(6)) == 1
    assert len(extremal_graphs_up_to_iso(7)) == 2


def test_extremal_classes_match_constructions():
    for n in (2, 3, 5, 6):
        scanned = {canonical_form(g) for g in extremal_graphs_up_to_iso(n)}
        assert scanned == {canonical_form(extremal_graph(n))}
    scanned7 = {canonical_form(g) for g in extremal_graphs_up_to_iso(7)}
    built7 = {
        canonical_form(extremal_graph(7, v)) for v in (Variant.TWO_EDGES, Variant.K4)
    }
    assert scanned7 == built7


def test_canonical_form_is_isomorphism_invariant():
    from miscover import from_edges

    a = from_edges(4, [(0, 1), (2, 3)])
    b = from_edges(4, [(0, 2), (1, 3)])
    c = from_edges(4, [(0, 1), (1, 2)])
    assert canonical_form(a) == canonical_form(b) != canonical_form(c)
    with pytest.raises(ValueError):
        canonical_form(extremal_graph(9))


def test_scan_extremal_masks_have_extremal_counts():
    from miscover.oracles import _graph_from_edge_mask, _scan_all_graphs

    best, winners = _scan_all_graphs(5)
    assert best == max_partition_product(5)
    assert len(winners) >= 1
    for mask in winners[:50]:
        assert count_mis(_graph_from_edge_mask(5, mask)) == best


def test_run_verification_full_is_clean():
    reports = run_verification("full")
    assert all(r.agree for r in reports)
    assert any(
        r.quantity == "extremal-class-count" and r.input == "7" for r in reports
    )
    assert any(r.quantity == "complexity" and r.input == "500" for r in reports)
    assert [r.input for r in reports if r.quantity == "cover-witnesses"] == [
        str(m) for m in range(1, 244)
    ]


def test_cover_witnesses_report_a_count_shortfall(monkeypatch):
    assert _cover_witnesses(100) == 100
    monkeypatch.setattr(miscover.oracles, "count_mis", lambda g: 99)
    assert _cover_witnesses(100) == "count_mis 99 < 100 witnesses"


def test_run_verification_quick_is_clean():
    reports = run_verification("quick")
    assert all(r.agree for r in reports)
    assert {r.quantity for r in reports} >= {
        "partition-product",
        "max-mis-count",
        "separating-min/reduction",
        "separating-min/direct",
        "complexity",
        "max-m-with-n-sets",
        "extremal-canonical",
        "extremal-class-count",
    }
    line = reports[0].tsv_line()
    assert line.count("\t") == 4
    with pytest.raises(ValueError):
        run_verification("medium")
