"""Golden-table reproduction."""

import pytest

from wtdesigns import InputError, reproduce
from wtdesigns.catalog import TABLE_IDS


def test_table_ids_frozen():
    assert TABLE_IDS == (
        "example1",
        "example5-scan",
        "recursive-counts",
        "q2-25run",
        "q2-49run",
        "info-matrix-D",
        "info-matrix-compare",
        "example7",
    )


def test_reproduce_unknown_table_lists_choices():
    with pytest.raises(InputError, match="example1"):
        reproduce("nope")


def test_reproduce_shift_table():
    rep = reproduce("example1")
    assert rep.ok
    assert not rep.failures
    assert "PASS" in rep.text
    assert len(rep.lines) >= 5


def test_reproduce_scan_table():
    assert reproduce("example5-scan").ok


def test_reproduce_model_tables():
    assert reproduce("info-matrix-D").ok
    assert reproduce("info-matrix-compare").ok


def test_reproduce_full_shift_scan():
    rep = reproduce("example7")
    assert rep.ok


def test_reproduce_comparison_tables():
    assert reproduce("q2-25run").ok
    assert reproduce("q2-49run").ok


def test_reproduce_counts_reports_known_middle_column_mismatch():
    # the faithful closure rule disagrees with the published middle column
    # in exactly six cells; the reproduction must say so rather than pass
    rep = reproduce("recursive-counts")
    assert not rep.ok
    assert len(rep.failures) == 6
    assert all("typeII" in f for f in rep.failures)
    got = {f.split(":")[0].strip() for f in rep.failures}
    assert got == {
        "q=5 n=3 typeII", "q=5 n=4 typeII",
        "q=7 n=3 typeII", "q=7 n=4 typeII",
        "q=7 n=5 typeII", "q=7 n=6 typeII",
    }

