"""Edge-case tests for the text-table renderer in harness/report.py."""

from __future__ import annotations

from repro.harness.report import (
    CLASSIFICATION_COLUMNS,
    format_budget,
    render_classification,
    render_series_table,
    render_table,
)


class TestFormatBudget:
    def test_kib_multiples(self):
        assert format_budget(1024) == "1K"
        assert format_budget(64 * 1024) == "64K"

    def test_non_kib_values_stay_exact(self):
        assert format_budget(100) == "100"
        assert format_budget(1500) == "1500"
        assert format_budget(0) == "0K"  # 0 % 1024 == 0


class TestRenderTableEdgeCases:
    def test_empty_rows_render_header_only(self):
        text = render_table("Empty", ["a", "bb"], [])
        lines = text.splitlines()
        assert lines[0] == "Empty"
        assert lines[1] == "=" * len("Empty")
        assert lines[2].split() == ["a", "bb"]
        assert set(lines[3]) <= {"-", " "}
        assert len(lines) == 4

    def test_no_columns_at_all(self):
        assert render_table("Bare", [], []) == "Bare\n====\n\n"

    def test_short_rows_padded(self):
        text = render_table("T", ["x", "y", "z"], [[1], [1, 2, 3]])
        lines = text.splitlines()
        # Both data rows align to three columns; the short one pads with "".
        assert len(lines) == 6
        assert lines[4].rstrip() == "1"
        assert lines[5].split() == ["1", "2", "3"]

    def test_long_rows_grow_unnamed_columns(self):
        text = render_table("T", ["x"], [[1, 2, 3]])
        lines = text.splitlines()
        assert lines[-1].split() == ["1", "2", "3"]
        # The dashes rule covers all three columns, not just the named one.
        assert lines[3].count("-") >= 3

    def test_width_driven_by_widest_cell(self):
        text = render_table("T", ["c"], [["wide-value"], ["x"]])
        lines = text.splitlines()
        width = len("wide-value")
        assert lines[2] == "c".ljust(width)
        assert lines[3] == "-" * width
        assert lines[-1] == "x".rjust(width)

    def test_well_formed_tables_unchanged(self):
        """The ragged-input hardening must not alter regular tables."""
        text = render_table(
            "Accuracy", ["budget", "rate"], [["1K", "4.52"], ["64K", "2.31"]]
        )
        assert text == (
            "Accuracy\n"
            "========\n"
            "budget  rate\n"
            "------  ----\n"
            "    1K  4.52\n"
            "   64K  2.31"
        )


class TestRenderClassification:
    """The shared dry-run/scan table: one renderer, two callers."""

    def test_config_target_row(self):
        text = render_classification(
            "Dry run",
            [
                {
                    "target": "figure1",
                    "mode": "sweep",
                    "cells": 72,
                    "counts": {"completed": 70, "missing": 2},
                    "inferred": False,
                    "based_on": [],
                }
            ],
        )
        lines = text.splitlines()
        assert lines[2].split() == [
            "target", "mode", "cells", "completed", "results", "failed",
            "partial", "missing", "inferred", "based", "on",
        ]
        row = lines[4].split()
        assert row == ["figure1", "sweep", "72", "70", "0", "0", "0", "2", "no", "-"]

    def test_campaign_row_defaults_and_based_on(self):
        """Campaign rows omit inferred/based_on; inferred targets list
        their base configs comma-joined."""
        text = render_classification(
            "Scan",
            [
                {"target": "run", "mode": "campaign", "cells": 8, "counts": {}},
                {
                    "target": "f1i",
                    "mode": "inferred",
                    "cells": 4,
                    "counts": {"results_missing": 1, "failed": 1, "partial": 2},
                    "inferred": True,
                    "based_on": ["figure1", "figure5"],
                },
            ],
        )
        campaign_row, inferred_row = text.splitlines()[4:6]
        assert campaign_row.split() == ["run", "campaign", "8", "0", "0", "0", "0", "0", "no", "-"]
        assert inferred_row.split() == [
            "f1i", "inferred", "4", "0", "1", "1", "2", "0", "yes", "figure1,figure5",
        ]

    def test_columns_cover_all_campaign_classes(self):
        from repro.harness.campaign import CLASSES

        short = {"results_missing": "results"}
        for cls in CLASSES:
            assert short.get(cls, cls) in CLASSIFICATION_COLUMNS


class TestRenderSeriesTable:
    def test_missing_points_render_dash(self):
        text = render_series_table(
            "S",
            "budget",
            [1024, 2048],
            {"gshare": {1024: 4.5}, "bimodal": {1024: 6.0, 2048: 5.5}},
        )
        lines = text.splitlines()
        assert lines[2].split() == ["budget", "bimodal", "gshare"]
        assert lines[4].split() == ["1K", "6.00", "4.50"]
        assert lines[5].split() == ["2K", "5.50", "-"]

    def test_non_kib_budget_axis(self):
        text = render_series_table("S", "n", [100], {"s": {100: 1.0}})
        assert "100" in text.splitlines()[4]
