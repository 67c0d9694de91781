"""The paper-reference tables and scorecard."""

import pytest

from repro.analysis.paper_refs import (
    PAPER_CROSSOVER_YEARS,
    PAPER_EXHAUSTIVE_COMBINATIONS,
    PAPER_TABLE1_HOUSTON,
    PAPER_TABLE2_BERKELEY,
    evaluate_paper_rows,
    reproduction_scorecard,
)
from repro.core.fastsim import BatchEvaluator
from repro.core.parameterspace import PAPER_SPACE


class TestPaperReferences:
    def test_reference_tables_embodied_consistency(self):
        """The stored paper rows must be self-consistent with the paper's
        embodied constants (a transcription check)."""
        from repro.core.embodied import embodied_carbon_tonnes

        for row in (*PAPER_TABLE1_HOUSTON, *PAPER_TABLE2_BERKELEY):
            assert embodied_carbon_tonnes(row.composition) == pytest.approx(
                row.embodied_tco2, abs=0.5
            )

    def test_constants(self):
        assert PAPER_EXHAUSTIVE_COMBINATIONS == len(PAPER_SPACE)
        assert set(PAPER_CROSSOVER_YEARS) == {"houston", "berkeley"}

    def test_evaluate_paper_rows(self, houston):
        pairs = evaluate_paper_rows(PAPER_TABLE1_HOUSTON, BatchEvaluator(houston))
        assert len(pairs) == 5
        for row, measured in pairs:
            # Embodied must match exactly; operational within a factor.
            assert measured.embodied_tonnes == pytest.approx(row.embodied_tco2, abs=0.5)
        baseline_row, baseline_measured = pairs[0]
        assert baseline_measured.operational_tco2_per_day == pytest.approx(
            baseline_row.operational_tco2_day, abs=0.2
        )

    def test_scorecard_renders(self, houston):
        text = reproduction_scorecard(
            PAPER_TABLE1_HOUSTON, BatchEvaluator(houston), site_label="houston"
        )
        assert "scorecard (houston)" in text
        assert "operational ordering preserved: True" in text
        # All embodied cells exact.
        assert "!" not in text.split("\n", 2)[2]

    def test_ordering_preserved_berkeley(self, berkeley):
        text = reproduction_scorecard(PAPER_TABLE2_BERKELEY, BatchEvaluator(berkeley))
        assert "operational ordering preserved: True" in text
