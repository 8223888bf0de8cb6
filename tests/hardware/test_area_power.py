"""Area/power component model vs paper Table 1."""

import pytest

from repro.hardware.area_power import (PAPER_TABLE1, full_chip_budget,
                                       prefetch_buffer_budget,
                                       preprocessing_unit_budget,
                                       rendering_engine_budget,
                                       workload_scheduler_budget)
from repro.hardware.energy import typical_chip_power_w


class TestTable1Calibration:
    @pytest.mark.parametrize("key", ["scheduler", "ppu", "engine",
                                     "prefetch", "total"])
    def test_area_within_tolerance(self, key):
        budget = full_chip_budget()[key]
        paper_area, _ = PAPER_TABLE1[key]
        assert abs(budget.area_mm2 - paper_area) <= 0.10 * paper_area

    @pytest.mark.parametrize("key", ["scheduler", "ppu", "engine",
                                     "prefetch", "total"])
    def test_power_within_tolerance(self, key):
        budget = full_chip_budget()[key]
        _, paper_power = PAPER_TABLE1[key]
        assert abs(budget.power_mw - paper_power) <= 0.10 * paper_power

    def test_engine_dominates(self):
        budget = full_chip_budget()
        assert budget["engine"].area_mm2 > 0.7 * budget["total"].area_mm2

    def test_total_is_sum(self):
        budget = full_chip_budget()
        parts = sum(budget[k].area_mm2
                    for k in ("scheduler", "ppu", "engine", "prefetch"))
        assert abs(parts - budget["total"].area_mm2) < 1e-9


class TestEnergy:
    def test_typical_power_near_paper(self):
        """Table 4: 9.7 W typical."""
        power = typical_chip_power_w()
        assert 8.5 < power < 10.5
