"""SRAM, double buffer, PPU, SFU, and unit-helper tests."""

import numpy as np
import pytest

from repro.hardware import (KB, PrefetchDoubleBuffer, PreprocessingUnit,
                            SfuConfig, SpecialFunctionUnit, SramBank,
                            SramConfig)
from repro.hardware.preprocessing import PreprocessingConfig


class TestSram:
    def test_write_cycles_scale_with_bytes(self):
        bank = SramBank(SramConfig())
        assert bank.write_cycles(2048) == 2 * bank.write_cycles(1024)

    def test_imbalance_slows_access(self):
        bank = SramBank(SramConfig())
        assert bank.read_cycles(1024, balance=0.25) \
            == 4 * bank.read_cycles(1024, balance=1.0)

    def test_fits(self):
        bank = SramBank(SramConfig(capacity_bytes=1024))
        assert bank.fits(1024) and not bank.fits(1025)


class TestDoubleBuffer:
    def test_pipeline_perfect_overlap(self):
        """When compute dominates, fetches are fully hidden."""
        fetch = np.full(10, 1.0)
        compute = np.full(10, 5.0)
        total, busy = PrefetchDoubleBuffer.pipeline_time(fetch, compute)
        assert np.isclose(total, 1.0 + 10 * 5.0)
        assert np.isclose(busy, 50.0)

    def test_pipeline_memory_bound(self):
        fetch = np.full(10, 5.0)
        compute = np.full(10, 1.0)
        total, busy = PrefetchDoubleBuffer.pipeline_time(fetch, compute)
        assert np.isclose(total, 5.0 + 9 * 5.0 + 1.0)

    def test_single_patch(self):
        total, busy = PrefetchDoubleBuffer.pipeline_time(
            np.array([2.0]), np.array([3.0]))
        assert np.isclose(total, 5.0)

    def test_empty(self):
        total, busy = PrefetchDoubleBuffer.pipeline_time(np.array([]),
                                                         np.array([]))
        assert total == 0.0 and busy == 0.0

    def test_validates_shapes(self):
        with pytest.raises(ValueError):
            PrefetchDoubleBuffer.pipeline_time(np.ones(3), np.ones(4))

    def test_state_swap(self):
        buffer = PrefetchDoubleBuffer()
        filling = buffer.state.filling
        buffer.state.swap()
        assert buffer.state.draining == filling


class TestPreprocessingUnit:
    def test_stage_cycles_scale(self):
        ppu = PreprocessingUnit()
        assert ppu.sampling_cycles(2000) == 2 * ppu.sampling_cycles(1000)
        assert ppu.projection_cycles(1000, 8) \
            == 2 * ppu.projection_cycles(1000, 4)

    def test_interpolation_sram_throttled(self):
        ppu = PreprocessingUnit()
        fast = ppu.interpolation_cycles(4096, 6, 32, sram_balance=1.0)
        slow = ppu.interpolation_cycles(4096, 6, 32, sram_balance=0.1)
        assert slow > 2 * fast

    def test_patch_cycles_is_slowest_stage(self):
        ppu = PreprocessingUnit()
        total = ppu.cycles_for_patch(4096, 6, 32)
        stages = (ppu.sampling_cycles(4096),
                  ppu.projection_cycles(4096, 6),
                  ppu.interpolation_cycles(4096, 6, 32))
        assert np.isclose(total, max(stages))


class TestSfu:
    def test_throughput(self):
        sfu = SpecialFunctionUnit(SfuConfig(lanes=16))
        thousand = sfu.cycles_for_points(1000)
        two_thousand = sfu.cycles_for_points(2000)
        assert two_thousand < 2.1 * thousand
        assert sfu.ops_for_points(10) == 10 * (2 + 4)


class TestUnits:
    def test_byte_units(self):
        assert KB == 1024
