"""Shared hardware constants.

Frequencies, byte widths, and the energy-per-operation table used by the
energy model.  Energy constants are calibrated at the paper's 28 nm node
(Sec. 5.1) so that module-level power reproduces Table 1; the
calibration test lives in ``tests/hardware/test_area_power.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

GHZ = 1e9
MHZ = 1e6
KB = 1024
MB = 1024 * 1024
GB_PER_S = 1e9

ACCELERATOR_FREQ_HZ = 1.0 * GHZ        # paper Sec. 5.1: synthesised at 1 GHz
INT8_BYTES = 1
FP16_BYTES = 2
FP32_BYTES = 4


@dataclass(frozen=True)
class EnergyTable:
    """Energy per operation (picojoules), 28 nm class.

    Values follow the commonly used Horowitz-style scaling (8-bit ops,
    SRAM/DRAM access costs per byte) adjusted so the simulated module
    powers match the paper's Table 1 under the typical workload.
    """

    mac_int8_pj: float = 0.23
    mac_fp16_pj: float = 1.1
    sram_read_pj_per_byte: float = 0.65
    sram_write_pj_per_byte: float = 0.75
    dram_pj_per_byte: float = 42.0       # LPDDR4-class access energy
    special_func_pj: float = 0.9         # exp / divide on the SFU PE line
    register_pj: float = 0.03


DEFAULT_ENERGY = EnergyTable()
