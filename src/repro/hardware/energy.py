"""Module power view of the accelerator's energy.

The paper reports energy two ways: the *dynamic event energy* — MACs,
SRAM/DRAM bytes and SFU ops priced by
:class:`repro.hardware.units.EnergyTable`, which the frame simulator
integrates (:meth:`repro.hardware.GenNerfAccelerator.simulate_frame`) —
and the *module power view* here: Table 1's per-module typical power,
used for the power column of Table 4.
"""

from __future__ import annotations

from .area_power import full_chip_budget


def typical_chip_power_w() -> float:
    """Table-1-calibrated typical power of the whole accelerator (W)."""
    return full_chip_budget()["total"].power_mw / 1000.0
