"""Batched frame simulation pinned bit-identical to the seed loop.

The vectorised ``GenNerfAccelerator.simulate_frame`` (one grouped array
pass over all patches) must reproduce the preserved per-patch Python
loop (``repro.perf.reference.simulate_frame_loop``) **exactly** — same
floats, same ints, same booleans — because the figure/table artefacts
regenerated from it are committed and diffed byte-for-byte.

Layers are pinned bottom-up: batched rectangle bank loads per layout,
batched DRAM service, batched engine compute, then whole-frame
simulations across patch counts (including a single patch and an
800x800-scale plan), all Fig. 12 ablation variants, and every dataset
preset's camera rig (forward-facing and orbit) at reduced resolution.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.pipeline import hardware_rig
from repro.hardware import (DramModel, FeatureStore, FootprintRegion,
                            GenNerfAccelerator, LAYOUTS, RenderingEngine,
                            balance_factor, bank_load_for_footprints,
                            variant_config)
from repro.hardware.interleave import (balance_factors, batched_bank_load,
                                       regions_as_array)
from repro.hardware.scheduler import FramePlan
from repro.models.workload import typical_workload
from repro.perf.reference import simulate_frame_loop
from repro.scenes.datasets import DATASETS, DatasetSpec

SMALL_SPEC = DatasetSpec("small", width=128, height=96, fov_x_deg=50.0,
                         near=2.0, far=6.0, rig="orbit", rig_distance=4.0)

SIM_FIELDS = ("total_time_s", "data_time_s", "fetch_time_s",
              "compute_time_s", "coarse_time_s", "prefetch_bytes",
              "pool_macs", "pe_utilization", "num_patches", "energy_j",
              "scheduler_hidden")


def assert_simulations_identical(fast, loop):
    for name in SIM_FIELDS:
        assert getattr(fast, name) == getattr(loop, name), name


def random_regions(rng, store, count):
    regions = []
    for _ in range(count):
        view = int(rng.integers(0, store.num_views))
        row0 = int(rng.integers(0, store.height))
        col0 = int(rng.integers(0, store.width))
        row1 = int(rng.integers(row0, store.height + 1))
        col1 = int(rng.integers(col0, store.width + 1))
        regions.append(FootprintRegion(view=view, row0=row0, row1=row1,
                                       col0=col0, col1=col1))
    return regions


# ----------------------------------------------------------------------
# Layer 1: batched bank loads
# ----------------------------------------------------------------------
class TestBatchedBankLoads:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("num_banks", [8, 16])
    def test_rectangle_loads_match_scalar(self, layout, num_banks):
        rng = np.random.default_rng(LAYOUTS.index(layout) * 31 + num_banks)
        store = FeatureStore(num_views=5, height=37, width=29, channels=16,
                             layout=layout)
        regions = random_regions(rng, store, 200)
        # Degenerate rectangles (empty row/col spans) must load nothing.
        regions.append(FootprintRegion(view=1, row0=5, row1=5, col0=2,
                                       col1=9))
        regions.append(FootprintRegion(view=0, row0=3, row1=8, col0=4,
                                       col1=4))
        batched_loads, batched_acts = store.rectangle_bank_load_batched(
            regions_as_array(regions), num_banks)
        for index, region in enumerate(regions):
            loads, acts = store.rectangle_bank_load(region, num_banks)
            np.testing.assert_array_equal(batched_loads[index], loads)
            np.testing.assert_array_equal(batched_acts[index], acts)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_grouped_loads_match_footprint_aggregation(self, layout):
        rng = np.random.default_rng(7)
        store = FeatureStore(num_views=4, height=33, width=41, channels=8,
                             layout=layout)
        groups = [random_regions(rng, store, int(rng.integers(1, 7)))
                  for _ in range(40)]
        flat = regions_as_array([fp for group in groups for fp in group])
        counts = np.array([len(group) for group in groups])
        group_bytes, group_acts = batched_bank_load(store, flat, counts, 8)
        for index, group in enumerate(groups):
            ref_bytes, ref_acts = bank_load_for_footprints(store, group, 8)
            np.testing.assert_array_equal(group_bytes[index], ref_bytes)
            np.testing.assert_array_equal(group_acts[index], ref_acts)

    def test_balance_factors_match_scalar(self):
        rng = np.random.default_rng(11)
        loads = rng.integers(0, 2000, size=(50, 16)).astype(np.float64)
        loads[7] = 0.0   # empty patch -> balance 1.0 by convention
        batched = balance_factors(loads)
        for index in range(loads.shape[0]):
            assert batched[index] == balance_factor(loads[index])

    def test_empty_inputs(self):
        store = FeatureStore(num_views=2, height=8, width=8, channels=4)
        loads, acts = store.rectangle_bank_load_batched(
            np.zeros((0, 5), dtype=np.int64), 8)
        assert loads.shape == (0, 8) and acts.shape == (0, 8)
        group_bytes, group_acts = batched_bank_load(
            store, np.zeros((0, 5), dtype=np.int64), np.zeros(0, np.int64),
            8)
        assert group_bytes.shape == (0, 8) and group_acts.shape == (0, 8)


# ----------------------------------------------------------------------
# Layer 2: batched DRAM service
# ----------------------------------------------------------------------
class TestBatchedDramService:
    def test_service_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        model = DramModel()
        per_bank_bytes = rng.integers(0, 65536, size=(64, 8)) \
            .astype(np.float64)
        per_bank_acts = rng.integers(0, 40, size=(64, 8))
        batch = model.service_batch(per_bank_bytes, per_bank_acts)
        for index in range(64):
            stats = model.service(per_bank_bytes[index],
                                  per_bank_acts[index])
            assert batch.service_time_s[index] == stats.service_time_s
            assert batch.energy_pj[index] == stats.energy_pj
            assert batch.bytes_transferred[index] == stats.bytes_transferred
            assert batch.row_activations[index] == stats.row_activations


# ----------------------------------------------------------------------
# Layer 3: batched engine compute
# ----------------------------------------------------------------------
class TestBatchedPatchCompute:
    @pytest.mark.parametrize("ray_module", ["mixer", "transformer", "none"])
    def test_patch_compute_batch_matches_scalar(self, ray_module):
        rng = np.random.default_rng(5)
        workload = replace(typical_workload(96, 128, 4),
                           ray_module=ray_module)
        num_points = rng.integers(1, 40000, size=48)
        num_rays = rng.integers(0, 1500, size=48)
        balances = rng.random(48) * 0.999 + 1e-3
        batch = RenderingEngine().patch_compute_batch(
            workload, num_points, num_rays, balances)
        scalar_engine = RenderingEngine()
        for index in range(48):
            scalar = scalar_engine.patch_compute(
                workload, int(num_points[index]), int(num_rays[index]),
                sram_balance=float(balances[index]))
            assert batch.ppu_cycles[index] == scalar.ppu_cycles
            assert batch.pool_cycles[index] == scalar.pool_cycles
            assert batch.sfu_cycles[index] == scalar.sfu_cycles
            assert batch.pool_macs[index] == scalar.pool_macs
            assert batch.cycles[index] == scalar.cycles

    def test_coarse_stage_matches_scalar(self):
        workload = typical_workload(96, 128, 4)
        points = np.array([1, 7, 900, 12345])
        batch = RenderingEngine().patch_compute_batch(
            workload, points, np.zeros(4, np.int64), np.ones(4),
            coarse_stage=True)
        scalar_engine = RenderingEngine()
        for index, value in enumerate(points.tolist()):
            scalar = scalar_engine.patch_compute(workload, value, 0,
                                                 coarse_stage=True)
            assert batch.cycles[index] == scalar.cycles
            assert batch.pool_macs[index] == scalar.pool_macs


# ----------------------------------------------------------------------
# Layer 4: whole frames
# ----------------------------------------------------------------------
def subplan(plan: FramePlan, num_patches: int) -> FramePlan:
    patches = plan.patches[:num_patches]
    return FramePlan(patches=patches,
                     total_prefetch_bytes=sum(p.prefetch_bytes
                                              for p in patches),
                     candidate_histogram=plan.candidate_histogram,
                     image_height=plan.image_height,
                     image_width=plan.image_width,
                     depth_bins=plan.depth_bins)


class TestFrameEquivalence:
    @pytest.fixture(scope="class")
    def rig(self):
        return hardware_rig(SMALL_SPEC, num_views=4, seed=0)

    @pytest.fixture(scope="class")
    def workload(self):
        return typical_workload(height=96, width=128, num_views=4)

    @pytest.fixture(scope="class")
    def plan(self, rig, workload):
        return GenNerfAccelerator().plan_frame(rig.novel, rig.sources,
                                               rig.near, rig.far, workload)

    @pytest.mark.parametrize("num_patches", [1, 3, 17])
    def test_sliced_plans_bit_identical(self, rig, workload, plan,
                                        num_patches):
        shared = subplan(plan, num_patches)
        fast = GenNerfAccelerator().simulate_frame(
            workload, rig.novel, rig.sources, rig.near, rig.far,
            plan=shared)
        loop = simulate_frame_loop(
            GenNerfAccelerator(), workload, rig.novel, rig.sources,
            rig.near, rig.far, plan=shared)
        assert fast.num_patches == num_patches
        assert_simulations_identical(fast, loop)

    @pytest.mark.parametrize("variant", ["ours", "var1", "var2", "var3"])
    def test_variants_bit_identical(self, rig, workload, variant):
        fast = GenNerfAccelerator(variant_config(variant)).simulate_frame(
            workload, rig.novel, rig.sources, rig.near, rig.far)
        loop = simulate_frame_loop(
            GenNerfAccelerator(variant_config(variant)), workload,
            rig.novel, rig.sources, rig.near, rig.far)
        assert_simulations_identical(fast, loop)

    @pytest.mark.parametrize("ray_module", ["transformer", "none"])
    def test_other_ray_modules_bit_identical(self, rig, ray_module):
        workload = replace(typical_workload(96, 128, 4),
                           ray_module=ray_module)
        fast = GenNerfAccelerator().simulate_frame(
            workload, rig.novel, rig.sources, rig.near, rig.far)
        loop = simulate_frame_loop(GenNerfAccelerator(), workload,
                                   rig.novel, rig.sources, rig.near,
                                   rig.far)
        assert_simulations_identical(fast, loop)

    def test_no_coarse_stage_bit_identical(self, rig):
        workload = replace(typical_workload(96, 128, 4), coarse_points=0)
        fast = GenNerfAccelerator().simulate_frame(
            workload, rig.novel, rig.sources, rig.near, rig.far)
        loop = simulate_frame_loop(GenNerfAccelerator(), workload,
                                   rig.novel, rig.sources, rig.near,
                                   rig.far)
        assert fast.coarse_time_s == 0.0
        assert_simulations_identical(fast, loop)

    def test_warm_engine_cache_reused_across_frames(self, rig, workload,
                                                    plan):
        # The scalar path memoises patch compute per engine instance and
        # the batched path must honour the same cache (first-occurrence
        # value wins); running both paths back to back on one
        # accelerator therefore still matches a fresh loop run.
        accelerator = GenNerfAccelerator()
        first = accelerator.simulate_frame(workload, rig.novel,
                                           rig.sources, rig.near, rig.far,
                                           plan=plan)
        warm = accelerator.simulate_frame(workload, rig.novel, rig.sources,
                                          rig.near, rig.far, plan=plan)
        loop = simulate_frame_loop(GenNerfAccelerator(), workload,
                                   rig.novel, rig.sources, rig.near,
                                   rig.far, plan=plan)
        assert_simulations_identical(first, loop)
        assert_simulations_identical(warm, loop)


class TestDatasetRigEquivalence:
    """One bank-load -> DRAM service -> engine compute pass per frame
    must match the seed loop on every preset's rig geometry, not just
    the small orbit rig above: forward-facing rigs (LLFF, Thicket)
    give the scheduler very different footprints."""

    @pytest.fixture(scope="class")
    def rigs(self):
        out = {}
        for name, spec in DATASETS.items():
            small = replace(spec, width=spec.width // 8,
                            height=spec.height // 8)
            out[name] = hardware_rig(small, num_views=6, seed=0)
        return out

    @staticmethod
    def _check(rig, config, workload):
        fast = GenNerfAccelerator(config).simulate_frame(
            workload, rig.novel, rig.sources, rig.near, rig.far)
        loop = simulate_frame_loop(GenNerfAccelerator(config), workload,
                                   rig.novel, rig.sources, rig.near,
                                   rig.far)
        assert fast.num_patches > 1
        assert_simulations_identical(fast, loop)

    @pytest.mark.parametrize("variant", ["ours", "var1", "var2", "var3"])
    @pytest.mark.parametrize("dataset", list(DATASETS))
    def test_variants_bit_identical(self, rigs, dataset, variant):
        rig = rigs[dataset]
        spec = DATASETS[dataset]
        workload = typical_workload(height=spec.height // 8,
                                    width=spec.width // 8, num_views=6)
        self._check(rig, variant_config(variant), workload)

    @pytest.mark.parametrize("ray_module", ["transformer", "none"])
    @pytest.mark.parametrize("dataset", list(DATASETS))
    def test_other_ray_modules_bit_identical(self, rigs, dataset,
                                             ray_module):
        rig = rigs[dataset]
        spec = DATASETS[dataset]
        workload = replace(typical_workload(height=spec.height // 8,
                                            width=spec.width // 8,
                                            num_views=6),
                           ray_module=ray_module)
        self._check(rig, variant_config("ours"), workload)


@pytest.mark.slow
def test_paper_scale_plan_bit_identical():
    """The acceptance-scale check: a real 800x800 NeRF-Synthetic frame
    plan (6 source views, ~10^4 patches) simulated bit-identically by
    the batched pass and the seed loop."""
    spec = DATASETS["nerf_synthetic"]
    rig = hardware_rig(spec, num_views=6, seed=0)
    workload = typical_workload(height=spec.height, width=spec.width,
                                num_views=6)
    plan = GenNerfAccelerator().plan_frame(rig.novel, rig.sources, rig.near,
                                           rig.far, workload)
    assert plan.num_patches > 1000
    fast = GenNerfAccelerator().simulate_frame(
        workload, rig.novel, rig.sources, rig.near, rig.far, plan=plan)
    loop = simulate_frame_loop(GenNerfAccelerator(), workload, rig.novel,
                               rig.sources, rig.near, rig.far, plan=plan)
    assert_simulations_identical(fast, loop)
