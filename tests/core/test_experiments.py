"""Experiment registry smoke tests (fast configurations).

Full paper-scale regeneration lives in ``benchmarks/``; here each
experiment runs with reduced knobs and its output structure is checked.
"""

import pytest

from repro import core
from repro.core import RunContext, get_experiment


def _rows(name, workers=None, **overrides):
    return get_experiment(name).run(RunContext(workers=workers),
                                    **overrides).rows


class TestCheapRunners:
    def test_table1_rows(self):
        rows = _rows("table1")
        assert len(rows) == 5
        names = [row[0] for row in rows]
        assert "Total" in names

    def test_fig2_structure(self):
        results = _rows("fig2")
        assert set(results) == {"rtx2080ti", "tx2"}
        llff = results["rtx2080ti"]["llff"]
        assert llff["acquire_features"] > 0
        assert llff["total"] >= llff["acquire_features"]

    def test_table4_rows(self):
        rows = _rows("table4")
        devices = [row["device"] for row in rows]
        assert any("simulated" in d for d in devices)
        assert any("ICARUS" in d for d in devices)
        simulated = rows[0]
        assert simulated["typical_fps"] > 1.0


class TestFig9Small:
    def test_curve_structure_and_ordering(self):
        results = _rows("fig9", datasets=("nerf_synthetic",), step=8,
                        image_scale=1 / 12, pairs=((8, 16),),
                        uniform_points=(24,))
        curves = results["nerf_synthetic"]
        gen = curves["gen_nerf"][0]
        ibr = curves["ibrnet"][0]
        assert abs(gen.avg_points - ibr.avg_points) < 6
        assert gen.psnr > ibr.psnr   # the paper's headline ordering
        assert gen.mflops_per_pixel < ibr.mflops_per_pixel * 1.2


class TestAblationRunners:
    def test_coarse_budget_rows(self):
        rows = _rows("ablation_coarse_budget", image_scale=1 / 16, step=8,
                     coarse_counts=(8,), taus=(1e-3,), focused=16)
        assert len(rows) == 1
        assert rows[0]["psnr"] > 20

    def test_patch_candidate_rows(self):
        rows = _rows("ablation_patch_candidates")
        assert len(rows) >= 3
        assert all(row["fps"] > 0 for row in rows)


@pytest.mark.slow
class TestTrainingRunners:
    def test_table2_tiny(self):
        rows = _rows("table2", train_steps=12, eval_step=16,
                     image_scale=1 / 16, num_points=12,
                     scenes=("fortress",), num_source_views=4)
        methods = [row.method for row in rows]
        assert "vanilla IBRNet" in methods
        assert any("Ray-Mixer" in m for m in methods)
        assert len(rows) == 7

    def test_table3_tiny(self):
        rows = _rows("table3", train_steps=10, finetune_steps=4,
                     eval_step=16, image_scale=1 / 16, num_points=10,
                     view_counts=(4,))
        assert len(rows) == 2
        assert all(row.per_scene for row in rows)


# ----------------------------------------------------------------------
# Multi-process variant fan-out
# ----------------------------------------------------------------------
def _square(value):          # module-level so process pools can pickle it
    return value * value


def _square_chunk(payload, value):
    return value * value


def _slow_identity(value, delay):
    import time

    time.sleep(delay)
    return value


def _touch_marker(path):
    with open(path, "a") as handle:
        handle.write("ran\n")


def _raise_oserror():
    raise FileNotFoundError("missing scene file")


class TestVariantRunner:
    def test_sequential_and_parallel_agree(self):
        tasks = [(_square, {"value": v}) for v in range(5)]
        sequential = core.run_variants(tasks, workers=1)
        parallel = core.run_variants(tasks, workers=3)
        assert sequential == [0, 1, 4, 9, 16]
        assert parallel == sequential

    def test_result_order_is_task_order_not_completion_order(self):
        # The first task finishes last; results must still come back in
        # submission order.
        tasks = [(_slow_identity, {"value": 0, "delay": 0.4}),
                 (_slow_identity, {"value": 1, "delay": 0.0}),
                 (_slow_identity, {"value": 2, "delay": 0.0})]
        assert core.run_variants(tasks, workers=3) == [0, 1, 2]

    def test_unit_exceptions_propagate(self):
        def boom():
            raise RuntimeError("unit failure")

        with pytest.raises(RuntimeError, match="unit failure"):
            core.run_variants([(boom, {})], workers=1)

    def test_unit_oserror_propagates_without_sequential_rerun(self,
                                                              tmp_path):
        # A unit raising an OSError subclass is a *unit* failure, not a
        # pool failure: it must propagate from the parallel path and
        # must not trigger the sequential fallback (which would quietly
        # re-run every — potentially hours-long — unit).  The marker
        # file counts how often the healthy unit executed.
        marker = str(tmp_path / "ran")
        with pytest.raises(FileNotFoundError, match="missing scene"):
            core.run_variants([(_touch_marker, {"path": marker}),
                               (_raise_oserror, {})], workers=2)
        with open(marker) as handle:
            assert len(handle.readlines()) == 1

    @pytest.mark.parametrize("scope", ["run_variants", "frame_pool"])
    def test_blocked_process_spawning_falls_back_sequentially(
            self, monkeypatch, scope):
        # Worker processes spawn lazily inside ``submit``; a sandbox
        # that blocks process creation surfaces a PermissionError there
        # and the executor must fall back to the sequential path instead
        # of crashing the harness.
        import concurrent.futures

        def blocked_submit(self, fn, *args, **kwargs):
            raise PermissionError("process spawning blocked")

        monkeypatch.setattr(
            concurrent.futures.ProcessPoolExecutor, "submit",
            blocked_submit)
        if scope == "run_variants":
            tasks = [(_square, {"value": v}) for v in range(3)]
            assert core.run_variants(tasks, workers=2) == [0, 1, 4]
        else:
            tasks = [(v,) for v in range(3)]
            assert core.map_chunks(_square_chunk, (), tasks,
                                   workers=2) == [0, 1, 4]


@pytest.mark.slow
class TestParallelFigureHarness:
    """The acceptance property: table2/table3 rows are byte-identical
    whether the variant units run in one process or a pool."""

    @staticmethod
    def _as_tuples(rows):
        return [(row.method, row.mflops_per_pixel,
                 sorted(row.per_scene.items())) for row in rows]

    def test_table2_rows_identical_across_runners(self):
        kwargs = dict(train_steps=6, eval_step=16, image_scale=1 / 16,
                      num_points=10, scenes=("fortress",),
                      num_source_views=4)
        sequential = _rows("table2", workers=1, **kwargs)
        parallel = _rows("table2", workers=3, **kwargs)
        assert self._as_tuples(sequential) == self._as_tuples(parallel)

    def test_table3_rows_identical_across_runners(self):
        kwargs = dict(train_steps=5, finetune_steps=3, eval_step=16,
                      image_scale=1 / 16, num_points=10, view_counts=(4,))
        sequential = _rows("table3", workers=1, **kwargs)
        parallel = _rows("table3", workers=2, **kwargs)
        assert self._as_tuples(sequential) == self._as_tuples(parallel)

    def test_fig9_curves_identical_across_runners(self):
        kwargs = dict(datasets=("nerf_synthetic", "llff"), step=16,
                      image_scale=1 / 16, pairs=((4, 8),),
                      uniform_points=(12,), reference_points=64)
        sequential = _rows("fig9", workers=1, **kwargs)
        parallel = _rows("fig9", workers=2, **kwargs)
        assert list(sequential) == list(parallel)
        for dataset in sequential:
            for curve in ("gen_nerf", "ibrnet"):
                seq_pts = sequential[dataset][curve]
                par_pts = parallel[dataset][curve]
                assert [(p.label, p.avg_points, p.mflops_per_pixel, p.psnr)
                        for p in seq_pts] \
                    == [(p.label, p.avg_points, p.mflops_per_pixel, p.psnr)
                        for p in par_pts]

    def test_fig11_rows_identical_across_runners(self):
        kwargs = dict(view_counts=(6, 2), point_counts=(96,))
        sequential = _rows("fig11", workers=1, **kwargs)
        parallel = _rows("fig11", workers=3, **kwargs)
        assert sequential == parallel
        assert [row["num_views"] for row in sequential["views"]] == [6, 2]
        assert [row["points_per_ray"]
                for row in sequential["points"]] == [96]
