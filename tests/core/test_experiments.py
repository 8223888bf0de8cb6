"""Experiment registry smoke tests (fast configurations).

Full paper-scale regeneration lives in ``benchmarks/``; here each
experiment runs with reduced knobs and its output structure is checked.
"""

import pytest

from repro.core import RunContext, get_experiment


def _rows(name, **overrides):
    return get_experiment(name).run(RunContext(), **overrides).rows


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


@pytest.mark.slow
class TestWorkerWidthInvariance:
    """Rows are byte-identical whether the work an experiment shards
    (source-view renders of scene preparation, serve dispatches) runs
    in process or on the frame pool."""

    @staticmethod
    def _rows_at(name, workers, **overrides):
        from repro.core.context import clear_scene_memos

        # Drop the memoised scenes so each width renders them anew.
        clear_scene_memos()
        try:
            ctx = RunContext(workers=workers, cache_dir="off")
            return get_experiment(name).run(ctx, **overrides).rows
        finally:
            clear_scene_memos()

    @staticmethod
    def _as_tuples(rows):
        return [(row.method, row.mflops_per_pixel,
                 sorted(row.per_scene.items())) for row in rows]

    def test_table2_rows_identical_across_widths(self):
        kwargs = dict(train_steps=6, eval_step=16, image_scale=1 / 16,
                      num_points=10, scenes=("fortress",),
                      num_source_views=4)
        sequential = self._rows_at("table2", 1, **kwargs)
        sharded = self._rows_at("table2", 2, **kwargs)
        assert self._as_tuples(sequential) == self._as_tuples(sharded)

    def test_table3_rows_identical_across_widths(self):
        kwargs = dict(train_steps=5, finetune_steps=3, eval_step=16,
                      image_scale=1 / 16, num_points=10, view_counts=(4,))
        sequential = self._rows_at("table3", 1, **kwargs)
        sharded = self._rows_at("table3", 2, **kwargs)
        assert self._as_tuples(sequential) == self._as_tuples(sharded)

    def test_serve_replay_rows_identical_across_widths(self):
        kwargs = dict(levels=(1, 4), requests_per_client=1,
                      burst_clients=4)
        sequential = self._rows_at("serve_replay", 1, **kwargs)
        sharded = self._rows_at("serve_replay", 2, **kwargs)
        assert sequential == sharded
        assert len(sequential) == 3
