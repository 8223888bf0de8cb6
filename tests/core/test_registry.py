"""Experiment-registry round-trip suite.

Every registered experiment must list and declare a committed
artefact.  The cheap experiments additionally pin the registry's
rendered text byte-identical to the committed artefacts.
"""

import os

import pytest

from repro import core
from repro.core.context import RunContext
from repro.core.registry import (all_experiments, experiment_names,
                                 get_experiment)

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                         "..", ".."))
RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results")

EXPECTED = ["table1", "fig2", "fig9", "table2", "table3", "fig10",
            "fig11", "table4", "fig12", "ablation_coarse_budget",
            "ablation_patch_candidates", "serve_replay",
            "occupancy_profile"]


def _read_cache_knob():
    import os

    from repro.core.scene_cache import ENV_KNOB

    return os.environ.get(ENV_KNOB)


class TestRegistryShape:
    def test_all_paper_experiments_registered(self):
        assert experiment_names() == EXPECTED

    def test_every_experiment_declares_a_committed_artefact(self):
        for experiment in all_experiments():
            path = os.path.join(RESULTS_DIR, f"{experiment.artefact}.txt")
            assert os.path.isfile(path), \
                f"{experiment.name}: missing artefact {path}"

    def test_lookup_and_error_path(self):
        assert get_experiment("table1").name == "table1"
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("nope")

    def test_unknown_override_rejected(self):
        with pytest.raises(KeyError, match="unknown parameter"):
            get_experiment("table1").run(not_a_param=1)

    def test_context_seed_overrides_seed_param(self):
        experiment = get_experiment("fig10")
        params = experiment.bind(RunContext(seed=7), {})
        assert params["seed"] == 7
        # Explicit overrides beat the context.
        params = experiment.bind(RunContext(seed=7), {"seed": 3})
        assert params["seed"] == 3

    def test_run_honours_context_cache_dir(self, tmp_path, monkeypatch):
        # ctx.cache_dir must reach the units via the exported env knob
        # for the duration of the run — programmatic callers get the
        # disk cache without touching os.environ — and the previous env
        # value must be restored afterwards.
        import os

        from repro.core.registry import Experiment
        from repro.core.scene_cache import ENV_KNOB

        probe = Experiment(
            name="knob-probe", title="probe", kind="table",
            artefact="unused", description="reads the exported knob",
            params={},
            units=lambda ctx, params, shared: [(_read_cache_knob, {})],
            reduce=lambda results, params: results[0],
            render=lambda rows, params: str(rows))
        monkeypatch.delenv(ENV_KNOB, raising=False)
        result = probe.run(RunContext(cache_dir=str(tmp_path)))
        assert result.rows == str(tmp_path)
        assert ENV_KNOB not in os.environ
        monkeypatch.setenv(ENV_KNOB, "previous")
        probe.run(RunContext(cache_dir=str(tmp_path)))
        assert os.environ[ENV_KNOB] == "previous"

    def test_scale_rules_clamp_at_floor(self):
        experiment = get_experiment("table2")
        params = experiment.bind(RunContext(scale=0.1), {})
        assert params["train_steps"] == 30       # 300 * 0.1
        params = experiment.bind(RunContext(scale=0.001), {})
        assert params["train_steps"] == 6        # the floor
        # scale=1 keeps the committed-artefact configuration.
        assert experiment.bind(RunContext(), {}) == dict(experiment.params)


class TestArtefactByteIdentity:
    """The registry's render path reproduces the committed artefacts
    byte for byte (the cheap ones here; training/figure-scale ones are
    covered by the ``benchmarks/`` harnesses regenerating with zero
    drift)."""

    @pytest.mark.parametrize("name", ["table1", "fig2"])
    def test_fast_artefacts_identical(self, name):
        experiment = get_experiment(name)
        committed = open(os.path.join(
            RESULTS_DIR, f"{experiment.artefact}.txt")).read()
        assert experiment.run().text + "\n" == committed

    @pytest.mark.slow
    @pytest.mark.parametrize("name", ["ablation_patch_candidates",
                                      "table4", "fig10", "fig11",
                                      "fig12", "fig9",
                                      "ablation_coarse_budget"])
    def test_hardware_artefacts_identical(self, name):
        experiment = get_experiment(name)
        committed = open(os.path.join(
            RESULTS_DIR, f"{experiment.artefact}.txt")).read()
        assert experiment.run().text + "\n" == committed


class TestRenderAndRegenerate:
    def test_render_contains_title_and_rows(self):
        result = get_experiment("table1").run()
        assert "Table 1 — Gen-NeRF hardware module area/power" \
            in result.text
        assert "Workload Scheduler" in result.text

    def test_regenerate_writes_artefact_elsewhere(self, tmp_path):
        ctx = RunContext(results_dir=str(tmp_path))
        result, path = get_experiment("table1").regenerate(ctx)
        assert path == str(tmp_path / "table1_area_power.txt")
        assert open(path).read() == result.text + "\n"


class _PrepareProbe:
    """The shared state of the contract probe: counts its prepares."""

    calls = 0

    def __init__(self):
        type(self).calls += 1


def _probe_unit(index, prep):
    return index, prep


class TestExecutionContract:
    """Every experiment runs prepare once, then its units in process —
    at any worker width."""

    @pytest.fixture()
    def probe(self):
        from repro.core.registry import Experiment

        _PrepareProbe.calls = 0
        return Experiment(
            name="_contract_probe", title="probe", kind="table",
            artefact="unused", description="execution-contract probe",
            params={"width": 3},
            prepare=lambda ctx, params: _PrepareProbe(),
            units=lambda ctx, params, shared: [
                (_probe_unit, {"index": index, "prep": shared})
                for index in range(params["width"])],
            reduce=lambda results, params: results,
            render=lambda rows, params: str(len(rows)))

    def test_prepare_once_units_in_process_at_two_workers(
            self, probe, monkeypatch):
        import concurrent.futures

        def bomb(*args, **kwargs):
            raise AssertionError("ProcessPoolExecutor constructed for "
                                 "experiment units")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            bomb)
        rows = probe.run(RunContext(workers=2)).rows
        assert _PrepareProbe.calls == 1
        assert [index for index, _ in rows] == [0, 1, 2]
        shared = rows[0][1]
        assert isinstance(shared, _PrepareProbe)
        assert all(prep is shared for _, prep in rows)

    def test_unit_exception_propagates_unchanged(self, probe):
        from repro.core.registry import Experiment

        error = FileNotFoundError("missing scene file")

        def failing_unit(prep):
            raise error

        failing = Experiment(
            name="_contract_fail", title="probe", kind="table",
            artefact="unused", description="raises from a unit",
            params={}, prepare=probe.prepare,
            units=lambda ctx, params, shared: [(failing_unit,
                                                {"prep": shared})],
            reduce=lambda results, params: results,
            render=lambda rows, params: "never rendered")
        with pytest.raises(FileNotFoundError) as raised:
            failing.run(RunContext(workers=2))
        assert raised.value is error
        assert _PrepareProbe.calls == 1

    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_prepare_hook_sees_context_workers(self, workers):
        # ctx.workers reaches the hooks that shard their own work.
        from repro.core.registry import Experiment

        seen = []
        probe = Experiment(
            name="_contract_width", title="probe", kind="table",
            artefact="unused", description="records the hook's width",
            params={},
            prepare=lambda ctx, params: seen.append(ctx.workers),
            units=lambda ctx, params, shared: [],
            reduce=lambda results, params: results,
            render=lambda rows, params: "")
        probe.run(RunContext(workers=workers))
        assert seen == [workers]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unit_oserror_stops_the_run_without_rerun(self, workers):
        # A unit's OSError is the unit's own failure: units before it
        # ran exactly once, units after it never run, and nothing is
        # retried or re-run sequentially.
        from repro.core.registry import Experiment

        ran = []

        def healthy(index):
            ran.append(index)
            return index

        def missing():
            raise FileNotFoundError("missing scene file")

        failing = Experiment(
            name="_contract_oserror", title="probe", kind="table",
            artefact="unused", description="raises mid-ladder",
            params={},
            units=lambda ctx, params, shared: [
                (healthy, {"index": 0}), (missing, {}),
                (healthy, {"index": 2})],
            reduce=lambda results, params: results,
            render=lambda rows, params: "never rendered")
        with pytest.raises(FileNotFoundError, match="missing scene"):
            failing.run(RunContext(workers=workers))
        assert ran == [0]

    def test_experiment_without_prepare_hands_units_none(self):
        from repro.core.registry import Experiment

        received = []
        plain = Experiment(
            name="_contract_plain", title="probe", kind="table",
            artefact="unused", description="no prepare hook",
            params={},
            units=lambda ctx, params, shared: received.append(shared)
            or [(_probe_unit, {"index": 0, "prep": shared})],
            reduce=lambda results, params: results,
            render=lambda rows, params: str(rows))
        assert plain.run(RunContext(workers=2)).rows == [(0, None)]
        assert received == [None]

    def test_cache_dir_exported_while_prepare_runs(self, tmp_path,
                                                   monkeypatch):
        import os

        from repro.core.registry import Experiment
        from repro.core.scene_cache import ENV_KNOB

        probe = Experiment(
            name="_contract_cache", title="probe", kind="table",
            artefact="unused", description="reads the knob in prepare",
            params={},
            prepare=lambda ctx, params: _read_cache_knob(),
            units=lambda ctx, params, shared: [(_probe_unit,
                                                {"index": 0,
                                                 "prep": shared})],
            reduce=lambda results, params: results[0][1],
            render=lambda rows, params: str(rows))
        monkeypatch.delenv(ENV_KNOB, raising=False)
        assert probe.run(RunContext(cache_dir=str(tmp_path))).rows \
            == str(tmp_path)
        assert ENV_KNOB not in os.environ


class TestPaperHooks:
    """The paper experiments' own hooks: the prepare hooks forward
    ``ctx.workers`` to the source-view renders, and every unit of a
    ladder receives the one prepared state."""

    @pytest.mark.parametrize("name", ["table2", "table3"])
    def test_prepare_hook_forwards_context_workers(self, name,
                                                   monkeypatch):
        from repro.core import experiments as E

        calls = []
        target = f"_{name}_prepare"
        monkeypatch.setattr(E, target,
                            lambda **kwargs: calls.append(kwargs))
        experiment = get_experiment(name)
        ctx = RunContext(workers=3)
        experiment.prepare(ctx, experiment.bind(ctx, {}))
        assert calls
        assert all(kwargs["workers"] == 3 for kwargs in calls)
        if name == "table3":
            assert [kwargs["views"] for kwargs in calls] \
                == list(experiment.params["view_counts"])

    def test_table2_units_share_one_prep(self):
        from repro.core import experiments as E

        experiment = get_experiment("table2")
        ctx = RunContext()
        shared = object()
        tasks = experiment.units(ctx, experiment.bind(ctx, {}), shared)
        assert [kwargs["kind"] for _, kwargs in tasks] \
            == list(E.TABLE2_VARIANTS)
        assert all(kwargs["prep"] is shared for _, kwargs in tasks)

    def test_table3_units_share_their_view_count_prep(self):
        experiment = get_experiment("table3")
        ctx = RunContext()
        params = experiment.bind(ctx, {})
        shared = {views: object() for views in params["view_counts"]}
        tasks = experiment.units(ctx, params, shared)
        assert len(tasks) == 2 * len(params["view_counts"])
        assert all(kwargs["prep"] is shared[kwargs["views"]]
                   for _, kwargs in tasks)

    @pytest.mark.parametrize("workers", [None, 1, 3])
    def test_serve_replay_units_forward_context_workers(self, workers):
        experiment = get_experiment("serve_replay")
        ctx = RunContext(workers=workers)
        tasks = experiment.units(ctx, experiment.bind(ctx, {}), None)
        assert len(tasks) == len(experiment.params["levels"]) + 1
        assert all(kwargs["workers"] == workers for _, kwargs in tasks)


class TestSweep:
    def test_parse_grid_defaults_and_overrides(self):
        from repro.core.registry import parse_sweep_grid

        grid = parse_sweep_grid(["views=2,6", "variant=ours,var1"])
        assert grid["views"] == (2, 6)
        assert grid["variant"] == ("ours", "var1")
        assert grid["dataset"] == ("nerf_synthetic",)
        assert grid["points"] == (64,)

    @pytest.mark.parametrize("token", ["bogus=1", "views=", "views=,",
                                       "views=x", "views=-2",
                                       "dataset=unknown", "variant=var9"])
    def test_parse_grid_rejects_bad_tokens(self, token):
        from repro.core.registry import parse_sweep_grid

        with pytest.raises(ValueError):
            parse_sweep_grid([token])

    def test_two_point_sweep_rows_and_text(self):
        rows, text = core.run_sweep(
            {"dataset": ("deepvoxels",), "views": (2,), "points": (8,),
             "variant": ("ours", "var1")},
            RunContext(workers=1))
        assert [row["variant"] for row in rows] == ["ours", "var1"]
        assert all(row["gen_nerf_fps"] > 0 for row in rows)
        assert "Registry sweep — 2 grid point(s)" in text
        assert "deepvoxels" in text
