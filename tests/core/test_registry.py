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


def _probe(compute, render=lambda rows, params: str(rows)):
    from repro.core.registry import Experiment

    return Experiment(
        name="_contract_probe", title="probe", kind="table",
        artefact="unused", description="execution-contract probe",
        params={"width": 3}, compute=compute, render=render)


class TestExecutionContract:
    """``Experiment.run`` is bind -> compute -> render: ``compute`` runs
    once, in process, at any worker width."""

    def test_compute_runs_once_in_process_at_two_workers(
            self, monkeypatch):
        import concurrent.futures

        def bomb(*args, **kwargs):
            raise AssertionError("ProcessPoolExecutor constructed for "
                                 "an experiment's compute")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            bomb)
        calls = []

        def compute(ctx, params):
            calls.append(os.getpid())
            return list(range(params["width"]))

        rendered = []

        def render(rows, params):
            rendered.append(rows)
            return "rows " + " ".join(map(str, rows))

        result = _probe(compute, render).run(RunContext(workers=2),
                                             width=4)
        assert calls == [os.getpid()]
        assert result.rows == [0, 1, 2, 3]
        assert rendered == [result.rows]
        assert result.text == "rows 0 1 2 3"
        assert result.params == {"width": 4}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_compute_exception_propagates_unchanged(self, workers):
        # The compute's own failure (an OSError included) surfaces as
        # is: nothing is retried, re-run, or rendered.
        error = FileNotFoundError("missing scene file")
        calls = []

        def compute(ctx, params):
            calls.append(1)
            raise error

        def render(rows, params):
            raise AssertionError("rendered after a failed compute")

        with pytest.raises(FileNotFoundError) as raised:
            _probe(compute, render).run(RunContext(workers=workers))
        assert raised.value is error
        assert calls == [1]

    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_context_reaches_compute_and_environ_is_untouched(
            self, workers, tmp_path, monkeypatch):
        from repro.core.scene_cache import ENV_KNOB

        monkeypatch.delenv(ENV_KNOB, raising=False)
        before = dict(os.environ)
        seen = []

        def compute(ctx, params):
            seen.append((ctx.workers, ctx.cache_dir, dict(os.environ)))
            return []

        _probe(compute).run(RunContext(workers=workers,
                                       cache_dir=str(tmp_path)))
        assert seen == [(workers, str(tmp_path), before)]
        assert dict(os.environ) == before


class TestPaperComputes:
    """The paper experiments' own ``compute`` loops: prepare once with
    the context's width and scene cache, then run every variant on the
    one prepared state, in order."""

    def test_table2_prepares_once_then_trains_every_variant(
            self, tmp_path, monkeypatch):
        from repro.core import experiments as E

        calls = []
        prep = object()

        def prepare(**kwargs):
            calls.append(("prepare", kwargs))
            return prep

        def unit(kind, prep, **kwargs):
            calls.append((kind, prep))
            return [kind]

        monkeypatch.setattr(E, "_table2_prepare", prepare)
        monkeypatch.setattr(E, "_table2_unit", unit)
        experiment = get_experiment("table2")
        ctx = RunContext(workers=3, cache_dir=str(tmp_path))
        rows = experiment.compute(ctx, experiment.bind(ctx, {}))
        assert rows == list(E.TABLE2_VARIANTS)
        (_, kwargs), *units = calls
        assert kwargs["workers"] == 3
        assert kwargs["cache"].directory == str(tmp_path)
        assert units == [(kind, prep) for kind in E.TABLE2_VARIANTS]

    def test_table3_prepares_every_view_count_first(self, tmp_path,
                                                    monkeypatch):
        from repro.core import experiments as E

        calls = []

        def prepare(views, **kwargs):
            calls.append(("prepare", views, kwargs))
            return ("prep", views)

        def unit(method, views, prep, **kwargs):
            calls.append((method, views, prep))
            return method

        monkeypatch.setattr(E, "_table3_prepare", prepare)
        monkeypatch.setattr(E, "_table3_unit", unit)
        experiment = get_experiment("table3")
        ctx = RunContext(workers=3, cache_dir=str(tmp_path))
        params = experiment.bind(ctx, {})
        experiment.compute(ctx, params)
        views = list(params["view_counts"])
        prepares = calls[:len(views)]
        assert [call[1] for call in prepares] == views
        assert all(call[2]["workers"] == 3
                   and call[2]["cache"].directory == str(tmp_path)
                   for call in prepares)
        assert calls[len(views):] == [
            (method, count, ("prep", count))
            for count in views for method in E.TABLE3_METHODS]

    @pytest.mark.parametrize("workers", [None, 1, 3])
    def test_serve_replay_forwards_workers_and_cache_dir(
            self, workers, tmp_path, monkeypatch):
        from repro.core import serve as S

        calls = []
        monkeypatch.setattr(S, "_serve_replay_unit",
                            lambda **kwargs: calls.append(kwargs))
        experiment = get_experiment("serve_replay")
        ctx = RunContext(workers=workers, cache_dir=str(tmp_path))
        params = experiment.bind(ctx, {})
        experiment.compute(ctx, params)
        assert [(c["level"], c["burst"]) for c in calls] == \
            [(level, False) for level in params["levels"]] \
            + [(params["burst_clients"], True)]
        assert all(c["workers"] == workers
                   and c["cache_dir"] == str(tmp_path) for c in calls)


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
