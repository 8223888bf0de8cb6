"""CLI smoke tests: ``python -m repro`` list / run / sweep / batch."""

import json

import pytest

from repro.cli import main
from repro.core.registry import experiment_names


class TestList:
    def test_lists_every_registered_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in experiment_names():
            assert name in out
        assert "benchmarks/results" in out


class TestRun:
    def test_run_prints_artefact_text(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1 — Gen-NeRF hardware module area/power" in out
        assert "Workload Scheduler" in out

    def test_unknown_name_fails_with_listing(self, capsys):
        assert main(["run", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "table1" in err

    def test_write_lands_in_results_dir(self, tmp_path, capsys):
        assert main(["run", "table1", "--write",
                     "--results-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        path = tmp_path / "table1_area_power.txt"
        assert path.is_file()
        assert path.read_text().rstrip("\n") in captured.out
        assert str(path) in captured.err

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "list" in capsys.readouterr().out

    def test_malformed_workers_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "table1", "--workers", "44x"])
        assert "invalid int value" in capsys.readouterr().err

    def test_workers_flag_reaches_the_run_context(self, monkeypatch,
                                                  capsys):
        from repro.core.registry import Experiment

        seen = []
        real_run = Experiment.run

        def recording_run(self, ctx=None, **overrides):
            seen.append(ctx.workers)
            return real_run(self, ctx, **overrides)

        monkeypatch.setattr(Experiment, "run", recording_run)
        assert main(["run", "table1", "--workers", "2"]) == 0
        assert main(["run", "table1"]) == 0
        capsys.readouterr()
        assert seen == [2, None]

    def test_cache_dir_flag_does_not_leak_into_environ(self, tmp_path,
                                                       monkeypatch):
        import os

        from repro.core.scene_cache import ENV_KNOB

        monkeypatch.delenv(ENV_KNOB, raising=False)
        assert main(["run", "table1",
                     "--cache-dir", str(tmp_path)]) == 0
        assert ENV_KNOB not in os.environ
        monkeypatch.setenv(ENV_KNOB, "previous")
        assert main(["run", "table1",
                     "--cache-dir", str(tmp_path)]) == 0
        assert os.environ[ENV_KNOB] == "previous"


class TestSweep:
    def test_two_point_sweep(self, capsys):
        assert main(["sweep", "dataset=deepvoxels", "views=2", "points=8",
                     "variant=ours,var1"]) == 0
        out = capsys.readouterr().out
        assert "Registry sweep — 2 grid point(s)" in out
        assert "Var-1" not in out            # variant key, not config name
        assert "var1" in out and "ours" in out

    def test_bad_grid_token_fails(self, capsys):
        assert main(["sweep", "bogus=1"]) == 2
        assert "bad grid token" in capsys.readouterr().err
        assert main(["sweep", "views=,"]) == 2       # empty axis
        assert "bad grid token" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--scale", "0.1"),
                                             ("--workers", "2")])
    def test_sweep_rejects_flags_it_cannot_honour(self, capsys, flag,
                                                 value):
        # sweep has no scale rules and runs its grid in process; these
        # flags must be usage errors, not silently ignored.
        with pytest.raises(SystemExit):
            main(["sweep", "views=2", flag, value])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sweep_out_writes_artifact(self, tmp_path, capsys):
        assert main(["sweep", "dataset=deepvoxels", "views=1", "points=8",
                     "--out", "sweep_smoke",
                     "--results-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        path = tmp_path / "sweep_smoke.txt"
        assert path.is_file()
        text = path.read_text()
        assert "Registry sweep — 1 grid point(s)" in text
        assert text.rstrip("\n") in out


class TestBatch:
    def _jobs_dir(self, tmp_path):
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        (jobs / "good.json").write_text(
            json.dumps({"experiment": "table1"}))
        (jobs / "broken.json").write_text('{"experiment": ')
        return jobs

    def test_batch_quarantines_and_exits_zero(self, tmp_path, capsys):
        jobs = self._jobs_dir(tmp_path)
        assert main(["batch", str(jobs)]) == 0
        captured = capsys.readouterr()
        assert "completed 1  skipped 0  quarantined 1" in captured.out
        assert (jobs / "out" / "good.txt").is_file()
        assert (jobs / "out" / "errors" / "broken.report.txt").is_file()
        assert "batch_summary.txt" in captured.err     # [wrote ...] note

    def test_strict_flag_fails_on_quarantine(self, tmp_path, capsys):
        jobs = self._jobs_dir(tmp_path)
        assert main(["batch", str(jobs), "--strict"]) == 1
        capsys.readouterr()
        # A clean re-run (everything skipped, nothing quarantined)
        # passes --strict: the broken spec was quarantined, so remove
        # it as its report instructs.
        (jobs / "broken.json").unlink()
        assert main(["batch", str(jobs), "--strict"]) == 0
        assert "skipped 1" in capsys.readouterr().out

    def test_missing_jobs_dir_is_a_usage_error(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path / "absent")]) == 2
        assert "jobs directory not found" in capsys.readouterr().err

    def test_out_flag_redirects_artefacts(self, tmp_path, capsys):
        jobs = self._jobs_dir(tmp_path)
        out = tmp_path / "elsewhere"
        assert main(["batch", str(jobs), "--out", str(out)]) == 0
        capsys.readouterr()
        assert (out / "good.txt").is_file()
        assert not (jobs / "out").exists()

    def test_workers_flag_reaches_the_batch_context(self, tmp_path,
                                                    monkeypatch, capsys):
        import repro.cli as cli

        seen = []
        real_run_batch = cli.run_batch

        def recording_run_batch(jobs_dir, ctx, **kwargs):
            seen.append(ctx.workers)
            return real_run_batch(jobs_dir, ctx=ctx, **kwargs)

        monkeypatch.setattr(cli, "run_batch", recording_run_batch)
        jobs = self._jobs_dir(tmp_path)
        assert main(["batch", str(jobs), "--workers", "2"]) == 0
        capsys.readouterr()
        assert seen == [2]


class TestRemovedFlags:
    # The per-task timeout and retry budget are pool settings, set only
    # through REPRO_TASK_TIMEOUT / REPRO_RETRIES; no subcommand takes
    # them as flags.
    @pytest.mark.parametrize("command", [["run", "table1"],
                                         ["batch", "jobs"]])
    @pytest.mark.parametrize("flag", ["--task-timeout", "--retries"])
    def test_flag_is_a_usage_error(self, capsys, command, flag):
        with pytest.raises(SystemExit):
            main([*command, flag, "2"])
        assert "unrecognized arguments" in capsys.readouterr().err
