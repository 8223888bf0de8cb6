"""Unit tests for the perf-regression harness's comparison machinery.

PR 1 shipped the harness before any baseline existed, so the
``previous_mean_s`` / ``regression_pct`` fields were never exercised
end-to-end.  These tests feed it synthetic prior JSON files and pin:
the second run populates the comparison fields, a >25% slowdown fails
loudly (exit code 1) without replacing the baseline it failed against,
and malformed priors are ignored rather than crashing the run.
"""

import json

import numpy as np
import pytest

from benchmarks import harness


def _fake_bench():
    """A bench whose 'vectorised' path is trivially fast and stable."""
    x = np.arange(64)
    return (lambda: x.sum()), None


@pytest.fixture()
def fake_benches(monkeypatch):
    monkeypatch.setattr(harness, "BENCHES", {"fake_bench": _fake_bench})


@pytest.fixture()
def steady_timer(monkeypatch):
    """Every bench times at exactly 1 ms, so back-to-back runs compare
    at 0% and never trip the gate."""
    monkeypatch.setattr(harness, "_time",
                        lambda func, rounds=5, min_total_s=0.2: 1e-3)


class TestCompareToPrevious:
    def test_no_prior_entry(self):
        assert harness.compare_to_previous(1.0, None) is None

    def test_malformed_prior_entry(self):
        assert harness.compare_to_previous(1.0, {"mean_s": None}) is None
        assert harness.compare_to_previous(1.0, {"mean_s": 0.0}) is None
        assert harness.compare_to_previous(1.0, {"other": 2.0}) is None
        assert harness.compare_to_previous(1.0, "not-a-dict") is None

    def test_regression_percentage(self):
        assert harness.compare_to_previous(1.5, {"mean_s": 1.0}) \
            == pytest.approx(50.0)
        assert harness.compare_to_previous(0.5, {"mean_s": 1.0}) \
            == pytest.approx(-50.0)


class TestTimeIsMedianOfRounds:
    """``_time`` must discard a warmup round and report the median —
    not the best — of the measured rounds, so one lucky (or stalled)
    round cannot move ``regression_pct``."""

    def _scripted_time(self, monkeypatch, durations):
        # Each func() call advances the fake clock by the next scripted
        # duration; perf_counter() reads it.
        state = {"now": 0.0, "queue": list(durations)}

        def fake_perf_counter():
            return state["now"]

        calls = {"n": 0}

        def func():
            calls["n"] += 1
            if state["queue"]:
                state["now"] += state["queue"].pop(0)
            else:
                state["now"] += durations[-1]

        monkeypatch.setattr(harness.time, "perf_counter", fake_perf_counter)
        return func, calls

    def test_median_not_best(self, monkeypatch):
        # Calls: 1 cache warmup, 1 calibration, then 1 warmup round +
        # 5 measured rounds (min_total_s=0 -> one call per round).
        # Measured rounds: [5, 9, 1, 9, 9] -> median 9, best 1.
        durations = [1.0, 1.0, 7.0, 5.0, 9.0, 1.0, 9.0, 9.0]
        func, _ = self._scripted_time(monkeypatch, durations)
        assert harness._time(func, rounds=5, min_total_s=0.0) == 9.0

    def test_warmup_round_is_discarded(self, monkeypatch):
        # The slow 100s round lands in the warmup slot and must not
        # contaminate the median of [2, 2, 2].
        durations = [1.0, 1.0, 100.0, 2.0, 2.0, 2.0]
        func, _ = self._scripted_time(monkeypatch, durations)
        assert harness._time(func, rounds=3, min_total_s=0.0) == 2.0

    def test_even_round_count_averages_middle_pair(self, monkeypatch):
        durations = [1.0, 1.0, 1.0, 2.0, 4.0]
        func, _ = self._scripted_time(monkeypatch, durations)
        assert harness._time(func, rounds=2, min_total_s=0.0) == 3.0


class TestRunComparison:
    def test_first_run_has_no_previous(self, fake_benches, tmp_path):
        result = tmp_path / "bench.json"
        code = harness.run(strict=True, result_path=str(result), rounds=1,
                           min_total_s=0.0)
        assert code == 0
        data = json.loads(result.read_text())
        entry = data["benches"]["fake_bench"]
        assert entry["previous_mean_s"] is None
        assert entry["regression_pct"] is None

    def test_second_run_populates_comparison(self, fake_benches,
                                             steady_timer, tmp_path):
        result = tmp_path / "bench.json"
        harness.run(strict=True, result_path=str(result), rounds=1,
                    min_total_s=0.0)
        # A steady timer: a regressed run would (rightly) not rewrite
        # the file; this test pins the *comparison fields*, the
        # strictness tests below pin the exit codes.
        assert harness.run(strict=True, result_path=str(result),
                           rounds=1, min_total_s=0.0) == 0
        entry = json.loads(result.read_text())["benches"]["fake_bench"]
        assert entry["previous_mean_s"] is not None
        assert entry["regression_pct"] is not None

    def test_large_regression_fails_loudly(self, fake_benches, tmp_path,
                                           capsys):
        result = tmp_path / "bench.json"
        synthetic = {"schema_version": 1, "generated_unix": 0.0,
                     "benches": {"fake_bench": {"mean_s": 1e-12}}}
        result.write_text(json.dumps(synthetic))
        code = harness.run(strict=True, result_path=str(result), rounds=1,
                           min_total_s=0.0)
        assert code == 1                      # >25% slower than the prior
        assert "REGRESSION: fake_bench slowed by" in capsys.readouterr().err

    @pytest.mark.parametrize("strict", [True, False])
    def test_regressed_run_keeps_the_baseline(self, fake_benches, tmp_path,
                                              capsys, strict):
        # A failing run must not become the next baseline: the file
        # stays byte-identical, and an immediate rerun still reports
        # the same regression instead of passing against it.
        result = tmp_path / "bench.json"
        synthetic = {"schema_version": 1, "generated_unix": 0.0,
                     "benches": {"fake_bench": {"mean_s": 1e-12}}}
        result.write_text(json.dumps(synthetic))
        before = result.read_bytes()
        for _ in range(2):
            code = harness.run(strict=strict, result_path=str(result),
                               rounds=1, min_total_s=0.0)
            assert code == (1 if strict else 0)
            assert result.read_bytes() == before
            err = capsys.readouterr().err
            assert "REGRESSION: fake_bench slowed by" in err
            assert "baseline kept" in err

    def test_no_strict_reports_without_failing(self, fake_benches, tmp_path):
        result = tmp_path / "bench.json"
        synthetic = {"schema_version": 1, "generated_unix": 0.0,
                     "benches": {"fake_bench": {"mean_s": 1e-12}}}
        result.write_text(json.dumps(synthetic))
        assert harness.run(strict=False, result_path=str(result), rounds=1,
                           min_total_s=0.0) == 0

    def test_huge_prior_counts_as_improvement(self, fake_benches, tmp_path):
        result = tmp_path / "bench.json"
        synthetic = {"schema_version": 1, "generated_unix": 0.0,
                     "benches": {"fake_bench": {"mean_s": 1e9}}}
        result.write_text(json.dumps(synthetic))
        assert harness.run(strict=True, result_path=str(result), rounds=1,
                           min_total_s=0.0) == 0
        entry = json.loads(result.read_text())["benches"]["fake_bench"]
        assert entry["regression_pct"] < 0

    def test_unreadable_prior_is_ignored(self, fake_benches, tmp_path):
        result = tmp_path / "bench.json"
        result.write_text("{not json")
        assert harness.run(strict=True, result_path=str(result), rounds=1,
                           min_total_s=0.0) == 0

    def test_partial_run_merges_other_entries(self, fake_benches, tmp_path):
        result = tmp_path / "bench.json"
        synthetic = {"schema_version": 1, "generated_unix": 0.0,
                     "benches": {"other_bench": {"mean_s": 2.0}}}
        result.write_text(json.dumps(synthetic))
        harness.run(strict=True, result_path=str(result), rounds=1,
                    min_total_s=0.0, only=["fake_bench"])
        data = json.loads(result.read_text())["benches"]
        assert "other_bench" in data          # history preserved
        assert "fake_bench" in data

    def test_unknown_only_selection_errors(self, fake_benches, tmp_path):
        assert harness.run(strict=True,
                           result_path=str(tmp_path / "bench.json"),
                           only=["nope"]) == 2


class TestNewBenchNote:
    """A bench with no usable prior must say so explicitly — both in
    the JSON entry and on stdout — so a missing baseline is never
    mistaken for a clean comparison."""

    def test_first_run_is_flagged_as_new(self, fake_benches, tmp_path,
                                         capsys):
        result = tmp_path / "bench.json"
        harness.run(strict=True, result_path=str(result), rounds=1,
                    min_total_s=0.0)
        entry = json.loads(result.read_text())["benches"]["fake_bench"]
        assert entry["note"] == "new bench, no baseline"
        assert "note: fake_bench: new bench, no baseline" \
            in capsys.readouterr().out

    def test_note_clears_once_a_baseline_exists(self, fake_benches,
                                                steady_timer, tmp_path,
                                                capsys):
        result = tmp_path / "bench.json"
        harness.run(strict=True, result_path=str(result), rounds=1,
                    min_total_s=0.0)
        capsys.readouterr()                   # drop the first run's output
        harness.run(strict=False, result_path=str(result), rounds=1,
                    min_total_s=0.0)
        entry = json.loads(result.read_text())["benches"]["fake_bench"]
        assert "note" not in entry
        assert "no baseline" not in capsys.readouterr().out

    def test_malformed_prior_is_flagged_as_new(self, fake_benches,
                                               tmp_path):
        result = tmp_path / "bench.json"
        synthetic = {"schema_version": 1, "generated_unix": 0.0,
                     "benches": {"fake_bench": {"mean_s": None}}}
        result.write_text(json.dumps(synthetic))
        harness.run(strict=True, result_path=str(result), rounds=1,
                    min_total_s=0.0)
        entry = json.loads(result.read_text())["benches"]["fake_bench"]
        assert entry["note"] == "new bench, no baseline"
