"""ASCII figure rendering tests."""

import numpy as np
import pytest

from repro.core.figures import ascii_line_chart, stacked_latency_chart


class TestLineChart:
    def test_contains_markers_and_legend(self):
        text = ascii_line_chart({
            "gen_nerf": ([10, 20, 40], [30.0, 34.0, 38.0]),
            "ibrnet": ([10, 20, 40], [28.0, 30.0, 33.0]),
        }, title="Fig 9")
        assert "Fig 9" in text
        assert "o = gen_nerf" in text
        assert "x = ibrnet" in text
        assert "o" in text.splitlines()[1]

    def test_axis_annotations(self):
        text = ascii_line_chart({"a": ([0, 100], [1.0, 5.0])},
                                x_label="points", y_label="psnr")
        assert "points" in text and "psnr" in text
        assert "0" in text and "100" in text

    def test_flat_series_handled(self):
        text = ascii_line_chart({"flat": ([1, 2, 3], [2.0, 2.0, 2.0])})
        assert "flat" in text

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ascii_line_chart({})

    def test_higher_values_plot_higher(self):
        text = ascii_line_chart({"up": ([0, 1], [0.0, 10.0])},
                                width=20, height=10)
        lines = [l for l in text.splitlines() if "|" in l]
        top_cols = lines[0].index("o") if "o" in lines[0] else None
        assert top_cols is not None   # max value lands on the top row


class TestStackedChart:
    def test_phases_in_legend(self):
        text = stacked_latency_chart({
            "ours": {"data": 0.01, "compute": 0.04},
            "var1": {"data": 0.08, "compute": 0.04},
        }, title="Fig 12")
        assert "Fig 12" in text
        assert "# = data" in text
        assert "= = compute" in text

    def test_totals_shown(self):
        text = stacked_latency_chart({"x": {"a": 1.0, "b": 2.0}})
        assert "3" in text

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            stacked_latency_chart({})
