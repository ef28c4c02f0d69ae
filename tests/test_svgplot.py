"""Dependency-free SVG line plots used by the command-line reports."""

import pytest

from kdvtorus.svgplot import LineSeries, render_line_plot, write_line_plot


def two_series():
    return [
        LineSeries("first", [1.0, 2.0, 3.0], [1.0, 4.0, 9.0]),
        LineSeries("second", [1.0, 2.0, 3.0], [2.0, 3.0, 5.0]),
    ]


class TestLineSeries:
    def test_lengths_must_agree(self):
        with pytest.raises(ValueError, match="2 x values vs 1 y values"):
            LineSeries("bad", [1.0, 2.0], [1.0])


class TestRenderLinePlot:
    def test_one_polyline_per_series(self):
        svg = render_line_plot(two_series(), title="demo")
        assert svg.count("<polyline") == len(two_series())
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "demo" in svg

    def test_legend_carries_the_labels(self):
        svg = render_line_plot(two_series())
        assert "first" in svg and "second" in svg

    def test_empty_input_is_rejected(self):
        with pytest.raises(ValueError, match="nothing to plot"):
            render_line_plot([])

    def test_log_axes_drop_nonpositive_points(self):
        """A log-scaled axis cannot place zero or negative values."""
        series = [LineSeries("s", [1.0, 2.0, 3.0], [0.0, 1.0, 10.0])]
        svg = render_line_plot(series, logy=True)
        assert svg.count("<polyline") == 1

    @pytest.mark.parametrize("span", [5e-324, 2e-323], ids=["span-over-5", "decade"])
    def test_axis_whose_tick_step_underflows(self, span):
        """A span of a few subnormals: span/5, or its decade, rounds to 0; one tick is drawn."""
        svg = render_line_plot([LineSeries("s", [0.0, span], [0.0, 1.0])])
        assert svg.count("<polyline") == 1

    def test_rendering_is_deterministic(self):
        a = render_line_plot(two_series(), title="t", xlabel="x", ylabel="y")
        b = render_line_plot(two_series(), title="t", xlabel="x", ylabel="y")
        assert a == b

    def test_written_file_matches_the_string(self, tmp_path):
        path = tmp_path / "plot.svg"
        write_line_plot(path, two_series(), title="t")
        assert path.read_text(encoding="utf-8") == render_line_plot(
            two_series(), title="t"
        )
