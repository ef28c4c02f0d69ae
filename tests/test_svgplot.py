"""Dependency-free SVG line plots used by the command-line reports."""

import hashlib
import math
import os
import re
import subprocess
import sys
from xml.dom import minidom

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import kdvtorus
from kdvtorus.svgplot import LineSeries, _axis, _ticks, render_line_plot, write_line_plot


def two_series():
    return [
        LineSeries("first", [1.0, 2.0, 3.0], [1.0, 4.0, 9.0]),
        LineSeries("second", [1.0, 2.0, 3.0], [2.0, 3.0, 5.0]),
    ]


def pinned_plots():
    """One linear and one log-log plot, each with a NaN point; the log axes drop 0 and -1."""
    linear = render_line_plot(
        [LineSeries("u(t)", (0.0, 0.5, 1.0, 1.5, 2.0), (-1.0, 0.25, math.nan, 2.5, 3.0)),
         LineSeries("v(t)", (0.0, 1.0, 2.0), (0.5, -0.5, 1.75))],
        title="Linear axes", xlabel="t", ylabel="value",
    )
    loglog = render_line_plot(
        [LineSeries("err", (1e-3, 1e-2, 0.0, 1e-1, 1.0), (2e-8, 3e-6, 1e-4, math.nan, 0.7)),
         LineSeries("ref", (1e-3, 1e-2, 1e-1, 1.0), (1e-7, -1.0, 1e-3, 1e-1))],
        title="Log-log axes", xlabel="h", ylabel="error", logx=True, logy=True,
    )
    return {"linear": linear, "loglog": loglog}


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

    @pytest.mark.parametrize("log, ticks", [(False, ["0", "0.2", "1"]), (True, ["0.1", "1"])],
                             ids=["linear", "log"])
    def test_all_nan_series_renders_on_the_default_range(self, log, ticks):
        """No finite point: no polyline, and both axes span (0, 1), or (0.1, 1) on log axes."""
        nan = (math.nan, math.nan)
        svg = render_line_plot([LineSeries("s", nan, nan)], logx=log, logy=log)
        assert svg.count("<polyline") == 0
        for tick in ticks:
            assert svg.count(f">{tick}</text>") == 2

    @pytest.mark.parametrize(
        "label, ys, log",
        [
            ("a<b & c", (0.0, 1.0), False),
            ("s", (5e-324,), True),
            ("s", (1e308, 1e308), True),
            ("s", (1.7e308,), False),
            ("s", (-1e308, 1e308), False),
            ("s", (1e-297, 1.7e308), True),
            ("s", (0.0, 5e-324), False),
            ("s", (-3e-322, 7e-322), False),
        ],
        ids=["markup-in-a-label", "log-halving-underflows", "log-doubling-overflows",
             "linear-pad-overflows", "linear-span-overflows", "log-tick-overflows",
             "linear-span-of-one-subnormal", "linear-subnormal-span"],
    )
    def test_labels_and_ranges_at_the_ends_of_double_precision(self, label, ys, log):
        """Well-formed XML, the label as written, and every coordinate finite."""
        xs = tuple(float(i) for i in range(len(ys)))
        svg = render_line_plot([LineSeries(label, xs, ys)], logy=log)
        doc = minidom.parseString(svg)
        bodies = [t.firstChild.data for t in doc.getElementsByTagName("text")]
        assert bodies[-1] == label
        coords = [float(c) for c in re.findall(r' (?:x1|y1|x2|y2|x|y)="([^"]*)"', svg)]
        coords += [float(c) for pt in doc.getElementsByTagName("polyline")[0]
                   .getAttribute("points").split() for c in pt.split(",")]
        assert coords and all(math.isfinite(c) for c in coords)

    def test_a_narrow_range_far_from_zero_gets_a_few_ticks(self):
        """Step 1 on (1e16, 1e16 + 4): adding the step to a tick can leave it where it was.

        Run in a child under a 1 GiB address-space cap, so a tick list that never ends
        fails the test instead of filling memory.
        """
        code = ("import resource\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                "from kdvtorus.svgplot import LineSeries, render_line_plot\n"
                "print(render_line_plot([LineSeries('s', (0.0, 1.0), (1e16, 1e16 + 4))]))\n")
        src = os.path.dirname(os.path.dirname(kdvtorus.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        minidom.parseString(proc.stdout)
        assert 1 <= proc.stdout.count('text-anchor="end"') <= 12  # the y axis's tick labels

    def test_a_tick_at_zero_is_exactly_zero(self):
        """On (-0.7, 0.3), -0.6 plus three steps of 0.2 misses 0 by 1.1e-16; 0 * step does not."""
        ticks = _ticks(-0.7, 0.3, False)
        assert ticks[3] == 0.0 and math.copysign(1.0, ticks[3]) == 1.0
        svg = render_line_plot([LineSeries("s", (0.0, 1.0), (-0.3, 0.7))])
        assert svg.count(">0</text>") == 2 and "e-16" not in svg

    def test_a_range_that_ends_on_a_multiple_of_the_step_keeps_its_last_tick(self):
        """On (-0.08, 0.02), -0.08 plus four steps of 0.02 lands past 0.02; 1 * step does not."""
        assert _ticks(-0.08, 0.02, False) == [-0.08, -0.06, -0.04, -0.02, 0.0, 0.02]

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

    @pytest.mark.parametrize(
        "name, sha256",
        [
            ("linear", "e8788658cc6e871c174e64489968cf6b36e0acdc5cce2169d84ec920053fe36d"),
            ("loglog", "8dd2438123e960cf52e46f6f2c3588969c9ca2be4302cde048bbd331f669675d"),
        ],
    )
    def test_markup_is_pinned(self, name, sha256):
        """Every byte of the markup: element order, attributes, number formats."""
        svg = pinned_plots()[name]
        assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == sha256


class TestAxis:
    """One map per axis: its ends are scaled once, each point costs one scaling."""

    # A linear axis scales by the power of two that brings its larger end into [0.5, 1),
    # which is exact for subnormal values too, so no finite double is left out here.
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3))
    def test_linear_map_keeps_every_bit(self, values):
        lo, v, hi = sorted(values)
        assume(lo < hi and hi - lo < math.inf)
        assert _axis(lo, hi, 72, 622, False)(v) == 72 + (v - lo) / (hi - lo) * (622 - 72)

    @given(st.lists(st.floats(min_value=5e-324, allow_infinity=False), min_size=3, max_size=3))
    def test_log_map_keeps_every_bit(self, values):
        """Neighbouring doubles near the maximum can share a log10: such an axis is drawn mid-way."""
        lo, v, hi = sorted(values)
        assume(lo < hi)
        log = math.log10
        want = (368 + (log(v) - log(lo)) / (log(hi) - log(lo)) * (42 - 368)
                if log(hi) != log(lo) else 0.5 * (368 + 42))
        assert _axis(lo, hi, 368, 42, True)(v) == want
