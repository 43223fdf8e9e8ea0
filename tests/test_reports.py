"""Report emitters: CSV columns, text summary, SVG well-formedness."""

import csv
import io
import math
import random
import xml.etree.ElementTree as ET

import pytest

from coverify.logic import Trace
from coverify.replay import CONFIRMED, POSSIBLE, SPURIOUS, ClassifiedHazard
from coverify.reports import (
    CSV_COLUMNS,
    HazardReport,
    escape,
    render_csv,
    render_svg,
    render_text,
    timeline_svg,
    trace_table,
)

ROWS = (
    ClassifiedHazard("h1", 3, POSSIBLE, 0.0, math.sqrt(3), 0.0041, 0.1),
    ClassifiedHazard("h1", 5, CONFIRMED, 0.0, 0.05, 1.0, 0.1),
    ClassifiedHazard("h2", 5, SPURIOUS, 2.0, 4.0, 0.0, 0.1),
)


def fig1_trace(k=10):
    return Trace(
        k,
        {"start": tuple(t == 5 for t in range(k + 1)), "stop": tuple(t == 8 for t in range(k + 1))},
        {"p_x": tuple("L1" if t < 4 else "L2" for t in range(k + 1))},
    )


class TestHazardReport:
    def test_counts_sum_to_rows(self):
        report = HazardReport("demo", ROWS)
        counts = report.counts
        assert sum(counts.values()) == len(ROWS)
        assert counts[POSSIBLE] == 1 and counts[CONFIRMED] == 1 and counts[SPURIOUS] == 1

    def test_all_confirmed_flag(self):
        assert not HazardReport("demo", ROWS).all_confirmed
        assert HazardReport("demo", (ROWS[1],)).all_confirmed
        assert HazardReport("demo", ()).all_confirmed


class TestCsv:
    def test_columns(self):
        parsed = list(csv.reader(io.StringIO(render_csv(HazardReport("demo", ROWS)))))
        assert parsed[0] == list(CSV_COLUMNS)
        assert len(parsed) == 1 + len(ROWS)

    def test_row_values_round_trip(self):
        parsed = list(csv.DictReader(io.StringIO(render_csv(HazardReport("demo", ROWS)))))
        assert parsed[0]["hazard"] == "h1"
        assert int(parsed[0]["instant"]) == 3
        assert parsed[0]["verdict"] == POSSIBLE
        assert float(parsed[0]["d_max"]) == math.sqrt(3)

    def test_deterministic(self):
        report = HazardReport("demo", ROWS)
        assert render_csv(report) == render_csv(report)


class TestText:
    def test_contains_summary_and_rows(self):
        text = render_text(HazardReport("demo", ROWS))
        assert "demo" in text
        assert "1 confirmed, 1 possible, 1 spurious" in text
        assert "h1 @ t=3" in text

    def test_empty_report(self):
        text = render_text(HazardReport("demo", ()))
        assert "no hazard instants" in text


class TestTraceTable:
    def test_row_for_each_instant(self):
        table = trace_table(fig1_trace())
        lines = table.splitlines()
        assert len(lines) == 1 + 11

    def test_fig1_style_row(self):
        table = trace_table(fig1_trace())
        header = table.splitlines()[0].split()
        row5 = table.splitlines()[1 + 5].split()
        values = dict(zip(header, row5))
        assert values["t"] == "5"
        assert values["start"] == "1"
        assert values["stop"] == "0"


class TestSvg:
    def test_well_formed_with_one_band_per_symbol(self):
        svg = timeline_svg(fig1_trace())
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        for name in ("start", "stop", "p_x"):
            assert name in texts

    def test_shades_true_instants(self):
        svg = timeline_svg(fig1_trace())
        assert svg.count('fill="#4a90d9"') == 2  # start@5 and stop@8

    def test_hazard_markers(self):
        svg = render_svg(HazardReport("demo", ROWS), fig1_trace())
        assert svg.count("<circle") == 2  # instants 3 and 5
        ET.fromstring(svg)

    @pytest.mark.parametrize(
        "verdicts, color",
        [
            ((CONFIRMED, SPURIOUS), "#c0392b"),
            ((SPURIOUS, CONFIRMED), "#c0392b"),
            ((SPURIOUS, POSSIBLE), "#e67e22"),
            ((POSSIBLE, SPURIOUS), "#e67e22"),
            ((POSSIBLE, CONFIRMED), "#c0392b"),
        ],
        ids=["confirmed-spurious", "spurious-confirmed", "spurious-possible", "possible-spurious",
             "possible-confirmed"],
    )
    def test_shared_instant_marker_shows_most_severe_verdict(self, verdicts, color):
        rows = tuple(
            ClassifiedHazard(hazard, 0, verdict, 0.0, 1.0, 0.5, 0.1)
            for hazard, verdict in zip(("h1", "h2"), verdicts)
        )
        circles = [el for el in ET.fromstring(timeline_svg(fig1_trace(), rows)).iter()
                   if el.tag.endswith("circle")]
        assert [el.get("fill") for el in circles] == [color]

    def test_deterministic(self):
        assert timeline_svg(fig1_trace()) == timeline_svg(fig1_trace())


class TestEscape:
    def test_matches_saxutils_on_random_strings(self):
        from xml.sax.saxutils import escape as sax_escape

        rng = random.Random(1729)
        alphabet = ["&", "<", ">", '"', "'", "&amp;", "&lt;", "a", "Z", "0", " ", ";", "#"]
        alphabet += ["é", "→", "日", "\n"]
        for _ in range(2000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 24)))
            assert escape(text) == sax_escape(text), text
