import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from revenant import __version__
from revenant.cli import main
from revenant.gitio import ActivityHistogram
from revenant.porter import RevivalRecord
from revenant.report import (
    CSV_HEADER,
    emit_activity_csv,
    emit_activity_plot,
    glyph,
    render_records_table,
    render_revival_matrix,
    render_status_matrix,
    render_tally,
)

DAY = 86400


class TestGlyphs:
    def test_full_detail(self):
        assert glyph("triggered", paper_style=False) == "✓"
        assert glyph("not-triggered", paper_style=False) == "✗"
        assert glyph("build-failed", paper_style=False) == "build-fail"
        assert glyph("poc-incompatible", paper_style=False) == "poc-incompat"
        assert glyph("hang", paper_style=False) == "hang"
        assert glyph("", paper_style=False) == "-"
        # unmapped statuses pass through unchanged
        assert glyph("port-conflict", paper_style=False) == "port-conflict"

    def test_paper_style_collapses(self):
        assert glyph("triggered", paper_style=True) == "✓"
        for status in ("not-triggered", "build-failed", "poc-incompatible", "hang", "port-conflict"):
            assert glyph(status, paper_style=True) == "✗"
        assert glyph("", paper_style=True) == "-"


SURVEY_ROWS = [
    {"cve": "CVE-2020-1", "project": "alpha",
     "tiers": {"reference": "triggered", "latest": "build-failed"}},
    {"cve": "CVE-2020-2", "project": "alpha",
     "tiers": {"reference": "", "latest": "triggered"},
     "note": "reference build predates the PoC format"},
]


class TestStatusMatrix:
    def test_render(self):
        text = render_status_matrix(SURVEY_ROWS, ("reference", "latest"), paper_style=False)
        lines = text.splitlines()
        assert lines[0].split() == ["project", "cve", "reference", "latest"]
        assert lines[1].split() == ["alpha", "CVE-2020-1", "✓", "build-fail"]
        assert lines[2].split() == ["alpha", "CVE-2020-2", "-", "✓"]
        assert "reference build predates" in text

    def test_paper_style_collapses_and_drops_notes(self):
        text = render_status_matrix(SURVEY_ROWS, ("reference", "latest"), paper_style=True)
        assert "build-fail" not in text
        assert "✗" in text
        assert "predates" not in text

    def test_deterministic(self):
        tiers = ("reference", "latest")
        assert render_status_matrix(SURVEY_ROWS, tiers, paper_style=False) == \
            render_status_matrix(SURVEY_ROWS, tiers, paper_style=False)


class TestRevivalMatrix:
    ROWS = [
        {"cve": "CVE-2020-1", "project": "alpha",
         "tiers": {"reference": "revived", "latest": "aborted"},
         "commits_reverted": 3, "abort_reason": "TooManyFiles", "note": ""},
        {"cve": "CVE-2020-2", "project": "alpha",
         "tiers": {"reference": "", "latest": "revived"},
         "commits_reverted": 1, "abort_reason": "", "note": "only latest attempted"},
    ]

    def test_full_detail_has_abort_column(self):
        text = render_revival_matrix(self.ROWS, paper_style=False)
        assert "TooManyFiles" in text
        assert text.splitlines()[0].split() == [
            "project", "cve", "reference", "intermediate", "latest", "reversed", "abort",
        ]
        assert "only latest attempted" in text

    def test_paper_style(self):
        text = render_revival_matrix(self.ROWS, paper_style=True)
        assert "TooManyFiles" not in text
        lines = text.splitlines()
        assert lines[0].split() == [
            "project", "cve", "reference", "intermediate", "latest", "reversed",
        ]
        assert lines[1].split() == ["alpha", "CVE-2020-1", "✓", "-", "✗", "3"]
        assert lines[2].split() == ["alpha", "CVE-2020-2", "-", "-", "✓", "1"]


def test_render_tally():
    text = render_tally({"C1": 1, "C2": 5, "C3": 3, "C4": 18, "C5": 3, "C6": 3})
    lines = text.splitlines()
    assert lines[0].split() == ["category", "description", "commits"]
    assert lines[1].startswith("C1")
    assert lines[-1].split() == ["total", "33"]


def test_render_records_table():
    records = [
        RevivalRecord(
            cve="CVE-2020-1", project="alpha", fix_commits=["f"], target="v2",
            granularity="patch-hunks", final="Revived", abort_reason="", aborted_on="",
            revert_stack=["b1", "b2"], verdict={}, effort={"commits_reverted": 2},
            flags={}, touched_regions=[], port_digest="",
        ),
        RevivalRecord(
            cve="CVE-2020-2", project="alpha", fix_commits=["f"], target="v2",
            granularity="patch-hunks", final="Aborted", abort_reason="Complexity",
            aborted_on="", revert_stack=["b1"], verdict={}, effort={}, flags={},
            touched_regions=[], port_digest="",
        ),
    ]
    text = render_records_table(records, paper_style=False)
    lines = text.splitlines()
    assert lines[1].split() == ["alpha", "CVE-2020-1", "v2", "✓", "2", "-"]
    assert lines[2].split() == ["alpha", "CVE-2020-2", "v2", "✗", "1", "Complexity"]
    assert "Complexity" not in render_records_table(records, paper_style=True)


def hist(buckets):
    return ActivityHistogram(buckets=buckets)


class TestActivityCsv:
    def test_schema_and_rows(self):
        h = hist([(0, 5, 1), (14 * DAY, 3, 0), (28 * DAY, 7, 2)])
        text = emit_activity_csv(h)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER == "bucket_start,total_commits,cve_related_commits"
        assert lines[1] == "1970-01-01,5,1"
        assert lines[2] == "1970-01-15,3,0"
        assert len(lines) == 4

    def test_totals_conserved(self):
        buckets = [(i * 14 * DAY, i + 1, i % 2) for i in range(5)]
        h = hist(buckets)
        rows = emit_activity_csv(h).splitlines()[1:]
        assert sum(int(r.split(",")[1]) for r in rows) == h.total
        assert sum(int(r.split(",")[2]) for r in rows) == h.related_total

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            emit_activity_csv(hist([]))


class TestActivityPlot:
    def test_svg_well_formed_and_versioned(self):
        h = hist([(0, 5, 1), (14 * DAY, 3, 0)])
        lifelines = [{"cve": "CVE-2020-1", "start": 0, "end": 28 * DAY}]
        markers = [{"cve": "CVE-2020-1", "timestamp": 14 * DAY}]
        svg = emit_activity_plot(h, lifelines, markers)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        desc = root.find("{http://www.w3.org/2000/svg}desc")
        assert desc is not None and __version__ in desc.text

    def test_marker_and_lane_counts(self):
        h = hist([(0, 4, 0)])
        lifelines = [
            {"cve": "CVE-2020-1", "start": 0, "end": 14 * DAY},
            {"cve": "CVE-2020-2", "start": 0, "end": 14 * DAY},
        ]
        markers = [
            {"cve": "CVE-2020-1", "timestamp": DAY},
            {"cve": "CVE-2020-2", "timestamp": 2 * DAY},
            {"cve": "CVE-2020-2", "timestamp": 3 * DAY},
            {"cve": "CVE-2099-9", "timestamp": DAY},  # no lane: dropped
        ]
        svg = emit_activity_plot(h, lifelines, markers)
        assert svg.count("<polygon") == 3
        assert svg.count("<line") == 2
        assert svg.count("CVE-2020-1") == 1

    def test_empty_lifelines_ok(self):
        svg = emit_activity_plot(hist([(0, 2, 1)]), (), ())
        assert "<line" not in svg
        assert "<rect" in svg

    def test_deterministic(self):
        h = hist([(0, 5, 1), (14 * DAY, 3, 2)])
        lifelines = [{"cve": "CVE-2020-1", "start": 0, "end": 20 * DAY}]
        assert emit_activity_plot(h, lifelines, ()) == emit_activity_plot(h, lifelines, ())


# Whole report output, pinned byte for byte in tests/data/report/.
GOLDEN = Path(__file__).parent / "data" / "report"

TIERS_FILES = [
    {"cve": "CVE-2020-2", "project": "alpha",
     "tiers": {"breaker": {"status": "hang"}, "latest": {"status": "port-conflict"},
               "nightly": {"status": "triggered"}, "reference": {"status": "triggered"}}},
    {"cve": "CVE-2020-1", "project": "beta",
     "tiers": {"intermediate": "poc-incompatible", "latest": "build-failed", "alpha": ""}},
]

GOLDEN_RECORDS = [
    RevivalRecord(
        cve="CVE-2020-1", project="alpha", fix_commits=["f1"], target="v2",
        granularity="patch-hunks", final="Revived", revert_stack=["b1", "b2"],
        effort={"commits_reverted": 2},
    ),
    RevivalRecord(
        cve="CVE-2020-22", project="alpha", fix_commits=["f2"], target="v2-rc1",
        granularity="whole-commit", final="Aborted", abort_reason="TooManyFiles",
        revert_stack=["b3"],
    ),
]


def _report_inputs(tmp_path):
    paths = []
    for k, payload in enumerate(TIERS_FILES):
        paths.append(tmp_path / f"tiers{k}.json")
        paths[-1].write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    for k, record in enumerate(GOLDEN_RECORDS):
        paths.append(tmp_path / f"record{k}.json")
        paths[-1].write_text(record.to_json())
    return [str(path) for path in paths]


@pytest.mark.parametrize("name", ["bundled", "bundled-paper", "records", "records-paper"])
def test_report_output_matches_its_golden_file(tmp_path, capsys, name):
    argv = ["report", "--bundled"] if name.startswith("bundled") else \
        ["report", *_report_inputs(tmp_path)]
    if name.endswith("-paper"):
        argv.append("--paper-style")
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.txt").read_bytes()
