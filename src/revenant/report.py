"""Report rendering: status matrices, category tallies, activity charts.

Everything here is a pure function from data to text (plain tables, CSV,
or a self-contained SVG), so rerunning a report over the same inputs is
byte-identical.
"""

from __future__ import annotations

from datetime import datetime, timezone
from typing import Dict, Iterable, List, Optional, Sequence

from . import __version__
from .categorize import CATEGORIES, DESCRIPTIONS
from .datasets import TIERS
from .gitio import BUCKET_WIDTH_DAYS
from .porter import FINAL_REVIVED

CSV_HEADER = "bucket_start,total_commits,cve_related_commits"

MISSING = "-"

# full-detail cell text; anything not listed renders as its status string
_GLYPHS = {
    "triggered": "✓",
    "revived": "✓",
    "not-triggered": "✗",
    "aborted": "✗",
    "build-failed": "build-fail",
    "poc-incompatible": "poc-incompat",
    "hang": "hang",
    "": MISSING,
}

_PASS_STATUSES = ("triggered", "revived")


def glyph(status: str, paper_style: bool) -> str:
    if paper_style:
        if status == "":
            return MISSING
        return "✓" if status in _PASS_STATUSES else "✗"
    return _GLYPHS.get(status, status)


def _render_table(header: Sequence[str], body: Sequence[Sequence[str]],
                  notes: Dict[str, str], paper_style: bool) -> str:
    """Columns padded to their widest cell; then, unless `paper_style`, a
    blank line and one `cve: note` line per CVE in `notes`, by CVE."""
    rows = [list(header)] + [list(r) for r in body]
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for row in rows:
        cells = [cell.ljust(width) for cell, width in zip(row, widths)]
        lines.append("  ".join(cells).rstrip())
    out = "\n".join(lines) + "\n"
    if notes and not paper_style:
        out += "\n" + "".join(f"{cve}: {note}\n" for cve, note in sorted(notes.items()))
    return out


def _abort(text: Optional[str], paper_style: bool) -> List[str]:
    """The abort column's cell (or its header): none in paper style."""
    return [] if paper_style else [text or MISSING]


def _notes(rows: Iterable[dict]) -> Dict[str, str]:
    return {row["cve"]: row["note"] for row in rows if row.get("note")}


def _status_cells(row: dict, tiers: Sequence[str], paper_style: bool) -> List[str]:
    return [row["project"], row["cve"],
            *(glyph(row["tiers"].get(tier, ""), paper_style) for tier in tiers)]


def tier_columns(rows: Iterable[dict]) -> List[str]:
    """Every tier the rows name: those of `TIERS` first, in its order, then
    the others by name."""
    names = {name for row in rows for name in row["tiers"]}
    return sorted(names, key=lambda n: (TIERS.index(n) if n in TIERS else len(TIERS), n))


def render_status_matrix(rows: Sequence[dict], tiers: Sequence[str], paper_style: bool) -> str:
    """CVE rows against `tiers` columns, each cell a PoC verdict status.
    Rows are {cve, project, tiers: {tier: status}, note (optional)}."""
    body = [_status_cells(row, tiers, paper_style) for row in rows]
    return _render_table(["project", "cve", *tiers], body, _notes(rows), paper_style)


def render_revival_matrix(survey_rows: Sequence[dict], paper_style: bool) -> str:
    """Revival outcomes per tier of `TIERS` plus how many commits each CVE
    reversed."""
    header = ["project", "cve", *TIERS, "reversed", *_abort("abort", paper_style)]
    body = [
        _status_cells(row, TIERS, paper_style)
        + [str(row["commits_reverted"]), *_abort(row.get("abort_reason"), paper_style)]
        for row in survey_rows
    ]
    return _render_table(header, body, _notes(survey_rows), paper_style)


def render_tally(counts: Dict[str, int]) -> str:
    body = [
        [cat, DESCRIPTIONS[cat], str(counts.get(cat, 0))]
        for cat in CATEGORIES
    ]
    body.append(["total", "", str(sum(counts.get(c, 0) for c in CATEGORIES))])
    return _render_table(["category", "description", "commits"], body, {}, False)


def render_records_table(records, paper_style: bool) -> str:
    """One row per revival record; records may target different commits."""
    header = ["project", "cve", "target", "outcome", "reversed", *_abort("abort", paper_style)]
    body = []
    for record in records:
        status = "revived" if record.final == FINAL_REVIVED else "aborted"
        body.append([
            record.project,
            record.cve,
            record.target,
            glyph(status, paper_style),
            str(record.effort.get("commits_reverted", len(record.revert_stack))),
            *_abort(record.abort_reason, paper_style),
        ])
    return _render_table(header, body, {}, paper_style)


def _utc_date(epoch: int) -> str:
    return datetime.fromtimestamp(epoch, tz=timezone.utc).strftime("%Y-%m-%d")


def emit_activity_csv(histogram) -> str:
    """Frozen schema: bucket_start,total_commits,cve_related_commits."""
    if not histogram.buckets:
        raise ValueError("empty histogram has no CSV rows")
    lines = [CSV_HEADER]
    for epoch, total, related in histogram.buckets:
        lines.append(f"{_utc_date(epoch)},{total},{related}")
    return "\n".join(lines) + "\n"


_PLOT_W = 900
_BAR_BAND_H = 200
_LANE_H = 18
_MARGIN = 42


def emit_activity_plot(
    histogram,
    lifelines: Sequence[dict],
    markers: Sequence[dict],
) -> str:
    """Self-contained SVG: activity bars, one lane per CVE, triangles at
    breaking commits.

    lifelines rows: {cve, start, end} (epochs); markers rows: {cve,
    timestamp}. Output depends only on the arguments.
    """
    buckets = list(histogram.buckets)
    lanes = sorted(lifelines, key=lambda row: row["cve"])
    lane_index = {row["cve"]: i for i, row in enumerate(lanes)}

    lane_band = _LANE_H * len(lanes)
    height = _MARGIN * 2 + lane_band + _BAR_BAND_H
    width = _PLOT_W + _MARGIN * 2

    if buckets:
        t0 = buckets[0][0]
        t1 = buckets[-1][0] + BUCKET_WIDTH_DAYS * 86400
    else:
        t0, t1 = 0, 1
    for row in lanes:
        t0 = min(t0, row["start"])
        t1 = max(t1, row["end"])
    span = max(t1 - t0, 1)

    def x(t: int) -> float:
        return _MARGIN + (t - t0) / span * _PLOT_W

    peak = max((b[1] for b in buckets), default=1) or 1
    bar_top = _MARGIN + lane_band
    bar_base = bar_top + _BAR_BAND_H

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<desc>revenant {__version__} activity chart</desc>",
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]

    for epoch, total, related in buckets:
        bx = x(epoch)
        bw = max(x(epoch + BUCKET_WIDTH_DAYS * 86400) - bx - 1, 1)
        th = total / peak * _BAR_BAND_H
        rh = related / peak * _BAR_BAND_H
        parts.append(
            f'<rect x="{bx:.1f}" y="{bar_base - th:.1f}" width="{bw:.1f}" '
            f'height="{th:.1f}" fill="#c8c8c8"/>'
        )
        if related:
            parts.append(
                f'<rect x="{bx:.1f}" y="{bar_base - rh:.1f}" width="{bw:.1f}" '
                f'height="{rh:.1f}" fill="#5b7fa6"/>'
            )

    for row in lanes:
        y = _MARGIN + lane_index[row["cve"]] * _LANE_H + _LANE_H / 2
        parts.append(
            f'<line x1="{x(row["start"]):.1f}" y1="{y:.1f}" '
            f'x2="{x(row["end"]):.1f}" y2="{y:.1f}" '
            f'stroke="#333333" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_MARGIN - 4}" y="{y + 4:.1f}" font-size="10" '
            f'font-family="monospace" text-anchor="end">{row["cve"]}</text>'
        )

    for row in sorted(markers, key=lambda m: (m["cve"], m["timestamp"])):
        if row["cve"] not in lane_index:
            continue
        y = _MARGIN + lane_index[row["cve"]] * _LANE_H + _LANE_H / 2
        mx = x(row["timestamp"])
        parts.append(
            f'<polygon points="{mx:.1f},{y - 5:.1f} {mx - 5:.1f},{y + 5:.1f} '
            f'{mx + 5:.1f},{y + 5:.1f}" fill="#b03a2e"/>'
        )

    if buckets:
        parts.append(
            f'<text x="{_MARGIN}" y="{bar_base + 16}" font-size="10" '
            f'font-family="monospace">{_utc_date(t0)}</text>'
        )
        parts.append(
            f'<text x="{_MARGIN + _PLOT_W}" y="{bar_base + 16}" font-size="10" '
            f'font-family="monospace" text-anchor="end">{_utc_date(t1)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
