"""Bundled reference data from a manual revival campaign on real projects.

Three read-only datasets ship with the package: per-tier PoC outcomes for
32 CVEs across seven C projects, revival outcomes with revert stacks for
the 15 CVEs that needed commit surgery, and a ledger assigning a category
to every breaking commit involved. Reports render straight from these and
the regression suite pins their totals.
"""

from __future__ import annotations

import json
from importlib.resources import files
from typing import List

from .categorize import CATEGORIES

TIERS = ("reference", "intermediate", "latest")

LEDGER_FILE = "table5_ledger.json"
TIER_SURVEY_FILE = "tier_survey.json"
REVIVAL_SURVEY_FILE = "revival_survey.json"


def _load(name: str):
    text = files("revenant").joinpath("data", name).read_text("utf-8")
    return json.loads(text)


def load_breaker_ledger() -> List[dict]:
    """Categorized breaking commits, one row per (project, commit)."""
    rows = _load(LEDGER_FILE)
    for row in rows:
        if row["category"] not in CATEGORIES:
            raise ValueError(f"bad category in ledger row: {row}")
        if not row.get("project") or not row.get("commit"):
            raise ValueError(f"incomplete ledger row: {row}")
    return rows


def load_tier_survey() -> List[dict]:
    """Per-tier PoC outcomes for every surveyed CVE ('' means not attempted)."""
    rows = _load(TIER_SURVEY_FILE)
    for row in rows:
        for tier in TIERS:
            status = row["tiers"][tier]
            if status not in ("triggered", "not-triggered", ""):
                raise ValueError(f"bad tier status {status!r} for {row['cve']}")
    return rows


def load_revival_survey() -> List[dict]:
    """Revival outcomes and revert stacks for the CVEs that needed surgery."""
    rows = _load(REVIVAL_SURVEY_FILE)
    for row in rows:
        for tier in TIERS:
            status = row["tiers"][tier]
            if status not in ("revived", "aborted", ""):
                raise ValueError(f"bad revival status {status!r} for {row['cve']}")
        if row["commits_reverted"] < len(row["revert_stack"]) and not row.get("note"):
            raise ValueError(f"unexplained short stack for {row['cve']}")
    return rows

