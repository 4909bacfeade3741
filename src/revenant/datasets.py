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
from typing import Dict, List, Tuple

from .categorize import CATEGORIES
from .porter import FINAL_ABORTED, FINAL_REVIVED, RevivalRecord

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


def breaker_categories() -> Dict[Tuple[str, str], str]:
    return {(r["project"], r["commit"]): r["category"] for r in load_breaker_ledger()}


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


def revival_records(tier: str = "latest") -> List[RevivalRecord]:
    """Materialize the revival survey as records for curation and reports.

    Rows whose cell for the tier is blank were never attempted there and
    yield no record.
    """
    if tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}")
    out = []
    for row in load_revival_survey():
        status = row["tiers"][tier]
        if not status:
            continue
        revived = status == "revived"
        out.append(
            RevivalRecord(
                cve=row["cve"],
                project=row["project"],
                fix_commits=[],
                target=tier,
                granularity="patch-hunks",
                final=FINAL_REVIVED if revived else FINAL_ABORTED,
                abort_reason="" if revived else row["abort_reason"],
                revert_stack=list(row["revert_stack"]),
                effort={"commits_reverted": row["commits_reverted"]},
            )
        )
    return out
