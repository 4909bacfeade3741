from revenant.categorize import tally
from revenant.datasets import load_breaker_ledger, load_revival_survey, load_tier_survey

EXPECTED_TALLY = {"C1": 1, "C2": 5, "C3": 3, "C4": 18, "C5": 3, "C6": 3}


def count(rows, tier, status):
    return sum(1 for r in rows if r["tiers"][tier] == status)


class TestBreakerLedger:
    def test_tally_matches_published_totals(self):
        assert tally(load_breaker_ledger()) == EXPECTED_TALLY

    def test_rows_unique(self):
        rows = load_breaker_ledger()
        keys = [(r["project"], r["commit"]) for r in rows]
        assert len(keys) == len(set(keys)) == 33


class TestTierSurvey:
    def test_row_and_trigger_counts(self):
        rows = load_tier_survey()
        assert len(rows) == 32
        assert count(rows, "reference", "triggered") == 24
        assert count(rows, "intermediate", "triggered") == 18
        assert count(rows, "latest", "triggered") == 17

    def test_single_missing_cell(self):
        rows = load_tier_survey()
        missing = [
            (r["cve"], tier)
            for r in rows
            for tier in ("reference", "intermediate", "latest")
            if r["tiers"][tier] == ""
        ]
        assert missing == [("CVE-2019-11034", "reference")]


class TestRevivalSurvey:
    def test_fifteen_hard_cases(self):
        assert len(load_revival_survey()) == 15

    def test_reversed_commit_counts(self):
        counts = {r["cve"]: r["commits_reverted"] for r in load_revival_survey()}
        assert counts["CVE-2020-24370"] == 1
        assert counts["CVE-2016-5314"] == 4
        assert sum(counts.values()) == 37

    def test_every_stack_entry_categorized(self):
        categories = {(r["project"], r["commit"]) for r in load_breaker_ledger()}
        for row in load_revival_survey():
            for commit in row["revert_stack"]:
                assert (row["project"], commit) in categories, (row["cve"], commit)

    def test_latest_tier_outcomes(self):
        rows = load_revival_survey()
        revived = {r["cve"] for r in rows if r["tiers"]["latest"] == "revived"}
        assert len(revived) == 9
        aborted = {r["cve"]: r["abort_reason"] for r in rows if r["tiers"]["latest"] == "aborted"}
        assert aborted == {
            "CVE-2016-5314": "FunctionalityRemoved",
            "CVE-2016-10267": "FunctionalityRemoved",
            "CVE-2016-10270": "TooManyFiles",
            "CVE-2016-1762": "Complexity",
            "CVE-2017-8872": "TooManyChunks",
            "CVE-2019-9959": "TooManyFiles",
        }

