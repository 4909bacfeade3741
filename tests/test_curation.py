import itertools
import json
import random
import shlex
import stat
import time
from pathlib import Path

import pytest

from revenant import curation
from revenant.curation import (
    FORMAT_EXIT_CODE,
    FORMAT_PASS_FAIL,
    FORMAT_TAP,
    POLICY_LATEST_FIRST,
    POLICY_MAX_SUBSET,
    RULE_COMPLEXITY,
    RULE_INTERCOMPAT,
    SuiteCrashed,
    TooLarge,
    cve_sort_key,
    detect_conflicts,
    emit_manifest,
    parse_allowlist,
    rule_complexity,
    rule_functionality,
    select_compatible,
)
from revenant.oracle import DRAIN_DEADLINE
from revenant.porter import Limits, RevivalRecord


def default_limits(records):
    """Each record's CVE mapped to the default limits."""
    return {rec.cve: Limits() for rec in records}


def record(cve, final="Revived", stack=(), regions=(), fixes=("fix0",), target="base"):
    return RevivalRecord(
        cve=cve,
        project="proj",
        fix_commits=list(fixes),
        target=target,
        granularity="patch-hunks",
        final=final,
        abort_reason="" if final == "Revived" else "Complexity",
        aborted_on="",
        revert_stack=list(stack),
        verdict={"kind": "Triggered" if final != "Aborted" else "PortConflict"},
        effort={"commits_reverted": len(stack)},
        flags={},
        touched_regions=[dict(r) for r in regions],
        port_digest=f"digest-{cve}",
    )


def span(path, start, end):
    return {"file": path, "start": start, "end": end}


class TestComplexityRule:
    def test_revived_within_limit_kept(self):
        rec = record("CVE-2020-1000", stack=["a", "b", "c", "d"])
        assert rule_complexity(rec, Limits()) is None

    def test_deep_stack_excluded(self):
        rec = record("CVE-2020-1000", stack=["a", "b", "c", "d", "e"])
        assert "exceeds limit 4" in rule_complexity(rec, Limits())
        (row,) = emit_manifest("proj", "base", [rec], POLICY_LATEST_FIRST, None,
                               default_limits([rec]), "").excluded
        assert row["rule"] == RULE_COMPLEXITY and "exceeds limit 4" in row["reason"]

    def test_aborted_excluded(self):
        assert "Complexity" in rule_complexity(record("CVE-2020-1000", final="Aborted"), Limits())

    def test_trivially_revived_excluded(self):
        # the porter records a revival with an empty stack as Revived; no
        # other final qualifies
        rec = record("CVE-2020-1000", final="TriviallyRevived")
        assert rule_complexity(rec, Limits()) == "aborted: Complexity"


def independent(cves, conflicts):
    return not any(tuple(sorted(pair)) in conflicts for pair in itertools.combinations(cves, 2))


class TestConflictGraph:
    """The conflict graph is the map of conflicting pairs: its keys are
    the edges, each a sorted pair of CVE ids."""

    def test_self_edge_rejected(self):
        # a record's own regions overlap, and it reverts its own fix
        rec = record("CVE-2020-1", stack=["fix0"], regions=[span("a.c", 1, 9), span("a.c", 5, 12)])
        assert detect_conflicts([rec]) == {}

    def test_edges_deduplicate(self):
        # both a revert dependency and an overlap, listed in either order:
        # one sorted pair, with the first evidence found
        ra = record("CVE-2020-1", stack=["deadbeef"], regions=[span("a.c", 1, 9)], fixes=["f1"])
        rb = record("CVE-2020-2", regions=[span("a.c", 5, 12)], fixes=["deadbeef"])
        for recs in ([ra, rb], [rb, ra]):
            conflicts = detect_conflicts(recs)
            assert list(conflicts) == [("CVE-2020-1", "CVE-2020-2")]
            assert "reverts deadbeef" in conflicts[("CVE-2020-1", "CVE-2020-2")]

    def test_independence(self):
        conflicts = {("a", "b"): "overlap"}
        assert independent(["a", "c"], conflicts)
        assert not independent(["b", "a"], conflicts)
        recs = [record(c) for c in ["CVE-2020-1", "CVE-2020-2", "CVE-2020-3"]]
        conflicts = {("CVE-2020-1", "CVE-2020-2"): "overlap"}
        for policy in (POLICY_LATEST_FIRST, POLICY_MAX_SUBSET):
            kept, excluded = select_compatible(recs, conflicts, policy)
            assert kept == ["CVE-2020-3", "CVE-2020-2"] and independent(kept, conflicts)
            assert [row[0] for row in excluded] == ["CVE-2020-1"]


class TestDetectConflicts:
    def test_overlapping_regions_conflict(self):
        ra = record("CVE-2020-1", regions=[span("src/a.c", 10, 20)])
        rb = record("CVE-2020-2", regions=[span("src/a.c", 18, 25)])
        assert detect_conflicts([ra, rb]) == {
            ("CVE-2020-1", "CVE-2020-2"): "src/a.c: lines 10-20 overlap 18-25",
        }

    def test_disjoint_files_no_conflict(self):
        ra = record("CVE-2020-1", regions=[span("src/a.c", 10, 20)])
        rb = record("CVE-2020-2", regions=[span("src/b.c", 10, 20)])
        assert not detect_conflicts([ra, rb])

    def test_same_file_disjoint_lines_no_conflict(self):
        ra = record("CVE-2020-1", regions=[span("src/a.c", 10, 20)])
        rb = record("CVE-2020-2", regions=[span("src/a.c", 21, 30)])
        assert not detect_conflicts([ra, rb])

    def test_reverting_anothers_fix_conflicts(self):
        ra = record("CVE-2020-1", stack=["deadbeef"], fixes=["f1"])
        rb = record("CVE-2020-2", fixes=["deadbeef"])
        conflicts = detect_conflicts([ra, rb])
        assert "deadbeef" in conflicts[("CVE-2020-1", "CVE-2020-2")]

    def test_mixed_targets_rejected(self):
        with pytest.raises(ValueError):
            detect_conflicts([record("CVE-2020-1"), record("CVE-2020-2", target="other")])


def star_conflicts(center, leaves):
    return {tuple(sorted((center, leaf))): "overlap" for leaf in leaves}


class TestSelectCompatible:
    def test_latest_first_prefers_newest(self):
        recs = [record("CVE-2019-10"), record("CVE-2021-10")]
        conflicts = {("CVE-2019-10", "CVE-2021-10"): "overlap"}
        kept, excluded = select_compatible(recs, conflicts, POLICY_LATEST_FIRST)
        assert kept == ["CVE-2021-10"]
        assert excluded == [
            ("CVE-2019-10", RULE_INTERCOMPAT, "conflicts with kept CVE-2021-10"),
        ]

    def test_max_subset_beats_greedy_on_star(self):
        # the newest CVE is the star's center; greedy keeps only it,
        # the exact policy keeps all three leaves
        leaves = ["CVE-2018-1", "CVE-2018-2", "CVE-2018-3"]
        recs = [record(c) for c in ["CVE-2021-9", *leaves]]
        conflicts = star_conflicts("CVE-2021-9", leaves)

        kept_greedy, _ = select_compatible(recs, conflicts, POLICY_LATEST_FIRST)
        assert kept_greedy == ["CVE-2021-9"]

        kept_exact, excluded = select_compatible(recs, conflicts, POLICY_MAX_SUBSET)
        assert sorted(kept_exact) == leaves
        assert excluded == [
            ("CVE-2021-9", RULE_INTERCOMPAT,
             "conflicts with kept CVE-2018-3, CVE-2018-2, CVE-2018-1"),
        ]

    def test_max_subset_tie_prefers_latest(self):
        # two disjoint maximum sets of equal size; the kept one must
        # contain the newest CVE
        recs = [record(c) for c in ["CVE-2022-1", "CVE-2020-1", "CVE-2020-2", "CVE-2019-9"]]
        conflicts = {
            **star_conflicts("CVE-2022-1", ["CVE-2020-1", "CVE-2020-2"]),
            **star_conflicts("CVE-2019-9", ["CVE-2020-1", "CVE-2020-2"]),
        }
        kept, _ = select_compatible(recs, conflicts, POLICY_MAX_SUBSET)
        assert "CVE-2022-1" in kept and len(kept) == 2

    def test_edgeless_keeps_everything(self):
        recs = [record(f"CVE-2020-{i}") for i in range(1, 6)]
        for policy in (POLICY_LATEST_FIRST, POLICY_MAX_SUBSET):
            kept, excluded = select_compatible(recs, {}, policy)
            assert len(kept) == 5 and not excluded

    def test_too_large_rejected(self):
        recs = [record(f"CVE-2020-{i}") for i in range(1, 66)]
        with pytest.raises(TooLarge):
            select_compatible(recs, {}, POLICY_MAX_SUBSET)

    def test_duplicate_cves_rejected(self):
        with pytest.raises(ValueError):
            select_compatible([record("CVE-2020-1"), record("CVE-2020-1")], {}, POLICY_LATEST_FIRST)


def brute_force_mis_size(nodes, conflicts):
    for r in range(len(nodes), -1, -1):
        for combo in itertools.combinations(nodes, r):
            if independent(combo, conflicts):
                return r
    return 0


class TestMaxSubsetOracle:
    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(0xC0FFEE)
        for trial in range(100):
            n = rng.randint(1, 10)
            recs = [record(f"CVE-2020-{i + 1}") for i in range(n)]
            conflicts = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.35:
                        conflicts[tuple(sorted((recs[i].cve, recs[j].cve)))] = "overlap"
            kept, _ = select_compatible(recs, conflicts, POLICY_MAX_SUBSET)
            assert independent(kept, conflicts)
            assert len(kept) == brute_force_mis_size([r.cve for r in recs], conflicts), f"trial {trial}"


def write_script(path, body):
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return path


def running(pid):
    """Whether process `pid` exists and is more than a zombie waiting for
    its reaper."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


class TestFunctionalityRule:
    def test_exit_code_pass(self, tmp_path):
        verdict = rule_functionality("true", tmp_path, FORMAT_EXIT_CODE, ())
        assert verdict.verdict == "Functional"
        assert verdict.total_tests == 1 and not verdict.failed

    def test_exit_code_fail(self, tmp_path):
        verdict = rule_functionality("false", tmp_path, FORMAT_EXIT_CODE, ())
        assert verdict.verdict == "Degraded"
        assert verdict.failed == ["suite"]

    def test_tap_parsing(self, tmp_path):
        script = write_script(
            tmp_path / "suite.sh",
            "echo 'ok 1 - parse'\necho 'not ok 2 - encode'\necho 'ok 3 - io'\n",
        )
        verdict = rule_functionality(shlex.quote(str(script)), tmp_path, FORMAT_TAP, ())
        assert verdict.total_tests == 3
        assert verdict.failed == ["2"]
        assert verdict.verdict == "Degraded"

    def test_pass_fail_parsing_with_allowlist(self, tmp_path):
        script = write_script(
            tmp_path / "suite.sh",
            "echo 'PASS: t_alpha'\n"
            "echo 'FAIL: t_beta'\n"
            "echo 'FAIL: t_gamma'\n"
            "echo 'SKIP: t_delta'\n",
        )
        verdict = rule_functionality(shlex.quote(str(script)), tmp_path, FORMAT_PASS_FAIL, ())
        assert verdict.total_tests == 3
        assert verdict.failed == ["t_beta", "t_gamma"]
        assert verdict.disallowed == ["t_beta", "t_gamma"]

        verdict = rule_functionality(
            shlex.quote(str(script)), tmp_path, FORMAT_PASS_FAIL, allowlist={"t_beta"},
        )
        assert verdict.allowlisted == ["t_beta"]
        assert verdict.disallowed == ["t_gamma"]
        assert verdict.verdict == "Degraded"

        verdict = rule_functionality(
            shlex.quote(str(script)), tmp_path, FORMAT_PASS_FAIL, allowlist={"t_beta", "t_gamma"},
        )
        assert verdict.verdict == "Functional"

    def test_unparseable_suite_output_crashes(self, tmp_path):
        with pytest.raises(SuiteCrashed):
            rule_functionality("echo nothing to see", tmp_path, FORMAT_TAP, ())

    def test_tap_lines_on_stdout_are_counted_among_stderr_noise(self, tmp_path):
        script = write_script(
            tmp_path / "suite.sh",
            "echo 'ok 1 - parse'\n"
            "echo 'noise: ok 9' >&2\n"
            "echo 'not ok 2 - encode'\n"
            "echo 'warning: slow disk' >&2\n"
            "echo 'ok 3 - io'\n",
        )
        verdict = rule_functionality(shlex.quote(str(script)), tmp_path, FORMAT_TAP, ())
        assert verdict.total_tests == 3
        assert verdict.failed == ["2"]

    def test_a_suite_that_times_out_leaves_no_process(self, tmp_path, monkeypatch):
        # the shell's background child holds the output pipe: killing only
        # the shell would leave it running
        monkeypatch.setattr(curation, "SUITE_TIMEOUT", 1.0)
        with pytest.raises(SuiteCrashed):
            rule_functionality("sleep 20 & echo $! > pid; wait", tmp_path, FORMAT_EXIT_CODE, ())
        pid = int((tmp_path / "pid").read_text())
        deadline = time.monotonic() + DRAIN_DEADLINE + 3
        while running(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not running(pid)

    def test_missing_suite_crashes(self, tmp_path):
        with pytest.raises(SuiteCrashed):
            rule_functionality(shlex.quote(str(tmp_path / "absent.sh")), tmp_path, FORMAT_EXIT_CODE, ())

    def test_parse_allowlist(self):
        entries = parse_allowlist(
            "# anti-regression checks added with the fix\n"
            "t_beta   guards the fixed overflow path\n"
            "\n"
            "t_gamma  asserts the new length check\n"
        )
        assert entries == {
            "t_beta": "guards the fixed overflow path",
            "t_gamma": "asserts the new length check",
        }
        with pytest.raises(ValueError):
            parse_allowlist("t_lonely\n")


class TestEmitManifest:
    def test_rules_compose(self):
        recs = [
            record("CVE-2021-3", regions=[span("a.c", 1, 9)]),
            record("CVE-2020-2", regions=[span("a.c", 5, 12)]),
            record("CVE-2019-1", final="Aborted"),
        ]
        manifest = emit_manifest("proj", "base", recs, POLICY_LATEST_FIRST, None, default_limits(recs), "")

        assert [row["cve"] for row in manifest.included] == ["CVE-2021-3"]
        assert manifest.included[0]["port_digest"] == "digest-CVE-2021-3"
        rules = {row["cve"]: row["rule"] for row in manifest.excluded}
        assert rules == {"CVE-2019-1": RULE_COMPLEXITY, "CVE-2020-2": RULE_INTERCOMPAT}

    def test_overlapping_records_conflict_without_a_caller_graph(self):
        recs = [
            record("CVE-2020-2", regions=[span("a.c", 1, 9)]),
            record("CVE-2021-3", regions=[span("a.c", 1, 9)]),
        ]
        for policy in (POLICY_LATEST_FIRST, POLICY_MAX_SUBSET):
            manifest = emit_manifest("proj", "base", recs, policy, None, default_limits(recs), "")
            assert [row["cve"] for row in manifest.included] == ["CVE-2021-3"]
            assert manifest.excluded == [{
                "cve": "CVE-2020-2",
                "rule": RULE_INTERCOMPAT,
                "reason": "conflicts with kept CVE-2021-3",
            }]

    def test_a_revert_dependency_excludes_the_older_record(self):
        # the newer CVE's revert stack holds the older CVE's fix commit
        recs = [
            record("CVE-2021-3", stack=["deadbeef"], fixes=["f1"]),
            record("CVE-2020-2", fixes=["deadbeef"]),
        ]
        manifest = emit_manifest("proj", "base", recs, POLICY_LATEST_FIRST, None, default_limits(recs), "")
        assert [row["cve"] for row in manifest.included] == ["CVE-2021-3"]
        assert [(row["cve"], row["rule"]) for row in manifest.excluded] == [
            ("CVE-2020-2", RULE_INTERCOMPAT),
        ]

    def test_complexity_exclusion_not_relabeled(self):
        # the aborted record also overlaps the kept one; its exclusion
        # reason must stay "complexity"
        recs = [
            record("CVE-2021-3", regions=[span("a.c", 1, 9)]),
            record("CVE-2019-1", final="Aborted", regions=[span("a.c", 2, 3)]),
        ]
        assert detect_conflicts(recs)
        manifest = emit_manifest("proj", "base", recs, POLICY_LATEST_FIRST, None, default_limits(recs), "")
        assert [row["cve"] for row in manifest.included] == ["CVE-2021-3"]
        assert manifest.excluded == [
            {"cve": "CVE-2019-1", "rule": RULE_COMPLEXITY, "reason": "aborted: Complexity"},
        ]

    def test_mixed_targets_rejected(self):
        recs = [record("CVE-2020-1"), record("CVE-2020-2", target="other")]
        with pytest.raises(ValueError):
            emit_manifest("proj", "base", recs, POLICY_LATEST_FIRST, None, default_limits(recs), "")

    def test_zero_records(self):
        manifest = emit_manifest("proj", "base", [], POLICY_LATEST_FIRST, None, {}, "")
        assert manifest.included == [] and manifest.excluded == []

    def test_serialization_deterministic(self):
        recs = [record("CVE-2021-3"), record("CVE-2020-2")]
        a = emit_manifest("proj", "base", recs, POLICY_LATEST_FIRST, None, default_limits(recs),
                          "2021-01-01T00:00:00Z").to_json()
        b = emit_manifest("proj", "base", recs, POLICY_LATEST_FIRST, None, default_limits(recs),
                          "2021-01-01T00:00:00Z").to_json()
        assert a == b
        parsed = json.loads(a)
        assert parsed["schema"] == "benchmark-manifest/1"
        assert parsed["created_at"] == "2021-01-01T00:00:00Z"


def test_cve_sort_key():
    assert cve_sort_key("CVE-2016-10270") == (2016, 10270)
    assert cve_sort_key("cve-2016-9") == (2016, 9)
    assert cve_sort_key("CVE-2016-10270") > cve_sort_key("CVE-2016-9936")
    with pytest.raises(ValueError):
        cve_sort_key("GHSA-xxxx")
