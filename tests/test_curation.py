import itertools
import json
import random
import stat

import pytest

from revenant.curation import (
    FORMAT_EXIT_CODE,
    FORMAT_PASS_FAIL,
    FORMAT_TAP,
    POLICY_LATEST_FIRST,
    POLICY_MAX_SUBSET,
    REASON_OVERLAP,
    RULE_COMPLEXITY,
    RULE_INTERCOMPAT,
    ConflictGraph,
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
from revenant.porter import Limits, RevivalRecord


def record(cve, final="Revived", stack=(), regions=(), fixes=("fix0",), target="base"):
    return RevivalRecord(
        cve=cve,
        project="proj",
        fix_commits=list(fixes),
        target=target,
        granularity="patch-hunks",
        final=final,
        abort_reason="" if final in ("Revived", "TriviallyRevived") else "Complexity",
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
        assert rule_complexity(rec, Limits()).keep

    def test_deep_stack_excluded(self):
        rec = record("CVE-2020-1000", stack=["a", "b", "c", "d", "e"])
        decision = rule_complexity(rec, Limits())
        assert not decision.keep
        assert decision.rule == RULE_COMPLEXITY
        assert "exceeds limit 4" in decision.reason

    def test_aborted_excluded(self):
        decision = rule_complexity(record("CVE-2020-1000", final="Aborted"))
        assert not decision.keep and "Complexity" in decision.reason

    def test_trivially_revived_kept(self):
        assert rule_complexity(record("CVE-2020-1000", final="TriviallyRevived")).keep


class TestConflictGraph:
    def test_self_edge_rejected(self):
        g = ConflictGraph()
        with pytest.raises(ValueError):
            g.add_edge("a", "a", REASON_OVERLAP)

    def test_edges_deduplicate(self):
        g = ConflictGraph()
        g.add_edge("a", "b", REASON_OVERLAP, "first")
        g.add_edge("b", "a", "another-reason", "second")
        assert len(g.edges) == 1
        assert g.has_edge("a", "b") and g.has_edge("b", "a")

    def test_independence(self):
        g = ConflictGraph(["a", "b", "c"])
        g.add_edge("a", "b", REASON_OVERLAP)
        assert g.is_independent(["a", "c"])
        assert not g.is_independent(["a", "b"])


class TestDetectConflicts:
    def test_overlapping_regions_conflict(self):
        ra = record("CVE-2020-1", regions=[span("src/a.c", 10, 20)])
        rb = record("CVE-2020-2", regions=[span("src/a.c", 18, 25)])
        g = detect_conflicts([ra, rb])
        assert g.has_edge("CVE-2020-1", "CVE-2020-2")
        assert g.edges[("CVE-2020-1", "CVE-2020-2")].reason == REASON_OVERLAP

    def test_disjoint_files_no_conflict(self):
        ra = record("CVE-2020-1", regions=[span("src/a.c", 10, 20)])
        rb = record("CVE-2020-2", regions=[span("src/b.c", 10, 20)])
        assert not detect_conflicts([ra, rb]).edges

    def test_same_file_disjoint_lines_no_conflict(self):
        ra = record("CVE-2020-1", regions=[span("src/a.c", 10, 20)])
        rb = record("CVE-2020-2", regions=[span("src/a.c", 21, 30)])
        assert not detect_conflicts([ra, rb]).edges

    def test_reverting_anothers_fix_conflicts(self):
        ra = record("CVE-2020-1", stack=["deadbeef"], fixes=["f1"])
        rb = record("CVE-2020-2", fixes=["deadbeef"])
        g = detect_conflicts([ra, rb])
        assert g.has_edge("CVE-2020-1", "CVE-2020-2")
        assert "deadbeef" in g.edges[("CVE-2020-1", "CVE-2020-2")].evidence

    def test_mixed_targets_rejected(self):
        with pytest.raises(ValueError):
            detect_conflicts([record("CVE-2020-1"), record("CVE-2020-2", target="other")])


def star_graph(center, leaves):
    g = ConflictGraph([center, *leaves])
    for leaf in leaves:
        g.add_edge(center, leaf, REASON_OVERLAP)
    return g


class TestSelectCompatible:
    def test_latest_first_prefers_newest(self):
        recs = [record("CVE-2019-10"), record("CVE-2021-10")]
        g = ConflictGraph([r.cve for r in recs])
        g.add_edge("CVE-2019-10", "CVE-2021-10", REASON_OVERLAP)
        kept, excluded = select_compatible(g, recs, POLICY_LATEST_FIRST)
        assert kept == ["CVE-2021-10"]
        assert excluded == [
            ("CVE-2019-10", RULE_INTERCOMPAT, "conflicts with kept CVE-2021-10"),
        ]

    def test_max_subset_beats_greedy_on_star(self):
        # the newest CVE is the star's center; greedy keeps only it,
        # the exact policy keeps all three leaves
        leaves = ["CVE-2018-1", "CVE-2018-2", "CVE-2018-3"]
        recs = [record(c) for c in ["CVE-2021-9", *leaves]]
        g = star_graph("CVE-2021-9", leaves)

        kept_greedy, _ = select_compatible(g, recs, POLICY_LATEST_FIRST)
        assert kept_greedy == ["CVE-2021-9"]

        kept_exact, excluded = select_compatible(g, recs, POLICY_MAX_SUBSET)
        assert sorted(kept_exact) == leaves
        assert [row[0] for row in excluded] == ["CVE-2021-9"]

    def test_max_subset_tie_prefers_latest(self):
        # two disjoint maximum sets of equal size; the kept one must
        # contain the newest CVE
        recs = [record(c) for c in ["CVE-2022-1", "CVE-2020-1", "CVE-2020-2", "CVE-2019-9"]]
        g = ConflictGraph([r.cve for r in recs])
        g.add_edge("CVE-2022-1", "CVE-2020-1", REASON_OVERLAP)
        g.add_edge("CVE-2022-1", "CVE-2020-2", REASON_OVERLAP)
        g.add_edge("CVE-2019-9", "CVE-2020-1", REASON_OVERLAP)
        g.add_edge("CVE-2019-9", "CVE-2020-2", REASON_OVERLAP)
        kept, _ = select_compatible(g, recs, POLICY_MAX_SUBSET)
        assert "CVE-2022-1" in kept and len(kept) == 2

    def test_edgeless_keeps_everything(self):
        recs = [record(f"CVE-2020-{i}") for i in range(1, 6)]
        for policy in (POLICY_LATEST_FIRST, POLICY_MAX_SUBSET):
            kept, excluded = select_compatible(ConflictGraph(), recs, policy)
            assert len(kept) == 5 and not excluded

    def test_too_large_rejected(self):
        recs = [record(f"CVE-2020-{i}") for i in range(1, 66)]
        with pytest.raises(TooLarge):
            select_compatible(ConflictGraph(), recs, POLICY_MAX_SUBSET)

    def test_graph_node_without_record_rejected(self):
        with pytest.raises(ValueError):
            select_compatible(ConflictGraph(["CVE-2020-99"]), [record("CVE-2020-1")], POLICY_MAX_SUBSET)


def brute_force_mis_size(nodes, graph):
    best = 0
    for r in range(len(nodes), -1, -1):
        for combo in itertools.combinations(nodes, r):
            if graph.is_independent(combo):
                return r
    return best


class TestMaxSubsetOracle:
    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(0xC0FFEE)
        for trial in range(100):
            n = rng.randint(1, 10)
            recs = [record(f"CVE-2020-{i + 1}") for i in range(n)]
            g = ConflictGraph([r.cve for r in recs])
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.35:
                        g.add_edge(recs[i].cve, recs[j].cve, REASON_OVERLAP)
            kept, _ = select_compatible(g, recs, POLICY_MAX_SUBSET)
            assert g.is_independent(kept)
            assert len(kept) == brute_force_mis_size([r.cve for r in recs], g), f"trial {trial}"


def write_script(path, body):
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return path


class TestFunctionalityRule:
    def test_exit_code_pass(self, tmp_path):
        verdict = rule_functionality("true", tmp_path, FORMAT_EXIT_CODE)
        assert verdict.verdict == "Functional"
        assert verdict.total_tests == 1 and not verdict.failed

    def test_exit_code_fail(self, tmp_path):
        verdict = rule_functionality("false", tmp_path, FORMAT_EXIT_CODE)
        assert verdict.verdict == "Degraded"
        assert verdict.failed == ["suite"]

    def test_tap_parsing(self, tmp_path):
        script = write_script(
            tmp_path / "suite.sh",
            "echo 'ok 1 - parse'\necho 'not ok 2 - encode'\necho 'ok 3 - io'\n",
        )
        verdict = rule_functionality([str(script)], tmp_path, FORMAT_TAP)
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
        verdict = rule_functionality([str(script)], tmp_path, FORMAT_PASS_FAIL)
        assert verdict.total_tests == 3
        assert verdict.failed == ["t_beta", "t_gamma"]
        assert verdict.disallowed == ["t_beta", "t_gamma"]

        verdict = rule_functionality(
            [str(script)], tmp_path, FORMAT_PASS_FAIL, allowlist={"t_beta"},
        )
        assert verdict.allowlisted == ["t_beta"]
        assert verdict.disallowed == ["t_gamma"]
        assert verdict.verdict == "Degraded"

        verdict = rule_functionality(
            [str(script)], tmp_path, FORMAT_PASS_FAIL, allowlist={"t_beta", "t_gamma"},
        )
        assert verdict.verdict == "Functional"

    def test_unparseable_suite_output_crashes(self, tmp_path):
        with pytest.raises(SuiteCrashed):
            rule_functionality("echo nothing to see", tmp_path, FORMAT_TAP)

    def test_missing_suite_crashes(self, tmp_path):
        with pytest.raises(SuiteCrashed):
            rule_functionality([str(tmp_path / "absent.sh")], tmp_path)

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
        graph = detect_conflicts([r for r in recs if r.final == "Revived"])
        manifest = emit_manifest("proj", "base", recs, graph, POLICY_LATEST_FIRST)

        assert [row["cve"] for row in manifest.included] == ["CVE-2021-3"]
        assert manifest.included[0]["port_digest"] == "digest-CVE-2021-3"
        rules = {row["cve"]: row["rule"] for row in manifest.excluded}
        assert rules == {"CVE-2019-1": RULE_COMPLEXITY, "CVE-2020-2": RULE_INTERCOMPAT}

    def test_complexity_exclusion_not_relabeled(self):
        # the aborted record also overlaps the kept one; its exclusion
        # reason must stay "complexity"
        recs = [
            record("CVE-2021-3", regions=[span("a.c", 1, 9)]),
            record("CVE-2019-1", final="Aborted", regions=[span("a.c", 2, 3)]),
        ]
        graph = ConflictGraph([r.cve for r in recs])
        graph.add_edge("CVE-2021-3", "CVE-2019-1", REASON_OVERLAP)
        manifest = emit_manifest("proj", "base", recs, graph)
        assert manifest.excluded == [
            {"cve": "CVE-2019-1", "rule": RULE_COMPLEXITY, "reason": "aborted: Complexity"},
        ]

    def test_zero_records(self):
        manifest = emit_manifest("proj", "base", [])
        assert manifest.included == [] and manifest.excluded == []

    def test_serialization_deterministic(self):
        recs = [record("CVE-2021-3"), record("CVE-2020-2")]
        a = emit_manifest("proj", "base", recs, created_at="2021-01-01T00:00:00Z").to_json()
        b = emit_manifest("proj", "base", recs, created_at="2021-01-01T00:00:00Z").to_json()
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
