import math
import random
import shutil
import threading
from contextlib import contextmanager
from itertools import groupby

import pytest

from revenant.forge import (
    BREAKERS,
    PACK_C_VULN,
    PACK_H,
    README,
    TOOL_C,
    apply_fix,
    forge_repo,
    overflow_poc_bytes,
)
from revenant.gitio import (
    MODE_EXEC,
    MODE_LINK,
    CommitMemo,
    checkout_worktree,
)
from revenant.oracle import (
    KIND_BUILD_FAILED,
    KIND_HANG,
    KIND_NOT_TRIGGERED,
    KIND_POC_INCOMPATIBLE,
    KIND_SANDBOX_FAILURE,
    KIND_TRIGGERED,
    BuildRecipe,
    BuildSlot,
    Oracle,
    OracleVerdict,
    PocSpec,
    build_identity,
    run_env,
    tree_hash,
)
from revenant.patchcore import Granularity, render_unified_diff
from revenant.patchcore.applier import apply_file_patch
from revenant.porter import (
    ABORT_COMPLEXITY,
    ABORT_TOO_MANY_CHUNKS,
    ABORT_TOO_MANY_FILES,
    CompositionConflict,
    FINAL_ABORTED,
    FINAL_REVIVED,
    KIND_PORT_CONFLICT,
    KIND_REVERT_CONFLICT,
    PROBE_BAD,
    PROBE_GOOD,
    PROBE_SKIP,
    Limits,
    Porter,
    PortPolicy,
    PreconditionViolated,
    RevivalRecord,
    SkipBudgetExhausted,
    derive_reverse_patch,
    find_breaking_commit,
    probe_answer,
)

from gitutil import (
    DiskTree, RepoBuilder, atimes_recorded, no_child_left, record_git, snapshot, worktrees,
)


@pytest.mark.parametrize("kind,answer", [
    (KIND_TRIGGERED, PROBE_GOOD),
    (KIND_NOT_TRIGGERED, PROBE_BAD),
    (KIND_BUILD_FAILED, PROBE_BAD),
    (KIND_POC_INCOMPATIBLE, PROBE_BAD),
    (KIND_HANG, PROBE_BAD),
    (KIND_SANDBOX_FAILURE, PROBE_SKIP),
    (KIND_PORT_CONFLICT, PROBE_BAD),
    (KIND_REVERT_CONFLICT, PROBE_BAD),
])
def test_probe_answer(kind, answer):
    assert probe_answer(kind) == answer


def call_bound(n: int, skip_budget: int = 3) -> int:
    return math.ceil(math.log2(max(n, 2))) + skip_budget + 1


class TestBisect:
    def probe_fn(self, flip, skip=()):
        def probe(cid):
            i = int(cid)
            if i in skip:
                return PROBE_SKIP
            return PROBE_BAD if i >= flip else PROBE_GOOD

        return probe

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 47, 60])
    def test_exact_flip_all_positions(self, n):
        ids = [str(i) for i in range(n)]
        for flip in range(n):
            res = find_breaking_commit(ids, self.probe_fn(flip), skip_budget=3)
            assert res.commit == str(flip)
            assert res.calls <= call_bound(n)

    def test_single_candidate_one_call(self):
        calls = []

        def probe(cid):
            calls.append(cid)
            return PROBE_BAD

        res = find_breaking_commit(["7"], probe, skip_budget=3)
        assert res.commit == "7"
        assert len(calls) == 1

    def test_no_flip_raises(self):
        ids = [str(i) for i in range(9)]
        with pytest.raises(PreconditionViolated):
            find_breaking_commit(ids, lambda c: PROBE_GOOD, skip_budget=3)

    def test_empty_range_raises(self):
        with pytest.raises(PreconditionViolated):
            find_breaking_commit([], lambda c: PROBE_BAD, skip_budget=3)

    def test_skipped_flip_returns_next_probeable(self):
        ids = [str(i) for i in range(16)]
        res = find_breaking_commit(ids, self.probe_fn(flip=6, skip={6, 7}), skip_budget=3)
        assert res.commit == "8"
        assert set(res.skipped) <= {"6", "7"}

    def test_skip_budget_exhausted(self):
        ids = [str(i) for i in range(16)]
        with pytest.raises(SkipBudgetExhausted):
            find_breaking_commit(ids, lambda c: PROBE_SKIP, skip_budget=3)

    def test_linear_scan_agreement_randomized(self):
        rng = random.Random(20240817)
        for _ in range(300):
            n = rng.randint(1, 90)
            flip = rng.randint(0, n - 1)
            skip = set(rng.sample(range(n), k=min(n - 1, rng.randint(0, 3))))
            ids = [str(i) for i in range(n)]
            # linear scan oracle: earliest probeable index at or after flip
            expect = next(
                (i for i in range(n) if i >= flip and i not in skip), None
            )
            probe = self.probe_fn(flip, skip)
            if expect is None:
                with pytest.raises(PreconditionViolated):
                    find_breaking_commit(ids, probe, skip_budget=3)
                continue
            res = find_breaking_commit(ids, probe, skip_budget=3)
            assert res.commit == str(expect)
            assert res.calls <= call_bound(n)

    def test_probe_order_over_a_window_with_skips_that_is_not_monotone(self):
        answers = dict(zip(range(16), "g b s s b g g b s b b g b b s b".split()))
        word = {"g": PROBE_GOOD, "b": PROBE_BAD, "s": PROBE_SKIP}
        probed = []

        def probe(cid):
            probed.append(cid)
            return word[answers[int(cid)]]

        res = find_breaking_commit([str(i) for i in range(16)], probe, skip_budget=3)
        assert probed == ["7", "3", "2", "4", "0", "1"]
        assert (res.commit, res.calls, res.skipped) == ("1", 6, ["3", "2"])

    def test_every_probe_lies_between_the_last_good_and_the_last_bad(self):
        # so a good answer above a bad one is never seen, and a window
        # that is not monotone cannot show in a bisection's answers
        rng = random.Random(20261020)
        for _ in range(2000):
            n = rng.randint(1, 40)
            answers = [rng.choice([PROBE_GOOD, PROBE_BAD, PROBE_SKIP]) for _ in range(n)]
            bounds = [-1, n]  # last good position, last bad position
            seen = []

            def probe(cid):
                pos = int(cid)
                seen.append(bounds[0] < pos < bounds[1])
                if answers[pos] == PROBE_GOOD:
                    bounds[0] = pos
                elif answers[pos] == PROBE_BAD:
                    bounds[1] = pos
                return answers[pos]

            try:
                find_breaking_commit([str(i) for i in range(n)], probe, rng.randint(0, 4))
            except (PreconditionViolated, SkipBudgetExhausted):
                pass
            assert seen and all(seen)


class TestDeriveReverse:
    def test_single_fix_inverse_restores_vulnerable_text(self, tmp_path):
        fx = forge_repo(tmp_path, [])
        with CommitMemo(fx.repo) as memo:
            reverse = derive_reverse_patch(memo, [fx.fix])
        with checkout_worktree(fx.repo, fx.fix, tmp_path / "wt") as wt:
            fixed = wt.read("pack.c")
            new_text, _ = apply_file_patch(fixed, reverse.files[0])
            assert "0xFFFFu" in new_text
            assert "record too long" not in new_text

    def test_multi_fix_composition(self, tmp_path):
        rb = RepoBuilder(tmp_path / "repo")
        base = "\n".join(f"line {i}" for i in range(30)) + "\n"
        rb.commit({"a.txt": base}, "base")
        v1 = base.replace("line 5", "line 5 patched")
        rb.commit({"a.txt": v1}, "first fix")
        v2 = v1.replace("line 20", "line 20 hardened")
        rb.commit({"a.txt": v2}, "second fix")
        with CommitMemo(rb.root) as memo:
            reverse = derive_reverse_patch(memo, ["t1", "t2"])
        new_text, _ = apply_file_patch(v2, reverse.files[0])
        assert new_text == base

    def test_composition_checks_nothing_out(self, tmp_path, monkeypatch):
        rb = RepoBuilder(tmp_path / "repo")
        base = "\n".join(f"line {i}" for i in range(30)) + "\n"
        rb.commit({"a.txt": base, "b.txt": "kept\n"}, "base")
        rb.commit({"a.txt": base.replace("line 5", "line 5 patched"), "c.txt": "new\n"},
                  "first fix")
        rb.commit({"b.txt": "kept\nhardened\n"}, "second fix", delete=["c.txt"])
        spawned = record_git(monkeypatch)
        with CommitMemo(rb.root) as memo:
            reverse = derive_reverse_patch(memo, ["t1", "t2"])
        assert sorted(fp.path for fp in reverse.files) == ["a.txt", "b.txt"]
        assert "worktree" not in spawned
        assert spawned.count("cat-file") == 1
        assert no_child_left()

    def test_binary_file_in_a_composition_is_a_composition_conflict(self, tmp_path):
        rb = RepoBuilder(tmp_path / "repo")
        base = "\n".join(f"line {i}" for i in range(30)) + "\n"
        rb.commit({"a.txt": base, "blob.bin": "\0one\n"}, "base")
        rb.commit({"a.txt": base.replace("line 5", "line 5 patched")}, "first fix")
        rb.commit({"blob.bin": "\0two\n"}, "second fix")
        with pytest.raises(CompositionConflict, match="HEAD: does not apply cleanly to blob.bin"):
            with CommitMemo(rb.root) as memo:
                derive_reverse_patch(memo, ["HEAD~1", "HEAD"])

    # a commit between the two fixes adds a file the second fix edits, or
    # deletes one the second fix creates again
    @pytest.mark.parametrize("between,deleted,later,message", [
        ({"new.txt": "one\n"}, [], {"new.txt": "one\ntwo\n"}, "t3: new.txt is missing"),
        ({}, ["b.txt"], {"b.txt": "again\n"}, "t3: creates b.txt which already exists"),
    ], ids=["missing", "exists"])
    def test_a_composition_conflict_names_its_file(self, tmp_path, between, deleted, later,
                                                   message):
        rb = RepoBuilder(tmp_path / "repo")
        base = "\n".join(f"line {i}" for i in range(30)) + "\n"
        rb.commit({"a.txt": base, "b.txt": "kept\n"}, "base")
        rb.commit({"a.txt": base.replace("line 5", "line 5 patched")}, "first fix")
        rb.commit(between, "not a fix", delete=deleted)
        rb.commit(later, "second fix")
        with CommitMemo(rb.root) as memo:
            with pytest.raises(CompositionConflict) as exc:
                derive_reverse_patch(memo, ["t1", "t3"])
        assert str(exc.value) == message

    @pytest.mark.parametrize("before,after", [("", "one\n"), ("one\n", "")],
                             ids=["filled", "emptied"])
    def test_composition_restores_a_filled_or_emptied_file(self, tmp_path, before, after):
        # the file exists before and after the fixes, however empty
        rb = RepoBuilder(tmp_path / "repo")
        base = "\n".join(f"line {i}" for i in range(30)) + "\n"
        rb.commit({"a.txt": base, "x.txt": before}, "base")
        rb.commit({"a.txt": base.replace("line 5", "line 5 patched")}, "first fix")
        rb.commit({"x.txt": after}, "second fix")
        rb.commit({"b.txt": "later\n"}, "later")
        with ReferencePorter(rb.root, *NO_BUILD, tmp_path, build=False) as porter:
            assert porter.attempt("t3", (), ["t1", "t2"]).verdict.kind == KIND_TRIGGERED
            assert porter.trees[-1].read("x.txt") == before

    def test_reverse_patch_digest_is_stable(self, tmp_path):
        fx = forge_repo(tmp_path, [])
        with CommitMemo(fx.repo) as memo:
            r1 = derive_reverse_patch(memo, [fx.fix])
        with CommitMemo(fx.repo) as memo:
            r2 = derive_reverse_patch(memo, [fx.fix])
        assert render_unified_diff(r1) == render_unified_diff(r2)


SCENARIOS = {
    0: [],
    1: ["C1"],
    2: ["C1", "C4"],
    3: ["C1", "C4", "C5"],
    4: ["C1", "C4", "C5", "C3"],
}


def make_porter(fx, tmp_path, limits=Limits(), **kw):
    return Porter(
        fx.repo, fx.recipe, fx.poc, limits=limits, scratch_dir=tmp_path / "scratch", **kw
    )


class TestRevive:
    @pytest.mark.parametrize("k", sorted(SCENARIOS))
    def test_revive_matches_forged_truth(self, tmp_path, k):
        fx = forge_repo(tmp_path, SCENARIOS[k])
        porter = make_porter(fx, tmp_path)
        rec = porter.revive("CVE-0000-0001", "packdemo", [fx.fix], fx.target)
        assert rec.final == FINAL_REVIVED
        assert rec.revert_stack == fx.expected_stack
        assert rec.effort["commits_reverted"] == k
        assert rec.verdict["kind"] == KIND_TRIGGERED
        assert rec.flags["origin_verified"]
        assert not rec.flags["non_monotone"]
        if k == 0:
            assert rec.effort["bisect_rounds"] == 0

    def test_one_past_budget_aborts_for_complexity(self, tmp_path):
        fx = forge_repo(tmp_path, ["C1", "C4", "C5", "C3", "C2"])
        porter = make_porter(fx, tmp_path)
        rec = porter.revive("CVE-0000-0002", "packdemo", [fx.fix], fx.target)
        assert rec.final == FINAL_ABORTED
        assert rec.abort_reason == ABORT_COMPLEXITY
        assert rec.revert_stack == fx.expected_stack
        assert len(rec.revert_stack) == 4
        assert rec.touched_regions == []

    def test_hang_revival(self, tmp_path):
        fx = forge_repo(tmp_path, [], poc_kind="hang")
        porter = make_porter(fx, tmp_path)
        rec = porter.revive("CVE-0000-0003", "packdemo", [fx.fix], fx.target)
        assert rec.final == FINAL_REVIVED
        assert rec.verdict["detector_class"] == "memory-exhaustion-by-hang"

    def test_oversized_breaker_aborts_too_many_files(self, tmp_path):
        fx = forge_repo(tmp_path, ["C1"])
        porter = make_porter(fx, tmp_path, limits=Limits(max_files_per_commit=0))
        rec = porter.revive("CVE-0000-0004", "packdemo", [fx.fix], fx.target)
        assert rec.final == FINAL_ABORTED
        assert rec.abort_reason == ABORT_TOO_MANY_FILES
        assert rec.aborted_on == fx.breakers[0]["id"]
        assert rec.revert_stack == []

    def test_oversized_breaker_aborts_too_many_chunks(self, tmp_path):
        fx = forge_repo(tmp_path, ["C1"])
        porter = make_porter(fx, tmp_path, limits=Limits(max_chunks_per_file=0))
        rec = porter.revive("CVE-0000-0005", "packdemo", [fx.fix], fx.target)
        assert rec.final == FINAL_ABORTED
        assert rec.abort_reason == ABORT_TOO_MANY_CHUNKS

    def test_broken_poc_violates_precondition(self, tmp_path):
        fx = forge_repo(tmp_path, [])
        fx.poc_file.write_bytes(b"\x02\x00ab")  # harmless record
        porter = make_porter(fx, tmp_path)
        with pytest.raises(PreconditionViolated):
            porter.revive("CVE-0000-0006", "packdemo", [fx.fix], fx.target)

    def test_record_is_deterministic_across_runs(self, tmp_path):
        records = []
        for name in ("a", "b"):
            fx = forge_repo(tmp_path / name, ["C1"])
            porter = Porter(
                fx.repo, fx.recipe, fx.poc, limits=Limits(), scratch_dir=tmp_path / f"s{name}"
            )
            # the PoC path differs per run; pin it out of the comparison
            rec = porter.revive("CVE-0000-0007", "packdemo", [fx.fix], fx.target)
            records.append(rec.to_json())
        assert records[0] == records[1]

    def test_record_round_trips_byte_identical(self, tmp_path):
        fx = forge_repo(tmp_path, ["C1"])
        porter = make_porter(fx, tmp_path)
        rec = porter.revive("CVE-0000-0008", "packdemo", [fx.fix], fx.target)
        text = rec.to_json()
        assert RevivalRecord.from_json(text).to_json() == text
        assert '"wall_time"' not in text
        data = rec.to_dict()
        assert list(data) == [
            "schema", "cve", "project", "fix_commits", "target", "granularity", "final",
            "abort_reason", "aborted_on", "revert_stack", "verdict", "effort", "flags",
            "touched_regions", "port_digest",
        ]
        defaults = {"abort_reason": "", "aborted_on": "", "verdict": {}, "effort": {},
                    "flags": {}, "touched_regions": [], "port_digest": ""}
        for key, default in defaults.items():
            partial = {k: v for k, v in data.items() if k != key}
            got = RevivalRecord.from_dict(partial).to_dict()
            assert got == {**data, key: default}
            assert list(got) == list(data)
        for key in ("cve", "fix_commits", "revert_stack"):
            with pytest.raises(KeyError):
                RevivalRecord.from_dict({k: v for k, v in data.items() if k != key})

    def test_revived_record_carries_regions(self, tmp_path):
        fx = forge_repo(tmp_path, ["C1"])
        porter = make_porter(fx, tmp_path)
        rec = porter.revive("CVE-0000-0009", "packdemo", [fx.fix], fx.target)
        assert rec.touched_regions
        assert all(r["file"] == "pack.c" for r in rec.touched_regions)
        assert all(1 <= r["start"] <= r["end"] for r in rec.touched_regions)

    @pytest.mark.parametrize("archetypes,final", [
        (SCENARIOS[4], FINAL_REVIVED),
        (SCENARIOS[4] + ["C2"], FINAL_ABORTED),
    ])
    def test_every_attempt_reverts_every_breaker_found_so_far(
            self, tmp_path, monkeypatch, archetypes, final):
        fx = forge_repo(tmp_path, archetypes)
        reverts = []
        attempt = Porter.attempt

        def spy(porter, ref, reverts_newest_first, fix_commits):
            reverts.append(list(reverts_newest_first))
            return attempt(porter, ref, reverts_newest_first, fix_commits)

        monkeypatch.setattr(Porter, "attempt", spy)
        with make_porter(fx, tmp_path, limits=Limits(max_reverted_commits=4)) as porter:
            rec = porter.revive("CVE-0000-0017", "packdemo", [fx.fix], fx.target)
        assert (rec.final, rec.revert_stack) == (final, fx.expected_stack)
        # the origin reverts nothing; each round's attempts then revert
        # the stack as it stands, newest first, and rounds grow it by one
        stack = rec.revert_stack
        assert len(stack) == 4
        assert reverts[0] == []
        assert [r for r, _ in groupby(reverts[1:])] == [stack[k:] for k in range(len(stack), -1, -1)]


class TestTiers:
    def test_tier_statuses_by_archetype(self, tmp_path):
        expectations = {
            "C1": "port-conflict",
            "C3": "poc-incompatible",
            "C4": "not-triggered",
        }
        for arch, want in expectations.items():
            fx = forge_repo(tmp_path / arch, [arch])
            porter = Porter(
                fx.repo, fx.recipe, fx.poc, limits=Limits(), scratch_dir=tmp_path / f"s{arch}"
            )
            res = porter.evaluate_tiers(
                [fx.fix], {"reference": fx.fix, "latest": fx.target}
            )
            assert res["reference"].status == "triggered"
            assert res["latest"].status == want

    def test_missing_tier_is_omitted(self, tmp_path):
        fx = forge_repo(tmp_path, [])
        porter = make_porter(fx, tmp_path)
        res = porter.evaluate_tiers([fx.fix], {"reference": fx.fix, "latest": ""})
        assert set(res) == {"reference"}


LIB_C = """\
#include "limits.h"

int parse(const char *s, int n)
{
    int total = 0;
    for (int i = 0; i < n; i++) {
        total += s[i];
    }
    return total;
}

void reset(char *out, int n)
{
    int i = 0;
    while (i < n) {
        out[i] = 0;
        i++;
    }
}

int emit(char *out, int n)
{
    for (int i = 0; i <= n; i++) {
        out[i] = 'x';
    }
    return n;
}
"""

LIB_C_FIXED = LIB_C.replace(
    "    int total = 0;\n", "    int total = 0;\n    if (n > MAX_LEN)\n        return -1;\n"
).replace("i <= n", "i < n")

def effort(calls, reverted, hunks, rounds):
    return {"oracle_calls": calls, "commits_reverted": reverted, "files_touched": 2,
            "hunks_applied": hunks, "bisect_rounds": rounds}


# each hunk of lib.c's reverse fix lands 3 lines lower at the target
HUNK_REGIONS = [
    {"file": "lib.c", "start": 6, "end": 11},
    {"file": "lib.c", "start": 23, "end": 29},
    {"file": "limits.h", "start": 1, "end": 1},
]

GRANULARITY_RECORDS = [
    # whole-files applies strictly, so it reverts the banner commit, then
    # replaces each file in one hunk
    (Granularity.WholeFiles, effort(4, 1, 2, 1), [
        {"file": "lib.c", "start": 1, "end": 27},
        {"file": "limits.h", "start": 1, "end": 1},
        {"file": "lib.c", "start": 1, "end": 3},
    ]),
    (Granularity.PatchHunks, effort(2, 0, 3, 0), HUNK_REGIONS),
    (Granularity.FunctionScope, effort(2, 0, 3, 0), HUNK_REGIONS),
    (Granularity.ChunkScope, effort(2, 0, 3, 0), HUNK_REGIONS),
]


class TestGranularity:
    def test_whole_files_port_succeeds_on_clean_history(self, tmp_path):
        fx = forge_repo(tmp_path, [])
        porter = make_porter(
            fx,
            tmp_path,
            policy=PortPolicy(granularity=Granularity.WholeFiles),
        )
        rec = porter.revive("CVE-0000-0010", "packdemo", [fx.fix], fx.target)
        assert rec.final == FINAL_REVIVED
        assert rec.granularity == "whole-files"

    def test_function_scope_port(self, tmp_path):
        fx = forge_repo(tmp_path, [])
        porter = make_porter(
            fx,
            tmp_path,
            policy=PortPolicy(granularity=Granularity.FunctionScope),
        )
        rec = porter.revive("CVE-0000-0011", "packdemo", [fx.fix], fx.target)
        assert rec.final == FINAL_REVIVED

    @pytest.mark.parametrize("granularity", [Granularity.WholeFiles, Granularity.FunctionScope])
    def test_a_fixed_file_absent_from_the_tree_is_a_port_conflict(self, tmp_path, granularity):
        rb = RepoBuilder(tmp_path / "repo")
        rb.commit({"a.txt": "a\n", "b.txt": "b\n"}, "base")
        rb.commit({"a.txt": "a fixed\n", "b.txt": "b fixed\n"}, "fix")
        rb.commit({}, "drop b.txt", delete=["b.txt"])
        with ReferencePorter(rb.root, *NO_BUILD, tmp_path, build=False,
                             policy=PortPolicy(granularity=granularity)) as porter:
            assert porter.attempt("t2", (), ["t1"]).verdict.kind == KIND_PORT_CONFLICT
            assert porter.attempt("t1", (), ["t1"]).verdict.kind == KIND_TRIGGERED

    @pytest.mark.parametrize("granularity,effort,regions", GRANULARITY_RECORDS)
    def test_records_pin_each_granularity(self, tmp_path, granularity, effort, regions):
        # the fix changes two functions of lib.c and limits.h; the target
        # adds lines above both of lib.c's hunks
        rb = RepoBuilder(tmp_path / "repo")
        rb.commit({"lib.c": LIB_C, "limits.h": "#define MAX_LEN 64\n"}, "base")
        rb.commit({"lib.c": LIB_C_FIXED, "limits.h": "#define MAX_LEN 32\n"}, "fix")
        rb.commit({"lib.c": "/* lib.c */\n/* demo */\n\n" + LIB_C_FIXED}, "banner")
        with Porter(rb.root, *NO_BUILD, oracle=RecordingOracle(tmp_path / "verdicts"),
                    policy=PortPolicy(granularity=granularity), limits=Limits(),
                    scratch_dir=tmp_path / "scratch") as porter:
            rec = porter.revive("CVE-0000-0012", "demo", ["t1"], "t2")
        assert rec.final == FINAL_REVIVED
        assert rec.effort == effort
        assert rec.touched_regions == regions
        assert rec.port_digest == (
            "95d9882ebd1b9aed0731d4275ddd9137de24f78ae2e3103cc4d66aa5324d20bd"
        )


def test_a_revert_region_is_where_the_revert_applied(tmp_path):
    rb = RepoBuilder(tmp_path / "repo")
    base = "".join(f"line {i}\n" for i in range(30))
    rb.commit({"a.txt": base, "fix.txt": "guard\n"}, "base")
    rb.commit({"fix.txt": "guard\ncheck\n"}, "fix")
    broken = base.replace("line 20\n", "line 20 broken\n")
    rb.commit({"a.txt": broken}, "breaker")
    rb.commit({"a.txt": "one\ntwo\nthree\n" + broken}, "lines above the breaker's hunk")
    with ReferencePorter(rb.root, *NO_BUILD, tmp_path, build=False) as porter:
        att = porter.attempt("t3", ["t2"], ["t1"])
    assert att.verdict.kind == KIND_TRIGGERED
    # the breaker's hunk spans lines 18-24 at its commit and applies 3 lines lower
    assert att.regions == [
        {"file": "fix.txt", "start": 1, "end": 1},
        {"file": "a.txt", "start": 21, "end": 27},
    ]


@pytest.mark.parametrize("granularity,max_reverted,target,kind,evidence", [
    (Granularity.PatchHunks, 0, "t2", KIND_PORT_CONFLICT,
     "reverse patch does not apply at {t2}: a.txt (rejected)"),
    (Granularity.WholeFiles, 0, "t2", KIND_PORT_CONFLICT,
     "reverse patch does not apply at {t2}: a.txt: hunk 1: no anchor"),
    (Granularity.PatchHunks, 1, "t3", KIND_REVERT_CONFLICT, "revert of {t2} conflicts in: a.txt"),
], ids=["port-conflict", "whole-files", "revert-conflict"])
def test_an_aborted_record_keeps_its_conflict_verdict(tmp_path, granularity, max_reverted,
                                                      target, kind, evidence):
    # t2 rewrites the line the fix added, so the reverse fix does not
    # apply past it; t3 rewrites it again, so t2 does not revert past t3
    rb = RepoBuilder(tmp_path / "repo")
    rb.commit({"a.txt": "guard\n"}, "base")
    rb.commit({"a.txt": "guard\ncheck\n"}, "fix")
    t2 = rb.commit({"a.txt": "guard\ncheck twice\n"}, "breaker")
    rb.commit({"a.txt": "guard\ncheck thrice\n"}, "rewrites the breaker's line")
    with Porter(rb.root, *NO_BUILD, oracle=RecordingOracle(tmp_path / "verdicts"),
                limits=Limits(max_reverted_commits=max_reverted),
                policy=PortPolicy(granularity=granularity),
                scratch_dir=tmp_path / "scratch") as porter:
        rec = porter.revive("CVE-0000-0016", "demo", ["t1"], target)
    assert (rec.final, rec.abort_reason) == (FINAL_ABORTED, ABORT_COMPLEXITY)
    assert rec.revert_stack == [t2] * max_reverted
    assert rec.verdict == {"kind": kind, "detector_class": "", "evidence": evidence.format(t2=t2)}
    assert rec.touched_regions == []


class RecordingOracle(Oracle):
    """Answers Triggered without building, and keeps each tree's paths."""

    def __init__(self, store_dir):
        super().__init__(store_dir, scratch_dir=store_dir.parent / "oracle")
        self.trees = []

    def verdict(self, tree, recipe, poc):
        self.trees.append([path for path, _, _ in tree.entries()])
        return OracleVerdict(KIND_TRIGGERED)


NO_BUILD = (BuildRecipe.make(["true"], []), PocSpec("true", ""))


# ---------- attempt trees against real checkouts ----------


def tamper(root):
    """Overwrite the first regular file under `root`, as a build step might."""
    for rel, kind in sorted(snapshot(root).items()):
        if kind[0] != "link":
            (root / rel).write_bytes(b"tampered\n")
            return


class ReferenceOracle(Oracle):
    """Hands each tree to `check` before answering; without `build` it
    answers Triggered and builds nothing.  It drops the store's traces
    before each verdict, so every tree it is asked about is built."""

    def __init__(self, tmp_path, build=True):
        super().__init__(tmp_path / "store", scratch_dir=tmp_path / "oracle")
        self.build = build
        self.check = None

    def verdict(self, tree, recipe, poc):
        self.check(tree, recipe)
        if not self.build:
            return OracleVerdict(KIND_TRIGGERED)
        shutil.rmtree(self.store.root / "traces", ignore_errors=True)
        return super().verdict(tree, recipe, poc)


class ReferencePorter(Porter):
    """Replays every attempt on a real checkout: the attempt's ref, with
    `edit` making the attempt's edits on disk.  The disk edit must meet
    the same conflict, or touch as many files and hunks in the same
    regions, as the attempt did in memory.  A tree that reaches the oracle
    must hash as the checkout does, and a build slot synced from it must
    hold the same bytes, modes and link targets as one synced from the
    checkout, and as the checkout itself, also after a build step
    overwrote a file."""

    def __init__(self, repo, recipe, poc, tmp_path, build=True, limits=Limits(), **kw):
        self.tmp = tmp_path
        oracle = ReferenceOracle(tmp_path, build)
        super().__init__(repo, recipe, poc, oracle=oracle, limits=limits,
                         scratch_dir=tmp_path / "scratch", **kw)
        oracle.check = self._check
        (tmp_path / "slots").mkdir()
        self.slots = [BuildSlot(tmp_path / "slots") for _ in range(2)]
        self.replayed = 0
        self.trees = []  # every tree the oracle was asked about

    def close(self):
        for slot in self.slots:
            slot.close()
        super().close()

    @contextmanager
    def _replay(self, ref, reverts, fix_commits):
        """A checkout of `ref` with the attempt's edits made on disk, and
        what `edit` returned there."""
        self.replayed += 1
        dest = self.tmp / f"replay-{self.replayed}"
        with checkout_worktree(self.repo, ref, dest) as wt:
            yield self.edit(wt, reverts, fix_commits), wt

    def attempt(self, ref, reverts_newest_first, fix_commits):
        self._pending = (list(reverts_newest_first), list(fix_commits))
        self._on_disk = None  # the disk edit, made by `_check` when the oracle is asked
        result = super().attempt(ref, reverts_newest_first, fix_commits)
        if self._on_disk is None:
            with self._replay(ref, *self._pending) as (self._on_disk, _):
                assert self._on_disk.verdict == result.verdict
        on_disk = self._on_disk
        assert (on_disk.files_touched, on_disk.hunks_applied, on_disk.regions) == (
            result.files_touched, result.hunks_applied, result.regions)
        return result

    def _check(self, tree, recipe):
        with self._replay(tree.commit, *self._pending) as (self._on_disk, wt):
            assert self._on_disk.verdict is None
            assert tree_hash(tree) == tree_hash(DiskTree(wt.path))
            want = snapshot(wt.path)
            identity = build_identity(recipe, run_env(recipe.env))
            for slot, source in zip(self.slots, (tree, DiskTree(wt.path))):
                tamper(slot.root)
                slot.sync(source, recipe, identity)
                assert snapshot(slot.root) == want
        self.trees.append(tree)


class TestAttemptTree:
    def test_every_attempt_of_a_forged_revive_matches_a_checkout(self, tmp_path):
        fx = forge_repo(tmp_path / "fx", SCENARIOS[4])
        with ReferencePorter(fx.repo, fx.recipe, fx.poc, tmp_path) as porter:
            rec = porter.revive("CVE-0000-0014", "packdemo", [fx.fix], fx.target)
        assert rec.final == FINAL_REVIVED
        assert rec.revert_stack == fx.expected_stack
        assert porter.replayed == porter.attempt_count
        assert len(porter.trees) == porter.oracle.counters.get("verdicts", 0) > 0

    @pytest.mark.skipif(shutil.which("make") is None or shutil.which("cc") is None,
                        reason="needs make and cc")
    def test_every_attempt_of_a_make_project_revive_matches_a_checkout(self, tmp_path):
        repo, fix, target, recipe, poc = forge_make_project(tmp_path / "fx", ["C5", "C3", "C4"])
        with ReferencePorter(repo, recipe, poc, tmp_path) as porter:
            rec = porter.revive("CVE-0000-0015", "packdemo", [fix], target)
        assert rec.final == FINAL_REVIVED
        assert len(rec.revert_stack) == 3
        assert porter.replayed == porter.attempt_count
        assert len(porter.trees) == porter.oracle.counters.get("verdicts", 0) > 0

    def test_modes_links_nested_dirs_and_created_and_deleted_files(self, tmp_path):
        rb = RepoBuilder(tmp_path / "repo")
        ten = "".join(f"line {i}\n" for i in range(1, 11))
        (rb.root / "src" / "deep").mkdir(parents=True)
        (rb.root / "link.c").symlink_to("src/deep/core.c")
        (rb.root / "tools").mkdir()
        (rb.root / "tools" / "dir-link").symlink_to("../src")
        rb.commit({"a.txt": ten, "run.sh": "#!/bin/sh\necho one\n",
                   "src/deep/core.c": "int core;\n", "docs/old.txt": "old\n",
                   "legacy.txt": "legacy\n"}, "base")
        (rb.root / "run.sh").chmod(0o755)
        rb.commit({}, "make run.sh executable")
        rb.commit({"a.txt": ten.replace("line 5\n", "line 5 fixed\n")}, "fix",
                  delete=["legacy.txt"])
        rb.commit({"new/dir/new.txt": "new\n"}, "add a nested file")
        rb.commit({}, "drop docs/old.txt", delete=["docs/old.txt"])
        rb.commit({"run.sh": "#!/bin/sh\necho two\n"}, "edit the executable")
        rb.commit({"README": "notes\n"}, "noise")
        attempts = [
            ("t6", []),
            ("t6", ["t5"]),
            ("t6", ["t5", "t4", "t3"]),
            ("t4", ["t4", "t3"]),
            ("t3", ["t3"]),
            ("t2", []),
        ]
        with ReferencePorter(rb.root, *NO_BUILD, tmp_path, build=False) as porter:
            for ref, reverts in attempts:
                assert porter.attempt(ref, reverts, ["t2"]).verdict.kind == KIND_TRIGGERED
        assert len(porter.trees) == len(attempts)
        modes = {path: mode for path, mode, _ in porter.trees[1].entries()}
        assert modes["run.sh"] == MODE_EXEC  # an edited file keeps its mode
        assert modes["link.c"] == modes["tools/dir-link"] == MODE_LINK
        assert worktrees(rb.root) == [f"worktree {rb.root}"]


class TestWorktreeSlot:
    def test_slot_keeps_no_trace_of_created_or_deleted_files(self, tmp_path):
        rb = RepoBuilder(tmp_path / "repo")
        ten = "".join(f"line {i}\n" for i in range(1, 11))
        rb.commit({"a.txt": ten, "old.txt": "old\n", "legacy.txt": "legacy\n"}, "base")
        rb.commit({"a.txt": ten.replace("line 5\n", "line 5 fixed\n")}, "fix",
                  delete=["legacy.txt"])
        rb.commit({"new.txt": "new\n"}, "add new.txt")
        rb.commit({}, "drop old.txt", delete=["old.txt"])
        rb.commit({"README": "notes\n"}, "noise")
        with ReferencePorter(rb.root, *NO_BUILD, tmp_path, build=False) as porter:
            # reverting t3 then t2 recreates old.txt and deletes new.txt; the
            # reverse fix recreates legacy.txt
            assert porter.attempt("t3", ["t3", "t2"], ["t1"]).verdict.kind == KIND_TRIGGERED
            assert porter.attempt("t4", [], ["t1"]).verdict.kind == KIND_TRIGGERED
            trees = porter.trees
            for tree, reverts in zip(trees, (["t3", "t2"], [])):
                with porter._replay(tree.commit, reverts, ["t1"]) as (edited, wt):
                    assert edited.verdict is None
                    assert tree_hash(tree) == tree_hash(DiskTree(wt.path))
        assert [[path for path, _, _ in tree.entries()] for tree in trees] == [
            ["a.txt", "legacy.txt", "old.txt"],
            ["README", "a.txt", "legacy.txt", "new.txt"],
        ]
        assert worktrees(rb.root) == [f"worktree {rb.root}"]

    def test_porters_on_one_repository_run_in_parallel(self, tmp_path):
        fx = forge_repo(tmp_path / "fx", ["C1", "C4"])
        errors = []
        done = []

        def work(name):
            try:
                with Porter(fx.repo, fx.recipe, fx.poc,
                            oracle=RecordingOracle(tmp_path / name / "store"), limits=Limits(),
                            scratch_dir=tmp_path / name / "scratch") as porter:
                    for _ in range(40):
                        for ref in (fx.fix, fx.target):
                            porter.attempt(ref, (), [fx.fix])
                    done.append(porter.attempt_count)
            except Exception as exc:  # noqa: BLE001 - reported by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(n,)) for n in "abcd"]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert done == [80] * 4
        assert len(worktrees(fx.repo)) == 1
        assert not list(tmp_path.glob("*/scratch/wt-*"))

    def test_revive_starts_only_a_reader_and_a_differ(self, tmp_path, monkeypatch):
        fx = forge_repo(tmp_path, SCENARIOS[4])
        spawned = record_git(monkeypatch)
        with make_porter(fx, tmp_path) as porter:
            rec = porter.revive("CVE-0000-0010", "packdemo", [fx.fix], fx.target)
        assert rec.revert_stack == fx.expected_stack
        # an attempt checks nothing out, every name, range, listing,
        # patched text and synced blob comes over one `cat-file --batch`,
        # and every diff over one `diff-tree --stdin`: 2 git processes
        # however many attempts run
        assert spawned == ["cat-file", "diff-tree"]
        assert porter.commits.spawns == len(spawned)

    def test_close_leaves_no_child(self, tmp_path):
        fx = forge_repo(tmp_path / "fx", ["C1"])
        porter = make_porter(fx, tmp_path)
        assert porter.attempt(fx.target, (), [fx.fix]).verdict.kind == KIND_PORT_CONFLICT
        assert not no_child_left()  # the memo's reader
        porter.close()
        assert no_child_left()

    def test_close_removes_the_build_slot_of_the_oracle_it_made(self, tmp_path):
        fx = forge_repo(tmp_path / "fx", [])
        slots = tmp_path / "scratch" / "oracle"
        with make_porter(fx, tmp_path) as porter:
            assert porter.attempt(fx.fix, (), [fx.fix]).verdict.kind == KIND_TRIGGERED
            assert [p.name[:7] for p in slots.iterdir()] == ["oracle-"]
        assert list(slots.iterdir()) == []
        assert len(worktrees(fx.repo)) == 1

    def test_close_removes_the_build_slot_of_a_passed_oracle(self, tmp_path):
        fx = forge_repo(tmp_path / "fx", [])
        oracle = Oracle(tmp_path / "store", scratch_dir=tmp_path / "oracle")
        with Porter(fx.repo, fx.recipe, fx.poc, oracle=oracle, limits=Limits(),
                    scratch_dir=tmp_path / "scratch") as porter:
            assert porter.attempt(fx.fix, (), [fx.fix]).verdict.kind == KIND_TRIGGERED
            assert [p.name[:7] for p in (tmp_path / "oracle").iterdir()] == ["oracle-"]
        assert list((tmp_path / "oracle").iterdir()) == []


# ---------- incremental builds against clean builds ----------

UNITS = 3
MAKEFILE = (
    "OBJS = $(patsubst %.c,%.o,$(wildcard *.c lib/*.c))\n"
    "pack_tool: $(OBJS)\n\tcc -o $@ $(OBJS)\n\n"
    "%.o: %.c pack.h\n\tcc -O0 -c -o $@ $<\n"
)


def forge_make_project(root, archetypes, notes=False):
    """The forge's pack_tool with a few more units, built by make, under a
    history whose noise edits a unit, edits pack.h (which every unit
    includes) or renames a unit (whose old copy would then link twice).
    With `notes`, each noise commit is followed by one that edits only
    README, which the build never reads."""
    rb = RepoBuilder(root / "repo")
    files = {"pack.h": PACK_H, "pack.c": PACK_C_VULN, "tool.c": TOOL_C, "README": README,
             "Makefile": MAKEFILE}
    for i in range(UNITS):
        files[f"lib/u{i}.c"] = f"int u{i}_f0(int x) {{ return x + {i}; }}\n"

    def noise(n):
        units = sorted(p for p in files if p.startswith("lib/"))
        unit = units[n % len(units)]
        gone = []
        if n % 3 == 0:
            files[unit] += f"int n{n}(int x) {{ return x * {n + 2}; }}\n"
        elif n % 3 == 1:
            files["pack.h"] += f"/* note {n} */\n"
        else:
            files[f"lib/moved{n}.c"] = files.pop(unit)
            gone.append(unit)
        rb.commit(files, f"noise {n}", delete=gone)
        if notes:
            files["README"] += f"note {n}\n"
            rb.commit(files, f"note {n}")

    rb.commit(files, "initial import")
    noise(0)
    files.update(apply_fix(files))
    fix = rb.commit(files, "fix")
    for n, arch in enumerate(archetypes, start=1):
        noise(n)
        transform, message = BREAKERS[arch]
        files.update(transform(files))
        rb.commit(files, message)
    noise(len(archetypes) + 1)
    poc_file = root / "poc.bin"
    poc_file.write_bytes(overflow_poc_bytes())
    recipe = BuildRecipe.make(["make -s -j2"], ["pack_tool"], timeout=120)
    poc = PocSpec(command="{binary} -i {input}", input_file=str(poc_file),
                  expected_detector="heap-buffer-overflow")
    return rb.root, fix, rb.head(), recipe, poc


class VerdictLog(Oracle):
    """Logs each verdict with its tree's entries, and keeps the trees.
    With `clean`, every verdict comes from a fresh oracle on an empty
    store, so from a clean build."""

    def __init__(self, store_dir, scratch_dir, clean=False):
        super().__init__(store_dir, scratch_dir=scratch_dir)
        self.clean = clean
        self.log = []
        self.trees = []

    def verdict(self, tree, recipe, poc):
        if self.clean:
            fresh = Oracle(self.store.root / f"clean-{len(self.log)}",
                           scratch_dir=self.scratch_dir)
            try:
                v = fresh.verdict(tree, recipe, poc)
            finally:
                fresh.close()
        else:
            v = super().verdict(tree, recipe, poc)
        self.log.append((list(tree.entries()), v.to_dict()))
        self.trees.append(tree)
        return v


@pytest.mark.skipif(shutil.which("make") is None or shutil.which("cc") is None,
                    reason="needs make and cc")
@pytest.mark.parametrize("archetypes", [["C1", "C4"], ["C5", "C3", "C4"], ["C6", "C2", "C4"]])
def test_incremental_builds_match_clean_builds(tmp_path, archetypes):
    repo, fix, target, recipe, poc = forge_make_project(tmp_path / "fx", archetypes)
    runs = {}
    for clean in (False, True):
        oracle = VerdictLog(tmp_path / f"store-{clean}", tmp_path / f"oracle-{clean}", clean)
        with Porter(repo, recipe, poc, oracle=oracle, limits=Limits(),
                    scratch_dir=tmp_path / f"scratch-{clean}") as porter:
            record = porter.revive("CVE-0000-0013", "packdemo", [fix], target)
        runs[clean] = (record.to_json(), oracle.log)
        assert record.final == FINAL_REVIVED
        assert len(record.revert_stack) == len(archetypes)
        if not clean:
            assert oracle.counters["builds"] >= 3  # one slot built several trees
    assert runs[False] == runs[True]


@pytest.mark.parametrize("project", [
    "forge",
    pytest.param("make", marks=pytest.mark.skipif(
        shutil.which("make") is None or shutil.which("cc") is None, reason="needs make and cc")),
])
def test_every_verdict_of_a_revive_matches_a_fresh_oracle(tmp_path, project):
    """Replay: each verdict a revive got, exact, traced or built, equals
    the verdict of a fresh oracle on an empty store for the same tree."""
    if project == "make":
        repo, fix, target, recipe, poc = forge_make_project(
            tmp_path / "fx", ["C5", "C3", "C4"], notes=True)
    else:
        fx = forge_repo(tmp_path / "fx", SCENARIOS[4])
        repo, fix, target, recipe, poc = fx.repo, fx.fix, fx.target, fx.recipe, fx.poc
    oracle = VerdictLog(tmp_path / "store", tmp_path / "oracle")
    with Porter(repo, recipe, poc, oracle=oracle, limits=Limits(),
                scratch_dir=tmp_path / "scratch") as porter:
        assert porter.revive("CVE-0000-0016", "packdemo", [fix], target).final == FINAL_REVIVED
    if atimes_recorded():
        assert oracle.counters["trace_hits"] >= 1
    fresh = {}
    for tree, (_, got) in zip(oracle.trees, oracle.log):
        key = tree_hash(tree)
        if key not in fresh:
            clean = Oracle(tmp_path / f"clean-{len(fresh)}", scratch_dir=tmp_path / "oracle")
            fresh[key] = clean.verdict(tree, recipe, poc).to_dict()
            clean.close()
        assert got == fresh[key]
