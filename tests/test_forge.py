import json
import subprocess
from pathlib import Path

import pytest

from revenant.forge import (
    ARCHETYPES,
    PACK_C_VULN,
    ForgeError,
    apply_fix,
    expected_outcome,
    forge_flip_history,
    forge_repo,
    hang_poc_bytes,
    overflow_poc_bytes,
)
from revenant.gitio import checkout_worktree, commit_diff, commits_between
from revenant.oracle import KIND_NOT_TRIGGERED, KIND_TRIGGERED, Oracle

from gitutil import DiskTree


def git_show(repo: Path, spec: str) -> str:
    return subprocess.run(
        ["git", "-C", str(repo), "show", spec],
        check=True,
        capture_output=True,
        text=True,
    ).stdout


def test_emitted_history_shape(tmp_path):
    fx = forge_repo(tmp_path, ["C1", "C4"])
    rng = commits_between(fx.repo, fx.base, fx.target)
    roles = [c["role"] for c in fx.commits]
    assert roles[0] == "init"
    assert roles.count("fix") == 1
    assert roles.count("breaker") == 2
    # breakers are recorded oldest first and live inside (fix, target]
    range_ids = [c.id for c in rng]
    b_positions = [range_ids.index(b["id"]) for b in fx.breakers]
    assert b_positions == sorted(b_positions)
    assert fx.fix in [c["id"] for c in fx.commits]
    assert (tmp_path / "ledger.json").is_file()
    ledger = json.loads((tmp_path / "ledger.json").read_text())
    assert ledger["expected"]["stack"] == fx.expected_stack


def test_forge_is_deterministic(tmp_path):
    a = forge_repo(tmp_path / "a", ["C1", "C3", "C5"])
    b = forge_repo(tmp_path / "b", ["C1", "C3", "C5"])
    # fixed author and timestamps make commit ids reproducible
    assert a.target == b.target
    assert a.fix == b.fix
    assert [x["id"] for x in a.breakers] == [x["id"] for x in b.breakers]


def test_fix_transform_changes_expected_regions():
    files = {"pack.c": PACK_C_VULN}
    fixed = apply_fix(files)["pack.c"]
    assert "record too long" in fixed
    assert "0xFFFFu" not in fixed
    assert "SLOT_CAP + GUARD_BYTES); i++" not in fixed
    assert "(unsigned long)SLOT_CAP; i++" in fixed


@pytest.mark.parametrize("arch", ARCHETYPES)
def test_breaker_transforms_apply_and_build(tmp_path, arch):
    fx = forge_repo(tmp_path, [arch])
    oracle = Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch")
    with checkout_worktree(fx.repo, fx.target, tmp_path / "wt") as wt:
        v = oracle.verdict(DiskTree(wt.path), fx.recipe, fx.poc)
    # unfixed targets never trigger on their own: either the code is safe
    # (fix still present) or the PoC cannot run
    assert v.kind != KIND_TRIGGERED
    assert v.kind != "BuildFailed"


def test_vulnerable_base_triggers(tmp_path):
    fx = forge_repo(tmp_path, [])
    oracle = Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch")
    with checkout_worktree(fx.repo, fx.base, tmp_path / "wt") as wt:
        v = oracle.verdict(DiskTree(wt.path), fx.recipe, fx.poc)
    assert v.kind == KIND_TRIGGERED
    assert v.detector_class == "heap-buffer-overflow"


def test_fixed_state_is_clean(tmp_path):
    fx = forge_repo(tmp_path, [])
    oracle = Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch")
    with checkout_worktree(fx.repo, fx.fix, tmp_path / "wt") as wt:
        v = oracle.verdict(DiskTree(wt.path), fx.recipe, fx.poc)
    assert v.kind == KIND_NOT_TRIGGERED


def test_hang_poc_spins_vulnerable_base(tmp_path):
    fx = forge_repo(tmp_path, [], poc_kind="hang")
    assert fx.poc.hang_is_trigger
    oracle = Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch")
    with checkout_worktree(fx.repo, fx.base, tmp_path / "wt") as wt:
        v = oracle.verdict(DiskTree(wt.path), fx.recipe, fx.poc)
    assert v.kind == KIND_TRIGGERED
    assert v.detector_class == "memory-exhaustion-by-hang"


def test_poc_bytes():
    data = overflow_poc_bytes()
    declared = data[0] | (data[1] << 8)
    assert declared == 24
    assert len(data) - 2 < declared  # short payload: exercises the lenient path
    assert hang_poc_bytes() == b"\xff\xff"


def test_fix_commit_diff_has_two_hunks(tmp_path):
    fx = forge_repo(tmp_path, [])
    diff = commit_diff(fx.repo, fx.fix)
    assert [fp.path for fp in diff.files] == ["pack.c"]
    assert len(diff.files[0].hunks) == 2


def test_noise_commits_touch_only_docs(tmp_path):
    fx = forge_repo(tmp_path, ["C2"])
    for row in fx.commits:
        if row["role"] == "noise":
            diff = commit_diff(fx.repo, row["id"])
            assert {fp.path for fp in diff.files} <= {"CHANGES", "README"}


def test_expected_outcome_budget():
    ids = [f"c{i}" for i in range(5)]
    final, reason, stack = expected_outcome(["C1"] * 4, ids[:4])
    assert final == "Revived" and reason == "" and stack == ids[3::-1]
    final, reason, stack = expected_outcome(["C1"] * 5, ids)
    assert final == "Aborted" and reason == "Complexity"
    assert stack == ids[3::-1]  # only the budget's worth, newest first


def test_unknown_archetype_rejected(tmp_path):
    with pytest.raises(ForgeError):
        forge_repo(tmp_path, ["C9"])


def test_flip_history(tmp_path):
    h = forge_flip_history(tmp_path, n=10, flip_at=4)
    assert len(h.commit_ids) == 10
    assert h.flip_id == h.commit_ids[4]
    assert git_show(h.repo, f"{h.commit_ids[3]}:state.txt") == "good\n"
    assert git_show(h.repo, f"{h.commit_ids[4]}:state.txt") == "bad\n"
    assert git_show(h.repo, f"{h.commit_ids[9]}:state.txt") == "bad\n"


def test_flip_history_never_flips(tmp_path):
    h = forge_flip_history(tmp_path, n=5, flip_at=None)
    assert h.flip_id is None
    for cid in h.commit_ids:
        assert git_show(h.repo, f"{cid}:state.txt") == "good\n"
