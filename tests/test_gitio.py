"""Gateway behavior against small fixture repositories."""

from __future__ import annotations

import hashlib
import io
import os
import random
import subprocess
import sys
import threading
from dataclasses import replace

import pytest

from revenant import gitio
from revenant.forge import forge_repo
from revenant.gitio import (
    MODE_EXEC,
    MODE_LINK,
    CommitMemo,
    CommitRef,
    CommitTree,
    GitGatewayError,
    NotAncestor,
    RevertConflict,
    RootCommit,
    ShallowHistory,
    UnknownRef,
    activity_histogram,
    checkout_worktree,
    commit_diff,
    commits_between,
    resolve_ref,
    revert_onto,
)
from revenant.patchcore import CONFLICT_MISSING, PatchConflict, apply_patch
from revenant.patchcore.applier import CONFLICT_REJECTED
from revenant.patchcore.diffgen import diff_texts
from revenant.porter import derive_reverse_patch
from gitutil import (
    BASE_EPOCH,
    DiskTree,
    RepoBuilder,
    ls_tree_listing,
    no_child_left,
    record_diffs,
    record_git,
    worktrees,
)
from test_porter import forge_make_project

TEN = "".join(f"line {i}\n" for i in range(1, 11))


@pytest.fixture()
def repo(tmp_path):
    rb = RepoBuilder(tmp_path / "repo")
    rb.commit({"src/main.c": TEN, "README": "hello\n"}, "root")
    return rb


def test_resolve_ref_by_tag_branch_and_prefix(repo):
    sha = repo.head()
    by_tag = resolve_ref(repo.root, "t0")
    by_branch = resolve_ref(repo.root, "main")
    by_prefix = resolve_ref(repo.root, sha[:8])
    assert by_tag.id == by_branch.id == by_prefix.id == sha
    assert by_tag.short_id == sha[: len(by_tag.short_id)]
    assert by_tag.timestamp == BASE_EPOCH
    assert by_tag.parents == ()
    with CommitMemo(repo.root) as memo:
        assert set(memo.touched("t0")) == {"src/main.c", "README"}


def test_resolve_ref_peels_annotated_tags(repo):
    repo.git("tag", "-a", "-m", "annotated", "v1.0")
    assert resolve_ref(repo.root, "v1.0").id == repo.head()


def test_resolve_ref_unknown(repo):
    with pytest.raises(UnknownRef):
        resolve_ref(repo.root, "no-such-ref")


def test_commits_between_is_first_parent_oldest_first(repo):
    shas = [repo.head()]
    for i in range(4):
        shas.append(repo.commit({"README": f"hello {i}\n"}, f"c{i + 1}"))
    rng = commits_between(repo.root, "t0", "t4")
    assert [c.id for c in rng] == shas[1:]
    assert rng[-1].id == shas[-1]
    assert all(rng[i].timestamp < rng[i + 1].timestamp for i in range(3))


def test_commits_between_excludes_side_branch(repo):
    repo.commit({"README": "main 1\n"}, "main work")
    repo.git("checkout", "-q", "-b", "side", "t0")
    repo.commit({"side.txt": "side\n"}, "side work", tag=False)
    side_sha = repo.head()
    repo.git("checkout", "-q", "main")
    repo.git("merge", "-q", "--no-ff", "--no-edit", "side")
    merge_sha = repo.head()
    rng = commits_between(repo.root, "t0", merge_sha)
    ids = [c.id for c in rng]
    assert side_sha not in ids
    assert ids[-1] == merge_sha
    assert len(ids) == 2


def test_commits_between_rejects_non_ancestor(repo):
    repo.commit({"README": "x\n"}, "fork a")
    repo.git("checkout", "-q", "-b", "other", "t0")
    repo.commit({"README": "y\n"}, "fork b", tag=False)
    with pytest.raises(NotAncestor):
        commits_between(repo.root, "main", "other")


def test_between_refuses_a_base_merged_in_from_a_side_branch(repo, monkeypatch):
    repo.git("checkout", "-q", "-b", "side", "t0")
    side_sha = repo.commit({"side.txt": "side\n"}, "side work", tag=False)
    repo.git("checkout", "-q", "main")
    repo.commit({"README": "main 1\n"}, "main work")
    repo.git("merge", "-q", "--no-ff", "--no-edit", "side")
    tip = repo.commit({"README": "main 2\n"}, "main moves on")
    with CommitMemo(repo.root) as memo:
        memo.resolve("t0")
        started = record_git(monkeypatch)
        assert memo.between("t0", "main")[-1].id == tip
        # the side commit is an ancestor of main, but not on its first-parent line
        with pytest.raises(NotAncestor):
            memo.between(side_sha, "main")
        assert started == []  # the walk reads over the running reader


def test_checkout_worktree_materializes_and_coexists(repo, tmp_path):
    first = repo.head()
    repo.commit({"src/main.c": TEN.replace("line 5", "line five")}, "edit")
    (tmp_path / "wt1").mkdir()  # git takes an empty destination
    wt_old = checkout_worktree(repo.root, "t0", tmp_path / "wt0")
    wt_new = checkout_worktree(repo.root, "t1", tmp_path / "wt1")
    assert DiskTree(wt_old.path).read("src/main.c") == TEN
    assert "line five" in DiskTree(wt_new.path).read("src/main.c")
    assert wt_old.commit == first
    wt_old.remove()
    wt_new.remove()


def test_commit_memo_follows_moving_names_and_remembers_ids(repo, monkeypatch):
    memo = gitio.CommitMemo(repo.root)
    first = memo.resolve("main")
    moved = repo.commit({"README": "moved\n"}, "move main")
    assert memo.resolve("main").id == moved
    started = record_git(monkeypatch)
    diffed = record_diffs(monkeypatch)
    assert memo.resolve(first.id) is first
    assert memo.inverse(moved) is memo.inverse(moved)
    assert diffed == [moved]
    assert started == ["diff-tree"]
    memo.close()


def test_checkout_worktree_rejects_nonempty_dest(repo, tmp_path):
    dest = tmp_path / "busy"
    dest.mkdir()
    (dest / "junk").write_text("x")
    with pytest.raises(GitGatewayError, match="already exists"):
        checkout_worktree(repo.root, "t0", dest)
    assert [p.name for p in dest.iterdir()] == ["junk"]
    assert (dest / "junk").read_text() == "x"
    assert worktrees(repo.root) == [f"worktree {repo.root}"]


def test_commit_diff_shape(repo):
    repo.commit({"src/main.c": TEN.replace("line 5\n", "line 5 fixed\n")}, "fix")
    patch = commit_diff(repo.root, "t1")
    assert len(patch.files) == 1
    fp = patch.files[0]
    assert fp.path == "src/main.c"
    assert len(fp.hunks) == 1
    removed = [ln.text for ln in fp.hunks[0].lines if ln.kind == "remove"]
    added = [ln.text for ln in fp.hunks[0].lines if ln.kind == "add"]
    assert removed == ["line 5"]
    assert added == ["line 5 fixed"]


def one_shot_diff(repo, ref):
    """`git diff-tree -p` of the commit against its first parent, in one
    process of its own."""
    return subprocess.run(
        ["git", "-C", str(repo), "diff-tree", "-p", "--no-color", "--no-renames", "-U3",
         ref.parents[0], ref.id],
        capture_output=True, check=True,
    ).stdout


def test_the_diff_process_gives_what_a_one_shot_diff_tree_gives(repo, monkeypatch):
    made = {}
    (repo.root / "crlf.txt").write_bytes(b"one\r\ntwo\r\n")
    made["crlf added"] = repo.commit({}, "crlf")
    (repo.root / "crlf.txt").write_bytes(b"one\r\nTWO\r\n")
    made["crlf edited"] = repo.commit({}, "crlf edit")
    (repo.root / "blob.bin").write_bytes(bytes(range(256)))
    made["binary"] = repo.commit({}, "binary")
    (repo.root / "src" / "main.c").chmod(0o755)
    made["mode change"] = repo.commit({}, "mode")
    made["quoted names"] = repo.commit(
        {"tab\tname.txt": "t\n", 'quo"te.txt': "q\n", "back\\slash.txt": "b\n",
         "sp ace.txt": "s\n", "ünï côdé.txt": "u\n"}, "names")
    made["empty"] = repo.commit({}, "empty")
    repo.git("checkout", "-q", "-b", "side", "t0")
    repo.commit({"side.txt": "s\n"}, "side work", tag=False)
    repo.git("checkout", "-q", "main")
    repo.git("merge", "-q", "--no-ff", "--no-edit", "side")
    made["merge"] = repo.head()
    refs = {name: resolve_ref(repo.root, commit) for name, commit in made.items()}
    want = {name: one_shot_diff(repo.root, ref) for name, ref in refs.items()}
    assert want["empty"] == b"" and b"\r\n" in want["crlf edited"]
    started = record_git(monkeypatch)
    with CommitMemo(repo.root) as memo:
        for name, ref in refs.items():
            assert memo._diffed(ref) == want[name], name
        assert [fp.path for fp in memo.diff(made["merge"]).files] == ["side.txt"]
    assert started == ["diff-tree", "cat-file"]
    assert no_child_left()


def test_a_missing_object_stops_the_diff_process_and_the_next_diff_starts_one(repo, monkeypatch):
    parent = repo.head()
    child = repo.commit({"README": "bye\n"}, "child")
    grandchild = repo.commit({"README": "again\n"}, "grandchild")
    last = repo.commit({"src/main.c": "last\n"}, "last")
    started = record_git(monkeypatch)
    with CommitMemo(repo.root) as memo:
        refs = [memo.resolve(commit) for commit in (child, grandchild, last)]
        # git dies on the missing parent, and the stream ends early
        (repo.root / ".git" / "objects" / parent[:2] / parent[2:]).unlink()
        with pytest.raises(GitGatewayError):
            memo.diff(child)
        assert started.count("diff-tree") == 1
        assert [fp.path for fp in memo.diff(grandchild).files] == ["README"]
        # a commit git does not have: the reply does not start with its id
        missing = replace(refs[0], id="0" * 40, parents=(grandchild,))
        with pytest.raises(GitGatewayError):
            memo._diffed(missing)
        assert [fp.path for fp in memo.diff(last).files] == ["src/main.c"]
    assert started.count("diff-tree") == 3
    assert no_child_left()


@pytest.fixture()
def shallow(repo, tmp_path):
    """A clone of `repo`'s six commits t0..t5 that holds t3..t5 and t0,
    and the ids of those six commits."""
    ids = [repo.head()] + [repo.commit({"README": f"v{i}\n"}, f"c{i}") for i in range(1, 6)]
    clone = tmp_path / "shallow"
    repo.git("clone", "-q", "--depth", "3", f"file://{repo.root}", str(clone))
    repo.git("-C", str(clone), "fetch", "-q", "--depth", "1", "origin", "tag", "t0")
    return clone, ids


def test_a_shallow_clone_serves_the_commits_it_holds(repo, shallow):
    clone, ids = shallow
    with CommitMemo(repo.root) as full, CommitMemo(clone) as memo:
        assert memo.between(ids[3], "main") == full.between(ids[3], ids[5])
        assert memo.touched(ids[4]) == ("README",)
        assert memo.diff(ids[5]) == full.diff(ids[5])


def test_a_walk_that_leaves_a_shallow_clone_names_the_missing_parent(shallow):
    clone, ids = shallow
    with CommitMemo(clone) as memo:
        with pytest.raises(ShallowHistory) as exc:
            memo.between("t0", "main")
        assert f"lacks {ids[2]}, the parent of {ids[3]}" in str(exc.value)
        with pytest.raises(ShallowHistory):
            memo.touched(ids[3])


def test_a_diff_at_a_shallow_boundary_stops_only_the_differ(shallow, monkeypatch):
    clone, ids = shallow
    started = record_git(monkeypatch)
    with CommitMemo(clone) as memo:
        with pytest.raises(GitGatewayError):
            memo.diff(ids[3])  # git lacks the parent it diffs against
        assert [fp.path for fp in memo.diff(ids[4]).files] == ["README"]
    assert started == ["cat-file", "diff-tree", "diff-tree"]
    assert no_child_left()


def test_commit_diff_root_commit_refused(repo):
    with pytest.raises(RootCommit):
        commit_diff(repo.root, "t0")


def test_commit_diff_of_merge_uses_first_parent(repo):
    repo.git("checkout", "-q", "-b", "feature", "t0")
    repo.commit({"feature.txt": "f\n"}, "feature work", tag=False)
    repo.git("checkout", "-q", "main")
    repo.git("merge", "-q", "--no-ff", "--no-edit", "feature")
    merge_sha = repo.head()
    patch = commit_diff(repo.root, merge_sha)
    assert [fp.path for fp in patch.files] == ["feature.txt"]
    assert patch.files[0].mode_change == "created"


def inverse_of(repo, commit):
    """The inverse of `commit`'s diff, read from a memo of `repo`."""
    with CommitMemo(repo.root) as memo:
        return memo.inverse(commit)


def test_revert_onto_restores_previous_content(repo, tmp_path):
    repo.commit({"src/main.c": TEN.replace("line 5\n", "line 5 fixed\n")}, "fix")
    with checkout_worktree(repo.root, "t1", tmp_path / "wt") as wt:
        disk = DiskTree(wt.path)
        assert revert_onto(disk, "t1", inverse_of(repo, "t1")) == [[0]]
        assert disk.read("src/main.c") == TEN


def test_revert_onto_handles_created_and_deleted_files(repo, tmp_path):
    repo.commit({"new.txt": "fresh\n"}, "add file", delete=["README"])
    with checkout_worktree(repo.root, "t1", tmp_path / "wt") as wt:
        disk = DiskTree(wt.path)
        revert_onto(disk, "t1", inverse_of(repo, "t1"))
        assert disk.read("new.txt") is None
        assert disk.read("README") == "hello\n"


def test_revert_onto_is_atomic_on_conflict(repo, tmp_path):
    repo.commit(
        {"src/main.c": TEN.replace("line 5\n", "line 5 fixed\n"), "README": "v2\n"},
        "fix two files",
    )
    with checkout_worktree(repo.root, "t1", tmp_path / "wt") as wt:
        disk = DiskTree(wt.path)
        # damage one target so its hunk cannot anchor
        disk.write("src/main.c", "completely different\n")
        before_readme = disk.read("README")
        with pytest.raises(RevertConflict) as exc:
            revert_onto(disk, "t1", inverse_of(repo, "t1"))
        assert disk.read("README") == before_readme
        assert disk.read("src/main.c") == "completely different\n"
        assert "src/main.c" in str(exc.value)


def test_a_patch_that_conflicts_leaves_a_commit_tree_unchanged(repo):
    with CommitMemo(repo.root) as memo:
        tree = CommitTree(memo, "t0")
        before = tree.entries()
        # the first file applies, the second does not
        files = [diff_texts("hello\n", "v2\n", "README"), diff_texts(TEN + "x\n", TEN, "src/main.c")]
        with pytest.raises(PatchConflict) as exc:
            apply_patch(tree, files, max_fuzz=0)
        assert exc.value.reasons == {"src/main.c": CONFLICT_REJECTED}
        assert tree.entries() == before
        # every conflicting path is named, in patch order
        files = [diff_texts(TEN, "gone\n", "src/gone.c"), files[1]]
        with pytest.raises(PatchConflict) as exc:
            apply_patch(tree, files, max_fuzz=0)
        assert list(exc.value.reasons.items()) == [
            ("src/gone.c", CONFLICT_MISSING), ("src/main.c", CONFLICT_REJECTED),
        ]
        assert str(exc.value) == "src/gone.c (missing), src/main.c (rejected)"
        assert tree.entries() == before


def test_reverting_a_commit_whose_file_a_later_commit_deleted_conflicts(repo):
    repo.commit({"src/main.c": TEN + "tail\n", "README": "v2\n"}, "touch two")
    repo.commit({}, "drop the readme", delete=["README"])
    with CommitMemo(repo.root) as memo:
        tree = CommitTree(memo, "t2")
        before = tree.entries()
        with pytest.raises(RevertConflict) as exc:
            revert_onto(tree, "t1", memo.inverse("t1"))
        assert str(exc.value).endswith("conflicts in: README")
        assert tree.entries() == before


def test_reverting_a_commit_that_adds_or_deletes_an_empty_file(repo):
    # git writes no ---/+++ lines for a file created or deleted empty
    repo.commit({"e.txt": ""}, "add an empty file")
    repo.commit({}, "drop it", delete=["e.txt"])
    with CommitMemo(repo.root) as memo:
        assert [fp.path for fp in memo.diff("t1").files] == list(memo.touched("t1"))
        added = CommitTree(memo, "t1")
        revert_onto(added, "t1", memo.inverse("t1"))
        assert added.read("e.txt") is None
        deleted = CommitTree(memo, "t2")
        revert_onto(deleted, "t2", memo.inverse("t2"))
        assert deleted.read("e.txt") == ""


def test_reverting_a_commit_restores_files_whose_names_git_quotes(repo):
    names = ["\u00e9.txt", "a\tb.txt", 'q"uote\\d.txt']
    repo.commit({name: TEN for name in names}, "add")
    repo.commit({name: TEN.replace("line 5", "line five") for name in names}, "edit")
    with CommitMemo(repo.root) as memo:
        assert sorted(fp.path for fp in memo.diff("t2").files) == sorted(memo.touched("t2"))
        tree = CommitTree(memo, "t2")
        inverse = memo.inverse("t2")
        assert sorted(fp.path for fp in inverse.files) == sorted(names)
        assert revert_onto(tree, "t2", inverse) == [[0]] * len(names)
        assert {name: tree.read(name) for name in names} == dict.fromkeys(names, TEN)


def test_reverting_a_commit_restores_a_file_whose_name_ends_in_a_space(repo):
    names = ["tail.c ", "mid dle.c"]
    repo.commit({name: TEN for name in names}, "add")
    repo.commit({name: TEN.replace("line 5", "line five") for name in names}, "edit")
    with CommitMemo(repo.root) as memo:
        assert sorted(fp.path for fp in memo.diff("t2").files) == sorted(names)
        tree = CommitTree(memo, "t2")
        inverse = memo.inverse("t2")
        assert sorted(fp.path for fp in inverse.files) == sorted(names)
        assert revert_onto(tree, "t2", inverse) == [[0]] * len(names)
        assert {name: tree.read(name) for name in names} == dict.fromkeys(names, TEN)
        assert "tail.c" not in {path for path, _, _ in tree.entries()}


def test_a_revert_and_a_port_keep_the_line_endings_of_a_file(repo):
    crlf = "one\r\ntwo\r\nthree\rfour\r\nfive\r\n" + TEN
    repo.commit({"f.txt": crlf}, "add")
    repo.commit({"f.txt": crlf.replace("two", "TWO")}, "edit line 2")
    repo.commit({"f.txt": crlf.replace("two", "TWO").replace("five", "FIVE")}, "edit line 5")
    with CommitMemo(repo.root) as memo:
        assert "two\r" in [line.text for line in memo.diff("t2").files[0].hunks[0].lines]
        tree = CommitTree(memo, "t2")
        revert_onto(tree, "t2", memo.inverse("t2"))
        assert tree.read("f.txt") == crlf
        assert tree.entries() == CommitTree(memo, "t1").entries()
        # the reverse port of the two edits, composed
        ported = CommitTree(memo, "t3")
        apply_patch(ported, derive_reverse_patch(memo, ["t2", "t3"]).files, max_fuzz=0)
        assert ported.entries() == CommitTree(memo, "t1").entries()


def test_a_diff_ignores_the_diff_settings_of_the_repository(repo):
    thirty = "".join(f"line {i}\n" for i in range(1, 31))
    repo.commit({"src/main.c": thirty}, "grow")
    edited = repo.commit(
        {"src/main.c": thirty.replace("line 5\n", "line V\n").replace("line 14\n", "line XIV\n")},
        "edit two places",
    )
    with CommitMemo(repo.root) as memo:
        before = memo.diff(edited)
    assert [len(fp.hunks) for fp in before.files] == [2]
    for key, value in [("diff.external", "true"), ("diff.interHunkContext", "10"),
                       ("diff.noprefix", "true"), ("diff.mnemonicPrefix", "true")]:
        repo.git("config", key, value)
    with CommitMemo(repo.root) as memo:
        assert memo.diff(edited) == before


def test_a_blank_context_line_parses_alike_when_git_writes_it_empty(repo, monkeypatch):
    # under diff.suppressBlankEmpty git writes a blank context line as an
    # empty line, without its leading space
    blank = TEN.replace("line 4\n", "\n")
    repo.commit({"src/main.c": blank}, "blank line 4")
    edited = repo.commit({"src/main.c": blank.replace("line 5\n", "five\n")}, "edit line 5")
    monkeypatch.delenv("GIT_CONFIG_COUNT", raising=False)
    with CommitMemo(repo.root) as memo:
        written = memo._diffed(memo.resolve(edited))
        plain = memo.diff(edited)
    monkeypatch.setenv("GIT_CONFIG_COUNT", "1")
    monkeypatch.setenv("GIT_CONFIG_KEY_0", "diff.suppressBlankEmpty")
    monkeypatch.setenv("GIT_CONFIG_VALUE_0", "true")
    with CommitMemo(repo.root) as memo:
        suppressed = memo._diffed(memo.resolve(edited))
        assert suppressed != written and suppressed == written.replace(b"\n \n", b"\n\n")
        assert memo.diff(edited) == plain
    assert ("context", "") in [(ln.kind, ln.text) for ln in plain.files[0].hunks[0].lines]


def test_revert_dependent_commits_newest_first(repo, tmp_path):
    # A rewrites line 5; B then rewrites A's line
    repo.commit({"src/main.c": TEN.replace("line 5\n", "line 5 A\n")}, "A")
    repo.commit(
        {"src/main.c": TEN.replace("line 5\n", "line 5 AB\n")}, "B"
    )
    with checkout_worktree(repo.root, "t2", tmp_path / "wt1") as wt:
        with pytest.raises(RevertConflict):  # A alone cannot come off
            revert_onto(DiskTree(wt.path), "t1", inverse_of(repo, "t1"))
    with checkout_worktree(repo.root, "t2", tmp_path / "wt2") as wt:
        disk = DiskTree(wt.path)
        revert_onto(disk, "t2", inverse_of(repo, "t2"))  # newest first
        revert_onto(disk, "t1", inverse_of(repo, "t1"))
        assert disk.read("src/main.c") == TEN


def test_activity_histogram_conserves_and_buckets(repo):
    # commits are one hour apart; with 14-day buckets all land in bucket 0
    for i in range(5):
        repo.commit({"src/main.c": TEN + f"// rev {i}\n"}, f"c{i}")
    with CommitMemo(repo.root) as memo:
        rng = memo.between("t0", "t5")
        hist = activity_histogram(rng, ["src/main.c"], memo.touched)
        assert hist.total == len(rng) == 5
        assert hist.related_total == 5
        assert len(hist.buckets) == 1

        untracked = activity_histogram(rng, ["nothing.c"], memo.touched)
    assert untracked.total == 5
    assert untracked.related_total == 0


def test_activity_histogram_bucket_boundaries(tmp_path):
    day = 86400
    rb = RepoBuilder(tmp_path / "r2", step=10 * day)
    rb.commit({"f": "0\n"}, "c0")
    for i in range(4):
        rb.commit({"f": f"{i + 1}\n"}, f"c{i + 1}")
    with CommitMemo(rb.root) as memo:
        rng = memo.between("t0", "t4")
        hist = activity_histogram(rng, ["f"], memo.touched)
    # commits at +10d, +20d, +30d, +40d from the first in-range commit
    assert hist.total == 4
    assert [b[1] for b in hist.buckets] == [2, 1, 1]
    assert hist.buckets[0][0] == rng[0].timestamp
    assert hist.buckets[1][0] - hist.buckets[0][0] == 14 * day


# ---------- commit listings from tree objects ----------


def assert_listings_match_ls_tree(repo):
    """Every commit's listing, walked from its trees by one memo, equals
    `git ls-tree -r`'s; returns the memo, closed."""
    commits = subprocess.run(["git", "-C", str(repo), "rev-list", "--all"],
                             capture_output=True, text=True, check=True).stdout.split()
    assert commits
    with CommitMemo(repo) as memo:
        for commit in commits:
            assert memo.listing(commit) == ls_tree_listing(repo, commit), commit
    return memo


def test_listings_of_a_forged_history_match_ls_tree(tmp_path):
    fx = forge_repo(tmp_path, ["C1", "C4", "C5", "C3"])
    assert_listings_match_ls_tree(fx.repo)


def test_listings_of_a_make_project_match_ls_tree(tmp_path):
    repo, *_ = forge_make_project(tmp_path, ["C5", "C3"], notes=True)
    assert_listings_match_ls_tree(repo)


ODD = b"caf\xe9 two\nlines.txt"  # a space, a byte that is not UTF-8, a newline


def odd_repo(tmp_path) -> RepoBuilder:
    """A repository with an executable, file and directory symlinks,
    nested directories, a gitlink and a file named `ODD`."""
    rb = RepoBuilder(tmp_path / "repo")
    (rb.root / "src" / "deep").mkdir(parents=True)
    (rb.root / "link.c").symlink_to("src/deep/core.c")
    (rb.root / "dir-link").symlink_to("src")
    with open(os.path.join(os.fsencode(rb.root / "src"), ODD), "wb") as f:
        f.write(b"odd\n")
    rb.commit({"src/deep/core.c": "int core;\n", "run.sh": "#!/bin/sh\n"}, "base")
    (rb.root / "run.sh").chmod(0o755)
    rb.commit({}, "make run.sh executable")
    # a submodule's commit, which a checkout leaves as an empty directory
    rb.git("update-index", "--add", "--cacheinfo", f"160000,{rb.head()},vendor/sub")
    rb.git("commit", "-q", "-m", "add a submodule")
    return rb


def test_listing_keeps_modes_links_and_odd_names_and_skips_gitlinks(tmp_path):
    rb = odd_repo(tmp_path)
    assert_listings_match_ls_tree(rb.root)
    with CommitMemo(rb.root) as memo:
        listing = memo.listing("HEAD")
    assert sorted(listing) == sorted(["dir-link", "link.c", "run.sh", "src/deep/core.c",
                                      "src/" + os.fsdecode(ODD)])
    assert listing["run.sh"][0] == MODE_EXEC
    assert listing["link.c"][0] == listing["dir-link"][0] == MODE_LINK


def test_listing_reads_non_canonical_modes_as_git_does(tmp_path):
    rb = RepoBuilder(tmp_path / "repo")
    rb.commit({"README": "x\n"}, "base")
    blob = bytes.fromhex(rb.git_input("data\n", "hash-object", "-w", "--stdin").stdout.strip())

    def tree(entries):
        raw = tmp_path / "tree.raw"
        raw.write_bytes(b"".join(b"%s %s\0%s" % entry for entry in entries))
        out = rb.git("hash-object", "-t", "tree", "--literally", "-w", str(raw)).stdout
        return out.strip()

    inner = tree([(b"100644", b"inner.txt", blob)])
    # group-writable, owner-only and zero-padded modes, as old tools wrote them
    top = tree([(b"100600", b"a", blob), (b"100664", b"b", blob), (b"100700", b"c", blob),
                (b"100775", b"d", blob), (b"0100644", b"e", blob),
                (b"040000", b"sub", bytes.fromhex(inner))])
    commit = rb.git("commit-tree", top, "-p", rb.head(), "-m", "odd modes").stdout.strip()
    rb.git("update-ref", "refs/heads/main", commit)
    memo = assert_listings_match_ls_tree(rb.root)
    assert {path: mode for path, (mode, _) in memo.listing(commit).items()} == {
        "a": "100644", "b": "100644", "c": MODE_EXEC, "d": MODE_EXEC, "e": "100644",
        "sub/inner.txt": "100644",
    }
    memo.close()


def test_listings_of_a_sha256_repository_match_ls_tree(tmp_path):
    try:
        rb = RepoBuilder(tmp_path / "repo", object_format="sha256")
    except RuntimeError:
        pytest.skip("git cannot make a SHA-256 repository")
    rb.commit({"src/a.c": "int a;\n", "README": "x\n"}, "base")
    rb.commit({"src/b/c.c": "int c;\n"}, "nested")
    memo = assert_listings_match_ls_tree(rb.root)
    assert all(len(oid) == 64 for _, oid in memo.listing("HEAD").values())
    memo.close()


def test_a_listing_reads_only_the_trees_its_commit_changed(repo):
    repo.commit({"src/deep/core.c": "int core;\n", "docs/a.txt": "a\n"}, "nest")
    with CommitMemo(repo.root) as memo:
        memo.listing("HEAD")
        assert len(memo._trees) == 4  # the root, src, src/deep and docs
        repo.commit({"src/deep/core.c": "int core2;\n"}, "edit a nested file")
        memo.listing("HEAD")
        assert len(memo._trees) == 7  # a new root, src and src/deep


# ---------- names resolved over the reader ----------


def log_ref(repo, name):
    """The CommitRef of `name` and the files it touched, as `git log -1`
    gives them: the reference for `CommitMemo.resolve` and `touched`."""
    out = gitio.run_git(repo, "log", "-1", "--first-parent", "--name-only", "--no-renames",
                        "-z", "--format=%H%x00%ct%x00%T%x00%P", name, "--").stdout
    full, ct, tree, parents, *names = out.split("\0")
    # a NUL ends the header, and a newline starts the names, if any
    if names and names[0].startswith("\n"):
        names[0] = names[0][1:]
    ref = CommitRef(id=full, short_id=full[:12], timestamp=int(ct),
                    parents=tuple(parents.split()), tree=tree)
    return ref, tuple(name for name in names if name)


def assert_refs_match_git_log(repo):
    """Every commit's CommitRef, built from the objects a memo reads, and
    its touched files equal `git log -1`'s, whether its parent was
    resolved before it or not."""
    commits = subprocess.run(["git", "-C", str(repo), "rev-list", "--all"],
                             capture_output=True, text=True, check=True).stdout.split()
    assert commits
    for order in (commits, commits[::-1]):  # newest first, then oldest first
        with CommitMemo(repo) as memo:
            for commit in order:
                ref = memo.resolve(commit)
                assert (ref, memo.touched(commit)) == log_ref(repo, commit), commit
                assert ref.short_id == commit[:12]


@pytest.mark.parametrize("source", ["forged", "make project", "hand-built"])
def test_refs_built_over_the_reader_match_git_log(tmp_path, source):
    if source == "forged":
        repo = forge_repo(tmp_path, ["C1", "C4", "C5", "C3"]).repo
    elif source == "make project":
        repo, *_ = forge_make_project(tmp_path, ["C5", "C3"], notes=True)
    else:
        repo = odd_repo(tmp_path).root
        with CommitMemo(repo) as memo:
            assert "src/" + os.fsdecode(ODD) in memo.touched("t0")
    assert_refs_match_git_log(repo)


def test_resolving_follows_merges_tags_type_changes_and_moving_branches(repo):
    repo.commit({"a": "file\n", "a.c": "x\n", "a0": "y\n"}, "siblings of a")
    repo.git("rm", "-q", "a")
    repo.commit({"a/inner": "dir\n", "a.c": "x2\n"}, "a becomes a directory")
    (repo.root / "run").symlink_to("a/inner")
    repo.commit({}, "a symlink")
    (repo.root / "README").chmod(0o755)
    repo.commit({}, "a mode change", delete=["a0"])
    repo.git("checkout", "-q", "-b", "side", "t1")
    repo.commit({"side.txt": "side\n", "src/main.c": "side\n"}, "side work", tag=False)
    repo.git("checkout", "-q", "main")
    repo.git("merge", "-q", "--no-ff", "--no-edit", "side")
    repo.git("tag", "-a", "-m", "annotated", "v1.0")
    assert_refs_match_git_log(repo.root)
    with CommitMemo(repo.root) as memo:
        merge = memo.resolve("v1.0")
        assert merge == log_ref(repo.root, "v1.0")[0] == memo.resolve("main")
        assert len(merge.parents) == 2
        assert memo.touched("v1.0") == ("side.txt", "src/main.c")
        assert memo.touched("t2") == ("a", "a.c", "a/inner")
        moved = repo.commit({"README": "moved\n"}, "move main")
        assert memo.resolve("main") == log_ref(repo.root, moved)[0]
        assert memo.resolve("main").id == moved


def ambiguous_prefix(repo) -> str:
    """Four hex digits that begin the ids of two commits: HEAD and one
    written here, whose message is chosen so."""
    head = repo.git("cat-file", "commit", "HEAD").stdout.encode()
    prefix = repo.head()[:4]
    for n in range(10_000_000):
        body = head + b"%d\n" % n
        if hashlib.sha1(b"commit %d\0%s" % (len(body), body)).hexdigest().startswith(prefix):
            break
    written = subprocess.run(["git", "-C", str(repo.root), "hash-object", "-t", "commit",
                              "-w", "--stdin"], input=body, capture_output=True, check=True)
    assert written.stdout.decode().startswith(prefix)
    return prefix


def test_unknown_ambiguous_and_spaced_names_leave_the_reader_in_sync(repo, monkeypatch):
    repo.commit({"src/main.c": TEN.replace("line 5", "line five")}, "edit")
    prefix = ambiguous_prefix(repo)
    # git refuses the ambiguous prefix too
    assert repo.git("rev-parse", "--verify", "--quiet", f"{prefix}^{{commit}}",
                    check=False).returncode != 0
    started = record_git(monkeypatch)
    with CommitMemo(repo.root) as memo:
        for name in ("", "t0 t1", "t0\nt1", "t0\t", "t0\0", "no-such-ref", prefix,
                     f"{repo.head()}^{{tree}}"):
            with pytest.raises(UnknownRef):
                memo.resolve(name)
            readme = memo.listing("t0")["README"][1]
            assert memo.text(readme) == "hello\n"
            assert memo.resolve("t1") == log_ref(repo.root, "t1")[0]
    assert started.count("cat-file") == 1
    assert no_child_left()


def test_a_short_reply_stops_the_reader_and_the_next_resolve_works(repo):
    with CommitMemo(repo.root) as memo:
        memo.resolve("t0")
        pipe = memo._reader.proc.stdout
        # the reply to the next name breaks off after its header
        memo._reader.proc.stdout = io.BytesIO(b"%s commit 200\ntree " % repo.head().encode())
        with pytest.raises(GitGatewayError):
            memo.resolve("main")
        pipe.close()
        assert no_child_left()
        assert memo.resolve("main") == log_ref(repo.root, "t0")[0]


# ---------- the memo's reader ----------


def test_one_reader_serves_listings_texts_and_streams(repo, monkeypatch):
    repo.commit({"src/main.c": TEN.replace("line 5", "line five")}, "edit")
    started = record_git(monkeypatch)
    with CommitMemo(repo.root) as memo:
        old, new = memo.listing("t0"), memo.listing("t1")
        assert memo.text(old["src/main.c"][1]) == TEN
        oids = [oid for _, oid in new.values()]
        assert list(memo.blobs(oids * 300)) == [b"hello\n", TEN.replace("line 5", "line five").encode()] * 300
    assert started.count("cat-file") == 1
    assert memo.spawns == len(started)
    assert no_child_left()


def test_resolving_starts_exactly_one_reader_and_the_wrappers_leave_no_child(
    repo, monkeypatch
):
    repo.commit({"src/main.c": TEN.replace("line 5", "line five")}, "edit")
    started = record_git(monkeypatch)
    with CommitMemo(repo.root) as memo:
        memo.diff(memo.between("t0", "t1")[-1].id)
        assert memo.resolve("main") is memo.resolve("t1")
        assert started == ["cat-file", "diff-tree"]
        assert not no_child_left()  # the reader
    assert no_child_left()
    closed = []
    real_close = CommitMemo.close
    monkeypatch.setattr(CommitMemo, "close", lambda memo: closed.append(memo) or real_close(memo))
    for wrapper, args in ((resolve_ref, ("t0",)), (commit_diff, ("t1",)),
                          (commits_between, ("t0", "t1"))):
        del started[:]
        wrapper(repo.root, *args)
        assert started.count("cat-file") == 1, wrapper.__name__
        assert len(closed) == 1, wrapper.__name__
        del closed[:]
        assert no_child_left(), wrapper.__name__


def test_a_dropped_memo_is_reaped(repo):
    memo = CommitMemo(repo.root)
    memo.listing("t0")
    assert not no_child_left()
    del memo
    assert no_child_left()


def test_a_read_while_a_stream_is_open_raises_and_the_next_read_works(repo):
    memo = CommitMemo(repo.root)
    listing = memo.listing("t0")
    stream = memo.blobs([oid for _, oid in listing.values()])
    next(stream)
    with pytest.raises(GitGatewayError):
        memo.text(listing["src/main.c"][1])
    stream.close()  # a reply is left unread: the reader is stopped
    assert no_child_left()
    assert memo.text(listing["src/main.c"][1]) == TEN
    memo.close()
    assert no_child_left()


def test_a_missing_object_stops_the_reader_and_the_next_read_works(repo):
    with CommitMemo(repo.root) as memo:
        listing = memo.listing("t0")
        with pytest.raises(GitGatewayError):
            list(memo.blobs([listing["README"][1], "0" * 40, listing["README"][1]]))
        assert memo.text(listing["README"][1]) == "hello\n"
    assert no_child_left()


def test_threads_sharing_one_memo_read_the_right_objects(repo, monkeypatch):
    for i in range(4):
        repo.commit({f"d{i % 2}/f{i}.txt": f"{i}\n" * (i + 1), "README": f"v{i}\n"}, f"c{i}")
    names = [f"t{i}" for i in range(5)]
    want = {name: ls_tree_listing(repo.root, name) for name in names}
    contents = {
        oid: subprocess.run(["git", "-C", str(repo.root), "cat-file", "blob", oid],
                            capture_output=True, check=True).stdout
        for listing in want.values() for _, oid in listing.values()
    }
    # tiny memos, so that threads evict what others are reading
    monkeypatch.setattr(gitio, "TREE_MEMO", 2)
    monkeypatch.setattr(gitio, "TEXT_MEMO", 2)
    started = record_git(monkeypatch)
    memo = CommitMemo(repo.root)
    errors = []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(25):
                name = rng.choice(names)
                assert memo.listing(name) == want[name]
                oids = [oid for _, oid in want[name].values()]
                oid = rng.choice(oids)
                assert memo.text(oid) == gitio.decode_text(contents[oid])
                assert list(memo.blobs(oids)) == [contents[oid] for oid in oids]
        except Exception as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(n,)) for n in range(2 * os.cpu_count() + 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert started.count("cat-file") == 1
    memo.close()
    assert no_child_left()
