"""Gateway behavior against small fixture repositories."""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import threading

import pytest

from revenant import gitio
from revenant.forge import forge_repo
from revenant.gitio import (
    MODE_EXEC,
    MODE_LINK,
    CommitMemo,
    DirtyDestination,
    GitGatewayError,
    NotAncestor,
    RevertConflict,
    RootCommit,
    UnknownRef,
    activity_histogram,
    checkout_worktree,
    commit_diff,
    commits_between,
    resolve_ref,
    revert_onto,
)
from gitutil import BASE_EPOCH, RepoBuilder, ls_tree_listing, no_child_left, record_git, worktrees
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
    assert set(by_tag.touched_files) == {"src/main.c", "README"}


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
    assert [c.id for c in rng.ordered] == shas[1:]
    assert rng.base.id == shas[0]
    assert rng.tip.id == shas[-1]
    assert all(rng.ordered[i].timestamp < rng.ordered[i + 1].timestamp for i in range(3))


def test_commits_between_excludes_side_branch(repo):
    repo.commit({"README": "main 1\n"}, "main work")
    repo.git("checkout", "-q", "-b", "side", "t0")
    repo.commit({"side.txt": "side\n"}, "side work", tag=False)
    side_sha = repo.head()
    repo.git("checkout", "-q", "main")
    repo.git("merge", "-q", "--no-ff", "--no-edit", "side")
    merge_sha = repo.head()
    rng = commits_between(repo.root, "t0", merge_sha)
    ids = [c.id for c in rng.ordered]
    assert side_sha not in ids
    assert ids[-1] == merge_sha
    assert len(ids) == 2


def test_commits_between_rejects_non_ancestor(repo):
    repo.commit({"README": "x\n"}, "fork a")
    repo.git("checkout", "-q", "-b", "other", "t0")
    repo.commit({"README": "y\n"}, "fork b", tag=False)
    with pytest.raises(NotAncestor):
        commits_between(repo.root, "main", "other")


def test_checkout_worktree_materializes_and_coexists(repo, tmp_path):
    first = repo.head()
    repo.commit({"src/main.c": TEN.replace("line 5", "line five")}, "edit")
    wt_old = checkout_worktree(repo.root, "t0", tmp_path / "wt0")
    wt_new = checkout_worktree(repo.root, "t1", tmp_path / "wt1")
    assert wt_old.read("src/main.c") == TEN
    assert "line five" in wt_new.read("src/main.c")
    assert wt_old.commit == first
    wt_old.remove()
    wt_new.remove()


def test_commit_memo_follows_moving_names_and_remembers_ids(repo, monkeypatch):
    memo = gitio.CommitMemo(repo.root)
    first = memo.resolve("main")
    moved = repo.commit({"README": "moved\n"}, "move main")
    assert memo.resolve("main").id == moved
    spawned = []
    real = gitio.run_git
    monkeypatch.setattr(gitio, "run_git", lambda *a, **kw: spawned.append(a) or real(*a, **kw))
    assert memo.resolve(first.id) is first
    assert memo.inverse(moved) is memo.inverse(moved)
    assert [a[1] for a in spawned] == ["diff"]


def test_checkout_worktree_prunes_a_crashed_worktree(repo, tmp_path):
    crashed = checkout_worktree(repo.root, "t0", tmp_path / "crashed")
    # the run dies: its directory goes, its worktree entry stays
    shutil.rmtree(crashed.path)
    assert len(worktrees(repo.root)) == 2
    with checkout_worktree(repo.root, "t0", tmp_path / "next") as wt:
        assert wt.read("README") == "hello\n"
        assert worktrees(repo.root) == [f"worktree {repo.root}", f"worktree {wt.path}"]
    assert worktrees(repo.root) == [f"worktree {repo.root}"]


def test_checkout_worktree_rejects_nonempty_dest(repo, tmp_path):
    dest = tmp_path / "busy"
    dest.mkdir()
    (dest / "junk").write_text("x")
    with pytest.raises(DirtyDestination):
        checkout_worktree(repo.root, "t0", dest)


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
    assert patch.provenance.startswith("commit:")


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


def test_revert_onto_restores_previous_content(repo, tmp_path):
    repo.commit({"src/main.c": TEN.replace("line 5\n", "line 5 fixed\n")}, "fix")
    with checkout_worktree(repo.root, "t1", tmp_path / "wt") as wt:
        reports = revert_onto(wt, "t1")
        assert all(r.all_applied for r in reports)
        assert wt.read("src/main.c") == TEN


def test_revert_onto_handles_created_and_deleted_files(repo, tmp_path):
    repo.commit({"new.txt": "fresh\n"}, "add file", delete=["README"])
    with checkout_worktree(repo.root, "t1", tmp_path / "wt") as wt:
        revert_onto(wt, "t1")
        assert not wt.exists("new.txt")
        assert wt.read("README") == "hello\n"


def test_revert_onto_is_atomic_on_conflict(repo, tmp_path):
    repo.commit(
        {"src/main.c": TEN.replace("line 5\n", "line 5 fixed\n"), "README": "v2\n"},
        "fix two files",
    )
    with checkout_worktree(repo.root, "t1", tmp_path / "wt") as wt:
        # damage one target so its hunk cannot anchor
        wt.write("src/main.c", "completely different\n")
        before_readme = wt.read("README")
        with pytest.raises(RevertConflict) as exc:
            revert_onto(wt, "t1")
        assert wt.read("README") == before_readme
        assert wt.read("src/main.c") == "completely different\n"
        assert any(not r.all_applied for r in exc.value.reports)


def test_revert_onto_skips_files_missing_from_worktree(repo, tmp_path):
    repo.commit({"src/main.c": TEN + "tail\n", "README": "v2\n"}, "touch two")
    with checkout_worktree(repo.root, "t1", tmp_path / "wt") as wt:
        (wt.path / "README").unlink()  # filtered subset
        reports = revert_onto(wt, "t1")
        assert wt.read("src/main.c") == TEN
        skipped = [r for r in reports if r.path == "README"]
        assert len(skipped) == 1
        assert skipped[0].results == []


def test_revert_dependent_commits_newest_first(repo, tmp_path):
    # A rewrites line 5; B then rewrites A's line
    repo.commit({"src/main.c": TEN.replace("line 5\n", "line 5 A\n")}, "A")
    repo.commit(
        {"src/main.c": TEN.replace("line 5\n", "line 5 AB\n")}, "B"
    )
    with checkout_worktree(repo.root, "t2", tmp_path / "wt1") as wt:
        with pytest.raises(RevertConflict):
            revert_onto(wt, "t1")  # A alone cannot come off
    with checkout_worktree(repo.root, "t2", tmp_path / "wt2") as wt:
        revert_onto(wt, "t2")  # newest first
        revert_onto(wt, "t1")
        assert wt.read("src/main.c") == TEN


def test_activity_histogram_conserves_and_buckets(repo):
    # commits are one hour apart; with 14-day buckets all land in bucket 0
    for i in range(5):
        repo.commit({"src/main.c": TEN + f"// rev {i}\n"}, f"c{i}")
    rng = commits_between(repo.root, "t0", "t5")
    hist = activity_histogram(rng, ["src/main.c"])
    assert hist.total == len(rng.ordered) == 5
    assert hist.related_total == 5
    assert len(hist.buckets) == 1

    hourly = activity_histogram(rng, ["nothing.c"], bucket_width_days=1)
    assert hourly.total == 5
    assert hourly.related_total == 0


def test_activity_histogram_bucket_boundaries(tmp_path):
    day = 86400
    rb = RepoBuilder(tmp_path / "r2", step=10 * day)
    rb.commit({"f": "0\n"}, "c0")
    for i in range(4):
        rb.commit({"f": f"{i + 1}\n"}, f"c{i + 1}")
    rng = commits_between(rb.root, "t0", "t4")
    hist = activity_histogram(rng, ["f"], bucket_width_days=14)
    # commits at +10d, +20d, +30d, +40d from the first in-range commit
    assert hist.total == 4
    assert [b[1] for b in hist.buckets] == [2, 1, 1]
    assert hist.buckets[0][0] == rng.ordered[0].timestamp
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


def test_listing_keeps_modes_links_and_odd_names_and_skips_gitlinks(tmp_path):
    rb = RepoBuilder(tmp_path / "repo")
    (rb.root / "src" / "deep").mkdir(parents=True)
    (rb.root / "link.c").symlink_to("src/deep/core.c")
    (rb.root / "dir-link").symlink_to("src")
    odd = b"caf\xe9 two\nlines.txt"  # a space, a byte that is not UTF-8, a newline
    with open(os.path.join(os.fsencode(rb.root / "src"), odd), "wb") as f:
        f.write(b"odd\n")
    rb.commit({"src/deep/core.c": "int core;\n", "run.sh": "#!/bin/sh\n"}, "base")
    (rb.root / "run.sh").chmod(0o755)
    rb.commit({}, "make run.sh executable")
    # a submodule's commit, which a checkout leaves as an empty directory
    rb.git("update-index", "--add", "--cacheinfo", f"160000,{rb.head()},vendor/sub")
    rb.git("commit", "-q", "-m", "add a submodule")
    assert_listings_match_ls_tree(rb.root)
    with CommitMemo(rb.root) as memo:
        listing = memo.listing("HEAD")
    assert sorted(listing) == sorted(["dir-link", "link.c", "run.sh", "src/deep/core.c",
                                      "src/" + os.fsdecode(odd)])
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


def test_a_memo_that_only_resolves_diffs_and_walks_starts_no_reader(repo, monkeypatch):
    repo.commit({"src/main.c": TEN.replace("line 5", "line five")}, "edit")
    started = record_git(monkeypatch)
    memo = CommitMemo(repo.root)
    memo.diff(memo.between("t0", "t1").tip.id)
    resolve_ref(repo.root, "t0")
    commit_diff(repo.root, "t1")
    commits_between(repo.root, "t0", "t1")
    assert started and "cat-file" not in started
    assert no_child_left()


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
