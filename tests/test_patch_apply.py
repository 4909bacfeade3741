"""Application behavior: strictness, offsets, fuzz, ambiguity, and
agreement with the system diff/patch toolchain."""

from __future__ import annotations

import random
import shutil
import subprocess

import pytest
from hypothesis import given, settings, strategies as st

from revenant.patchcore import (
    CONFLICT_EXISTS,
    CONFLICT_MISSING,
    PatchConflict,
    PatchError,
    SourcePatch,
    apply_patch,
    invert,
    parse_unified_diff,
    render_unified_diff,
)
from revenant.patchcore import applier
from revenant.patchcore.applier import (
    CONFLICT_BINARY,
    CONFLICT_REJECTED,
    apply_file_patch,
)
from revenant.patchcore.diffgen import diff_texts, whole_file_patch
from revenant.patchcore.model import MODE_CREATED, MODE_DELETED, HunkRejected
from genpatch import DictTree, gen_pair

OLD = "one\ntwo\nthree\nfour\nfive\nsix\nseven\neight\nnine\nten\n"
NEW = OLD.replace("five\n", "FIVE\n")


def _patch_for(old: str, new: str) -> "SourcePatch":
    return SourcePatch([diff_texts(old, new, "f")])


def test_exact_apply_reproduces_new():
    fp = diff_texts(OLD, NEW, "f")
    result, offsets = apply_file_patch(OLD, fp)
    assert result == NEW
    assert offsets == [0]


def test_forward_then_inverse_is_identity():
    fp = diff_texts(OLD, NEW, "f")
    forward, _ = apply_file_patch(OLD, fp)
    back, _ = apply_file_patch(forward, invert(SourcePatch([fp])).files[0])
    assert back == OLD


def test_offset_search_finds_shifted_anchor():
    # three lines added above shift the patchable region down by three
    shifted = "a\nb\nc\n" + OLD
    fp = diff_texts(OLD, NEW, "f")
    result, offsets = apply_file_patch(shifted, fp, search_window=10)
    assert result == "a\nb\nc\n" + NEW
    assert offsets == [3]


def test_strict_mode_rejects_shifted_anchor():
    shifted = "a\nb\nc\n" + OLD
    fp = diff_texts(OLD, NEW, "f")
    with pytest.raises(HunkRejected, match="^f: hunk 1: no anchor$"):
        apply_file_patch(shifted, fp, max_fuzz=0, search_window=0)


def test_window_bounds_the_search():
    shifted = ("x\n" * 30) + OLD
    fp = diff_texts(OLD, NEW, "f")
    with pytest.raises(HunkRejected, match="no anchor"):
        apply_file_patch(shifted, fp, search_window=5)
    _, offsets = apply_file_patch(shifted, fp, search_window=30)
    assert offsets == [30]


def test_fuzz_drops_outer_context():
    # damage the outermost context line above the change
    damaged = OLD.replace("two\n", "TWO?\n")
    fp = diff_texts(OLD, NEW, "f")
    with pytest.raises(HunkRejected, match="no anchor"):
        apply_file_patch(damaged, fp, max_fuzz=0)
    result, _ = apply_file_patch(damaged, fp, max_fuzz=1)
    assert result == NEW.replace("two\n", "TWO?\n")


def test_fuzz_two_drops_two_context_lines():
    damaged = OLD.replace("two\n", "TWO?\n").replace("three\n", "THREE?\n")
    fp = diff_texts(OLD, NEW, "f")
    with pytest.raises(HunkRejected, match="no anchor"):
        apply_file_patch(damaged, fp, max_fuzz=1)
    result, _ = apply_file_patch(damaged, fp, max_fuzz=2)
    assert result == NEW.replace("two\n", "TWO?\n").replace("three\n", "THREE?\n")


def test_fuzz_never_drops_change_lines():
    damaged = OLD.replace("five\n", "FIVE-already\n")
    fp = diff_texts(OLD, NEW, "f")
    with pytest.raises(HunkRejected, match="^f: hunk 1: no anchor$"):
        apply_file_patch(damaged, fp, max_fuzz=2)


def test_equidistant_anchors_are_ambiguous():
    # identical stanzas at equal distance on both sides of the declared spot
    stanza = "s1\ns2\ns3\n"
    content = stanza + "mid\n" + stanza
    patch_text = (
        "--- a/f\n"
        "+++ b/f\n"
        "@@ -4,3 +4,3 @@\n"
        " s1\n"
        "-s2\n"
        "+S2\n"
        " s3\n"
    )
    # declared position 4 is the "mid" gap: real matches sit at lines 1 and 5,
    # both two lines away
    fp = parse_unified_diff(patch_text).files[0]
    content2 = "pad\n" + stanza + "pad\n" + stanza  # matches at lines 2 and 6, declared 4
    with pytest.raises(HunkRejected, match="^f: hunk 1: ambiguous anchor$"):
        apply_file_patch(content2, fp, search_window=10)
    # with one stanza damaged the survivor wins
    content3 = "pad\n" + stanza + "pad\n" + stanza.replace("s2", "zz")
    result, offsets = apply_file_patch(content3, fp, search_window=10)
    assert offsets == [-2]
    assert "S2" in result


def test_nearer_anchor_wins_over_farther():
    stanza = "s1\ns2\ns3\n"
    content = stanza + "x\n" + "y\n" + stanza
    patch_text = (
        "--- a/f\n+++ b/f\n@@ -2,3 +2,3 @@\n s1\n-s2\n+S2\n s3\n"
    )
    fp = parse_unified_diff(patch_text).files[0]
    result, offsets = apply_file_patch(content, fp, search_window=10)
    assert offsets == [-1]
    assert result.startswith("s1\nS2\ns3\n")


def test_a_rejected_hunk_rejects_its_file():
    # one line of context, so the two changes stay two hunks
    fp = parse_unified_diff(
        "--- a/f\n+++ b/f\n"
        "@@ -1,3 +1,3 @@\n one\n-two\n+TWO\n three\n"
        "@@ -8,3 +8,3 @@\n eight\n-nine\n+NINE\n ten\n"
    ).files[0]
    # the first hunk rejects the file before the second is tried, and a
    # later hunk that cannot be placed rejects it too
    for damaged, number in ((OLD.replace("two\n", "gone\n"), 1),
                            (OLD.replace("nine\n", "gone\n"), 2)):
        with pytest.raises(HunkRejected, match=f"^f: hunk {number}: no anchor$"):
            apply_file_patch(damaged, fp)
        tree = DictTree({"f": damaged})
        with pytest.raises(PatchConflict) as exc:
            apply_patch(tree, [fp], max_fuzz=0)
        assert exc.value.reasons == {"f": CONFLICT_REJECTED}
        assert tree.files == {"f": damaged}


def test_whitespace_is_significant_by_default():
    old = "a\nkeep  \nb\n"
    fp = parse_unified_diff("--- a/f\n+++ b/f\n@@ -2 +2 @@\n-keep\n+kept\n").files[0]
    with pytest.raises(HunkRejected, match="no anchor"):
        apply_file_patch(old, fp)


def test_no_trailing_newline_round_trip():
    old = "a\nb\nlast"
    new = "a\nb\nlast!"
    fp = diff_texts(old, new, "f")
    text = render_unified_diff(SourcePatch([fp]))
    assert text.count("\\ No newline at end of file") == 2
    got, _ = apply_file_patch(old, parse_unified_diff(text).files[0])
    assert got == new
    back, _ = apply_file_patch(got, invert(parse_unified_diff(text)).files[0])
    assert back == old


def test_adding_trailing_newline_round_trip():
    old = "a\nlast"
    new = "a\nlast\nmore\n"
    fp = diff_texts(old, new, "f")
    got, _ = apply_file_patch(old, fp)
    assert got == new
    back, _ = apply_file_patch(got, invert(SourcePatch([fp])).files[0])
    assert back == old


def test_unterminated_pattern_must_match_position():
    # the patch expects "tail" to be unterminated; a terminated file with
    # more lines after it must not anchor
    old = "a\ntail"
    new = "a\ntail!"
    fp = diff_texts(old, new, "f")
    other = "a\ntail\nz\n"
    with pytest.raises(HunkRejected, match="no anchor"):
        apply_file_patch(other, fp, search_window=5)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_random_round_trips(seed):
    rng = random.Random(seed)
    old, new = gen_pair(rng)
    fp = diff_texts(old, new, "f")
    forward, offsets = apply_file_patch(old, fp)
    assert forward == new
    assert offsets == [0] * len(fp.hunks)
    back, _ = apply_file_patch(forward, invert(SourcePatch([fp])).files[0])
    assert back == old


def _run(cmd, **kw):
    return subprocess.run(cmd, capture_output=True, text=True, **kw)


@pytest.mark.skipif(shutil.which("diff") is None, reason="no system diff")
def test_external_diff_output_applies_byte_exact(tmp_path):
    rng = random.Random(20260816)
    for _ in range(25):
        old, new = gen_pair(rng)
        (tmp_path / "old").write_text(old)
        (tmp_path / "new").write_text(new)
        proc = _run(["diff", "-u", "old", "new"], cwd=tmp_path)
        assert proc.returncode in (0, 1)
        if proc.returncode == 0:
            continue
        patch = parse_unified_diff(proc.stdout)
        got, _ = apply_file_patch(old, patch.files[0])
        assert got == new


@pytest.mark.skipif(shutil.which("patch") is None, reason="no system patch")
def test_patch_tool_agrees_with_our_applier(tmp_path):
    rng = random.Random(997)
    for _ in range(25):
        old, new = gen_pair(rng)
        fp = diff_texts(old, new, "target")
        rendered = render_unified_diff(SourcePatch([fp]))
        work = tmp_path / f"case{rng.randint(0, 10**9)}"
        work.mkdir()
        (work / "target").write_text(old)
        proc = _run(["patch", "-p1", "--fuzz=0", "-s"], cwd=work, input=rendered)
        assert proc.returncode == 0, proc.stderr
        theirs = (work / "target").read_text()
        ours, _ = apply_file_patch(old, fp, max_fuzz=0, search_window=0)
        assert ours == theirs == new


# ---------- apply_patch: a whole patch staged in memory, then written ----------


def _conflicts(tree, files):
    """The reasons of the PatchConflict that applying `files` to `tree`
    raises, with the tree checked to be untouched."""
    before = dict(tree.files)
    with pytest.raises(PatchConflict) as exc:
        apply_patch(tree, files, max_fuzz=0)
    assert tree.files == before
    return exc.value.reasons


def test_stage_created_over_existing_conflicts():
    fp = whole_file_patch("", "new\n", "f", MODE_CREATED)
    assert fp.mode_change == MODE_CREATED
    assert _conflicts(DictTree({"f": "old\n"}), [fp]) == {"f": CONFLICT_EXISTS}


def test_stage_created_where_absent_writes_the_file():
    tree = DictTree({})
    offsets = apply_patch(tree, [whole_file_patch("", "new\n", "f", MODE_CREATED)], max_fuzz=0)
    assert offsets == [[0]]
    assert tree.files == {"f": "new\n"}


def test_stage_missing_file_conflicts():
    assert _conflicts(DictTree({}), [diff_texts(OLD, NEW, "f")]) == {"f": CONFLICT_MISSING}


def test_stage_binary_file_conflicts():
    fp = parse_unified_diff("Binary files a/x and b/x differ\n").files[0]
    assert _conflicts(DictTree({"x": "anything"}), [fp]) == {"x": CONFLICT_BINARY}


def test_stage_delete_stages_none_and_removes_the_file():
    fp = whole_file_patch(OLD, "", "f", MODE_DELETED)
    assert fp.mode_change == MODE_DELETED
    tree = DictTree({"f": OLD, "g": "kept\n"})
    apply_patch(tree, [fp], max_fuzz=0)
    assert tree.files == {"g": "kept\n"}


def test_stage_later_patch_on_a_path_sees_the_staged_text():
    mid = OLD.replace("two\n", "TWO\n")
    end = mid.replace("nine\n", "NINE\n")
    tree = DictTree({"f": OLD})
    # the second patch anchors only on the first one's output
    apply_patch(tree, [diff_texts(OLD, mid, "f"), diff_texts(mid, end, "f")], max_fuzz=0)
    assert tree.files == {"f": end}
    assert tree.reads == ["f"]
    # a file created by one patch is there for the next
    tree = DictTree({})
    apply_patch(tree, [whole_file_patch("", OLD, "g", MODE_CREATED), diff_texts(OLD, NEW, "g")],
                max_fuzz=0)
    assert tree.files == {"g": NEW}
    # and a file deleted by one patch is missing for the next
    assert _conflicts(DictTree({"f": OLD}), [whole_file_patch(OLD, "", "f", MODE_DELETED),
                                             diff_texts(OLD, NEW, "f")]) == {"f": CONFLICT_MISSING}


def test_stage_writes_nothing_on_a_conflict():
    tree = DictTree({"a": OLD, "b": "unrelated\n"})
    # a PatchConflict is the PatchError that callers catch
    with pytest.raises(PatchError) as exc:
        apply_patch(tree, [diff_texts(OLD, NEW, "a"), diff_texts(OLD, NEW, "b")], max_fuzz=0)
    assert exc.value.reasons == {"b": CONFLICT_REJECTED}
    assert tree.files == {"a": OLD, "b": "unrelated\n"}


def test_stage_reports_every_file_and_lists_every_conflict(monkeypatch):
    files = [
        diff_texts(OLD, NEW, "ok1"),
        diff_texts(OLD, NEW, "rejected"),
        diff_texts(OLD, NEW, "missing"),
        whole_file_patch("", "x\n", "exists", MODE_CREATED),
        diff_texts(OLD, NEW, "ok2"),
    ]
    tree = DictTree({"ok1": OLD, "rejected": "other\n", "exists": "y\n", "ok2": OLD})
    applied = []

    def recording(content, fp, max_fuzz):
        new, offsets = apply_file_patch(content, fp, max_fuzz=max_fuzz)
        applied.append((fp.path, new))
        return new, offsets

    monkeypatch.setattr(applier, "apply_file_patch", recording)
    assert list(_conflicts(tree, files).items()) == [
        ("rejected", CONFLICT_REJECTED),
        ("missing", CONFLICT_MISSING),
        ("exists", CONFLICT_EXISTS),
    ]
    # files after a conflict are still applied
    assert tree.reads == ["ok1", "rejected", "missing", "exists", "ok2"]
    assert applied == [("ok1", NEW), ("ok2", NEW)]
    # with the conflicting files gone, every file applies and is reported
    del files[1:4]
    assert [fp.path for fp in files] == ["ok1", "ok2"]
    assert apply_patch(tree, files, max_fuzz=0) == [[0], [0]]
    assert {p: tree.files[p] for p in ("ok1", "ok2")} == {"ok1": NEW, "ok2": NEW}
