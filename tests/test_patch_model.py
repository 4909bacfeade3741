"""Parse, render and invert: structure, round-trips, error cases."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from revenant.patchcore import (
    REMOVE,
    FilePatch,
    SourcePatch,
    invert,
    parse_unified_diff,
    render_unified_diff,
)
from revenant.patchcore.diffgen import diff_texts
from revenant.patchcore.model import (
    ADD,
    Hunk,
    HunkCountMismatch,
    HunkLine,
    MalformedHeader,
    TruncatedHunk,
)
from genpatch import gen_pair

SAMPLE = """\
--- a/tif_next.c
+++ b/tif_next.c
@@ -37,6 +37,7 @@
 \tunsigned char *bp = (unsigned char *)buf;
 \ttmsize_t cc = tif->tif_rawcc;
 \tuint8 *row = (uint8 *)op;
+\ttmsize_t op_offset = 0;
 \ttmsize_t scanline = tif->tif_scanlinesize;
 \tif (cc < 4) {
 \t\treturn (0);
@@ -45,3 +46,3 @@
 \tswitch (n) {
 \tcase LITERALROW:
-\twhile (n-- > 0 && npixels < imagewidth)
+\twhile (n-- > 0 && npixels < imagewidth && op_offset < scanline)
"""


def test_parse_basic_structure():
    p = parse_unified_diff(SAMPLE)
    assert len(p.files) == 1
    fp = p.files[0]
    assert fp.path == "tif_next.c"
    assert len(fp.hunks) == 2
    h1, h2 = fp.hunks
    assert (h1.old_start, h1.old_len, h1.new_start, h1.new_len) == (37, 6, 37, 7)
    kinds = [ln.kind for ln in h1.lines]
    assert kinds.count(ADD) == 1
    assert kinds.count(REMOVE) == 0
    assert (h2.old_start, h2.old_len, h2.new_start, h2.new_len) == (45, 3, 46, 3)
    assert [ln.kind for ln in h2.lines].count(REMOVE) == 1


def test_parse_render_round_trip_structural():
    p = parse_unified_diff(SAMPLE)
    again = parse_unified_diff(render_unified_diff(p))
    assert again == p


def test_parse_skips_git_decoration():
    text = (
        "diff --git a/x.c b/x.c\n"
        "index 1111111..2222222 100644\n"
        "--- a/x.c\n"
        "+++ b/x.c\n"
        "@@ -1 +1 @@\n"
        "-old\n"
        "+new\n"
    )
    p = parse_unified_diff(text)
    assert len(p.files) == 1
    assert p.files[0].hunks[0].old_len == 1


def test_parse_created_and_deleted_files():
    text = (
        "--- /dev/null\n"
        "+++ b/added.c\n"
        "@@ -0,0 +1,2 @@\n"
        "+one\n"
        "+two\n"
        "--- a/gone.c\n"
        "+++ /dev/null\n"
        "@@ -1,2 +0,0 @@\n"
        "-one\n"
        "-two\n"
    )
    p = parse_unified_diff(text)
    added, gone = p.files
    assert added.mode_change == "created"
    assert added.path == "added.c"
    assert gone.mode_change == "deleted"
    assert gone.path == "gone.c"
    # render and reparse keeps the modes
    p2 = parse_unified_diff(render_unified_diff(p))
    assert [fp.mode_change for fp in p2.files] == ["created", "deleted"]


def test_parse_binary_marker():
    p = parse_unified_diff("Binary files a/blob.bin and b/blob.bin differ\n")
    assert p.files[0].is_binary
    assert p.files[0].path == "blob.bin"
    assert parse_unified_diff(render_unified_diff(p)) == p


def test_parse_no_newline_marker():
    text = (
        "--- a/f\n"
        "+++ b/f\n"
        "@@ -1,2 +1,2 @@\n"
        " keep\n"
        "-tail\n"
        "+tail!\n"
        "\\ No newline at end of file\n"
    )
    p = parse_unified_diff(text)
    lines = p.files[0].hunks[0].lines
    assert lines[1].newline is True
    assert lines[2].newline is False
    assert render_unified_diff(p) == text


def test_parse_rejects_bad_header():
    with pytest.raises(MalformedHeader):
        parse_unified_diff("--- a/f\n+++ b/f\n@@ -x +1 @@\n junk\n")


@pytest.mark.parametrize("text", [
    "--- /dev/null\n+++ /dev/null\n",
    "Binary files /dev/null and /dev/null differ\n",
    "--- a/f\n+++ b/f\n@@ -1,0 +1,0 @@\n\\ No newline at end of file\n",
], ids=["text-both-dev-null", "binary-both-dev-null", "marker-in-empty-hunk"])
def test_parse_rejects_a_header_or_marker_that_names_no_line(text):
    with pytest.raises(MalformedHeader):
        parse_unified_diff(text)


def test_parse_rejects_count_mismatch():
    text = "--- a/f\n+++ b/f\n@@ -1,2 +1,2 @@\n keep\n-gone\n+here\n+extra\n"
    with pytest.raises(HunkCountMismatch):
        parse_unified_diff(text)


def test_parse_rejects_truncated_hunk():
    text = "--- a/f\n+++ b/f\n@@ -1,3 +1,3 @@\n keep\n"
    with pytest.raises(TruncatedHunk):
        parse_unified_diff(text)


def test_parse_rejects_overlapping_hunks():
    text = (
        "--- a/f\n"
        "+++ b/f\n"
        "@@ -1,3 +1,3 @@\n"
        " a\n"
        "-b\n"
        "+B\n"
        " c\n"
        "@@ -2,2 +2,2 @@\n"
        "-b\n"
        "+B2\n"
        " c\n"
    )
    with pytest.raises(MalformedHeader, match="^hunks overlap or are out of order near line 2$"):
        parse_unified_diff(text)


_F = "--- a/f\n+++ b/f\n"
_OUT_OF_ORDER = _F + "@@ -5 +5 @@\n-a\n+b\n@@ -1 +1 @@\n-c\n+d\n"


@pytest.mark.parametrize("text, error, message", [
    (_F + "@@ -1,1 +1,2 @@\n a\n b\n", HunkCountMismatch,
     "hunk declares 1 old lines, body has 2"),
    (_F + "@@ -1,2 +1,1 @@\n a\n b\n", HunkCountMismatch,
     "hunk declares 1 new lines, body has 2"),
    (_F + "@@ -1,2 +1,1 @@\n-a\n+b\n", TruncatedHunk,
     "input ends inside hunk starting at old line 1"),
    (_F + "@@ -1,1 +1,2 @@\n-a\n+b\n", TruncatedHunk,
     "input ends inside hunk starting at old line 1"),
    (_F + "@@ -1,2 +1,1 @@\n-a\n+b\n@@ -5 +4 @@\n-c\n+d\n", TruncatedHunk,
     "unexpected line inside hunk at line 6: '@@ -5 +4 @@'"),
    (_OUT_OF_ORDER, MalformedHeader, "hunks overlap or are out of order near line 1"),
    # a file's hunk order is checked once the whole text is read
    (_OUT_OF_ORDER + "--- a/g\n+++ b/g\n@@ -1,3 +1,3 @@\n keep\n", TruncatedHunk,
     "input ends inside hunk starting at old line 1"),
], ids=["old-side-long", "new-side-long", "old-side-short", "new-side-short",
        "short-side-meets-next-hunk", "out-of-order",
        "out-of-order-then-truncated"])
def test_parse_rejects_a_hunk_that_breaks_its_counts_or_order(text, error, message):
    with pytest.raises(error) as raised:
        parse_unified_diff(text)
    assert type(raised.value) is error
    assert str(raised.value) == message


@pytest.mark.parametrize("text, files", [
    ("--- a/old.c\n+++ b/new.c\n@@ -1 +1 @@\n-a\n+b\n", [("old.c", "none", False)]),
    ("Binary files /dev/null and b/n.bin differ\nBinary files a/g.bin and /dev/null differ\n"
     "Binary files a/x.bin and b/y.bin differ\n",
     [("n.bin", "created", True), ("g.bin", "deleted", True), ("x.bin", "none", True)]),
    ("diff --git a/e b/e\nnew file mode 100644\nindex 0000000..e69de29\n"
     "diff --git a/d b/d\ndeleted file mode 100644\n",
     [("e", "created", False), ("d", "deleted", False)]),
], ids=["two-names", "binary", "empty-git-sections"])
def test_a_file_patch_takes_the_name_of_the_side_that_exists(text, files):
    # a file on both sides takes its `---` name
    parsed = parse_unified_diff(text).files
    assert [(fp.path, fp.mode_change, fp.is_binary) for fp in parsed] == files


def test_invert_swaps_adds_and_removes():
    p = parse_unified_diff(SAMPLE)
    q = invert(p)
    h1 = q.files[0].hunks[0]
    assert (h1.old_start, h1.old_len) == (37, 7)
    assert (h1.new_start, h1.new_len) == (37, 6)
    kinds = [ln.kind for ln in h1.lines]
    assert kinds.count(REMOVE) == 1
    assert kinds.count(ADD) == 0


def test_invert_is_involutive():
    p = parse_unified_diff(SAMPLE)
    assert invert(invert(p)) == p


def test_invert_reorders_replace_runs():
    text = "--- a/f\n+++ b/f\n@@ -1,2 +1,2 @@\n-a\n-b\n+c\n+d\n"
    q = invert(parse_unified_diff(text))
    sigils = [(ln.kind, ln.text) for ln in q.files[0].hunks[0].lines]
    assert sigils == [(REMOVE, "c"), (REMOVE, "d"), (ADD, "a"), (ADD, "b")]


def test_invert_flips_created_to_deleted():
    text = "--- /dev/null\n+++ b/n.c\n@@ -0,0 +1 @@\n+hello\n"
    q = invert(parse_unified_diff(text))
    assert q.files[0].mode_change == "deleted"
    assert invert(q).files[0].mode_change == "created"


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_generated_patches_round_trip_through_text(seed):
    rng = random.Random(seed)
    old, new = gen_pair(rng)
    fp = diff_texts(old, new, "f")
    p = SourcePatch([fp])
    again = parse_unified_diff(render_unified_diff(p))
    assert again.files == p.files
    assert invert(invert(p)).files == p.files


@pytest.mark.parametrize("name", ["x\ty.txt", "back\\slash.c", "\u00e9.txt", '"q"'])
def test_names_git_quotes_round_trip_through_text(name):
    p = SourcePatch([diff_texts("a\n", "b\n", name)])
    text = render_unified_diff(p)
    assert parse_unified_diff(text) == p
    assert text.startswith('--- "a/')


def test_render_quotes_names_as_git_does():
    fp = diff_texts("a\n", "b\n", "x\ty \u00e9\\.txt")
    text = render_unified_diff(SourcePatch([fp]))
    # git 2.39 writes a tab after a name holding a space, quoted or not
    assert text.splitlines()[:2] == [
        '--- "a/x\\ty \\303\\251\\\\.txt"\t',
        '+++ "b/x\\ty \\303\\251\\\\.txt"\t',
    ]
    plain = render_unified_diff(SourcePatch([diff_texts("a\n", "b\n", "dir/plain.c")]))
    assert plain.startswith("--- a/dir/plain.c\n+++ b/dir/plain.c\n")


@pytest.mark.parametrize("name", ["tail.c ", "mid dle.c", " lead.c"])
def test_names_with_spaces_round_trip_through_text(name):
    p = SourcePatch([diff_texts("a\n", "b\n", name)])
    text = render_unified_diff(p)
    assert text.startswith(f"--- a/{name}\t\n+++ b/{name}\t\n")
    assert parse_unified_diff(text) == p


def test_a_trailing_space_in_a_git_header_is_kept():
    # as git 2.39 writes a file whose name ends in a space
    text = "diff --git a/tail.c  b/tail.c \n--- a/tail.c \t\n+++ b/tail.c \t\n@@ -1 +1 @@\n-a\n+b\n"
    assert [fp.path for fp in parse_unified_diff(text).files] == ["tail.c "]


def test_render_omits_len_one_counts():
    fp = FilePatch("f", [Hunk(3, 1, 3, 1, [HunkLine(REMOVE, "x"), HunkLine(ADD, "y")])])
    text = render_unified_diff(SourcePatch([fp]))
    assert "@@ -3 +3 @@" in text
