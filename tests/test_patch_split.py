"""Granularity splitting: part shapes and equivalence."""

from __future__ import annotations

import random

import pytest

from revenant.patchcore import (
    Granularity,
    SourcePatch,
    apply_patch,
    parse_unified_diff,
    split_by_granularity,
)
from revenant.patchcore.applier import apply_file_patch
from revenant.patchcore.diffgen import diff_texts
from genpatch import DictTree, gen_pair

C_FILE = """\
#include <stdio.h>

static int helper(int x)
{
    if (x < 0) {
        return -x;
    }
    return x;
}

int main(int argc, char **argv)
{
    int v = argc;
    v = helper(v);
    printf("%d\\n", v);
    return 0;
}
"""


def _edit_c_file():
    new = C_FILE.replace("return -x;", "return 1 - x;")
    new = new.replace('printf("%d\\n", v);', 'printf("value=%d\\n", v);')
    return new


def test_patch_hunks_partitions_by_file(tmp_path):
    old_a, old_b = "a1\na2\na3\n", "b1\nb2\nb3\n"
    new_a, new_b = "a1\nA2\na3\n", "b1\nb2\nB3\n"
    patch = SourcePatch(
        [diff_texts(old_a, new_a, "a.txt"), diff_texts(old_b, new_b, "b.txt")]
    )
    parts = split_by_granularity(patch, Granularity.PatchHunks, read=lambda p: None)
    assert [p.path for p in parts] == ["a.txt", "b.txt"]
    got_a, _ = apply_file_patch(old_a, parts[0])
    got_b, _ = apply_file_patch(old_b, parts[1])
    assert (got_a, got_b) == (new_a, new_b)


def test_whole_files_replaces_wholesale(tmp_path):
    new = _edit_c_file()
    (tmp_path / "m.c").write_text(C_FILE)
    patch = SourcePatch([diff_texts(C_FILE, new, "m.c")])
    parts = split_by_granularity(
        patch, Granularity.WholeFiles, read=lambda p: (tmp_path / p).read_text()
    )
    assert len(parts) == 1
    fp = parts[0]
    assert len(fp.hunks) == 1
    assert fp.hunks[0].old_len == C_FILE.count("\n")
    got, _ = apply_file_patch(C_FILE, fp, max_fuzz=0, search_window=0)
    assert got == new


# a file emptied but kept, and an empty file filled, as `git diff` shows them
EMPTIED = "--- a/x.txt\n+++ b/x.txt\n@@ -1,2 +0,0 @@\n-one\n-two\n"
FILLED = "--- a/x.txt\n+++ b/x.txt\n@@ -0,0 +1 @@\n+one\n"


@pytest.mark.parametrize("granularity", list(Granularity))
@pytest.mark.parametrize("diff, before, after", [(EMPTIED, "one\ntwo\n", ""),
                                                 (FILLED, "", "one\n")], ids=["emptied", "filled"])
def test_every_granularity_keeps_an_empty_file(granularity, diff, before, after):
    tree = DictTree({"x.txt": before})
    parts = split_by_granularity(parse_unified_diff(diff), granularity, tree.read)
    apply_patch(tree, parts, max_fuzz=0)
    assert tree.files == {"x.txt": after}


def test_split_concatenation_equivalence_randomized():
    rng = random.Random(42)
    for _ in range(40):
        old, new = gen_pair(rng, unique=True)
        fp = diff_texts(old, new, "f")
        if not fp.hunks:
            continue
        patch = SourcePatch([fp])
        [part] = split_by_granularity(patch, Granularity.WholeFiles, read=lambda p: old)
        assert len(part.hunks) == 1
        got, _ = apply_file_patch(old, part, search_window=0)
        assert got == new
