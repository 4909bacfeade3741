import pytest

from revenant.categorize import (
    CATEGORIES,
    categorize_commit,
    categorize_patch,
    tally,
)
from revenant.forge import ARCHETYPES, forge_repo
from revenant.gitio import CommitMemo
from revenant.patchcore import parse_unified_diff


@pytest.mark.parametrize("arch", ARCHETYPES)
def test_archetype_commits_classify_exactly(tmp_path, arch):
    fx = forge_repo(tmp_path, [arch])
    with CommitMemo(fx.repo) as memo:
        call = categorize_commit(memo, fx.breakers[0]["id"])
    assert call.category == arch, call.rationale


def diff(text: str):
    return parse_unified_diff(text)


def test_rename_detected():
    call = categorize_patch(
        diff(
            """\
--- a/m.c
+++ b/m.c
@@ -1,6 +1,6 @@
 static int total;
-int bump(int amount)
+int bump(int delta)
 {
-    total += amount;
+    total += delta;
     return total;
 }
"""
        )
    )
    assert call.category == "C1"


def test_inconsistent_rename_is_not_c1():
    call = categorize_patch(
        diff(
            """\
--- a/m.c
+++ b/m.c
@@ -1,6 +1,6 @@
 static int total;
-int bump(int amount)
+int bump(int delta)
 {
-    total += amount;
+    total += step;
     return total;
 }
"""
        )
    )
    assert call.category != "C1"


def test_type_change_detected():
    call = categorize_patch(
        diff(
            """\
--- a/m.c
+++ b/m.c
@@ -1,3 +1,3 @@
 struct rec {
-    unsigned int length;
+    unsigned long length;
 };
"""
        )
    )
    assert call.category == "C2"


def test_type_change_with_unrelated_edit_is_not_c2():
    call = categorize_patch(
        diff(
            """\
--- a/m.c
+++ b/m.c
@@ -1,4 +1,4 @@
 struct rec {
-    unsigned int length;
+    unsigned long size;
     char name[8];
 };
"""
        )
    )
    assert call.category != "C2"


def test_option_removal_wins_over_rename():
    # C3 has the highest precedence: dropping the flag matters more than
    # any incidental renaming in the same commit
    call = categorize_patch(
        diff(
            """\
--- a/tool.c
+++ b/tool.c
@@ -1,7 +1,5 @@
 int run(int argc, char **argv)
 {
-    if (strcmp(argv[1], "-i") == 0)
-        lenient = 1;
-    opts = parse_args(argc);
+    opts = parse_argc(argc);
     return use(opts);
 }
"""
        )
    )
    assert call.category == "C3"


def test_file_deletion_is_c3():
    call = categorize_patch(
        diff(
            """\
--- a/helper.c
+++ /dev/null
@@ -1,3 +0,0 @@
-int helper(void)
-{
-}
"""
        )
    )
    assert call.category == "C3"


def test_new_guard_with_input_tokens_is_c4():
    call = categorize_patch(
        diff(
            """\
--- a/m.c
+++ b/m.c
@@ -1,4 +1,8 @@
 int parse(struct buf *b)
 {
+    if (b->len > MAX_RECORD_SIZE) {
+        fprintf(stderr, "oversized record\\n");
+        return -1;
+    }
     return decode(b);
 }
"""
        )
    )
    assert call.category == "C4"


def test_tightened_error_path_is_c5():
    call = categorize_patch(
        diff(
            """\
--- a/m.c
+++ b/m.c
@@ -2,5 +2,6 @@
     if (!ok) {
         fprintf(stderr, "bad body\\n");
+        return -1;
     }
     consume(body);
 }
"""
        )
    )
    assert call.category == "C5"


def test_moved_block_is_c6():
    call = categorize_patch(
        diff(
            """\
--- a/m.c
+++ b/m.c
@@ -1,8 +1,13 @@
+static void log_result(int rc)
+{
+    fprintf(log, "rc=%d", rc);
+    flush(log);
+    close(log);
+}
+
 int run(void)
 {
     int rc = work();
-    fprintf(log, "rc=%d", rc);
-    flush(log);
-    close(log);
+    log_result(rc);
     return rc;
 }
"""
        )
    )
    assert call.category == "C6"


def test_unmatched_change_falls_back_to_c6():
    call = categorize_patch(
        diff(
            """\
--- a/m.c
+++ b/m.c
@@ -1,4 +1,5 @@
 int run(void)
 {
+    log_event("start");
     return work();
 }
"""
        )
    )
    assert call.category == "C6"
    assert "residual" in call.rationale


class TestTally:
    def test_counts_all_categories(self):
        rows = [
            {"project": "p", "commit": "a", "category": "C4"},
            {"project": "p", "commit": "b", "category": "C4"},
            {"project": "p", "commit": "c", "category": "C1"},
        ]
        t = tally(rows)
        assert t == {"C1": 1, "C2": 0, "C3": 0, "C4": 2, "C5": 0, "C6": 0}
        assert list(t) == list(CATEGORIES)

    def test_same_commit_counted_once(self):
        rows = [
            {"project": "p", "commit": "a", "category": "C3"},
            {"project": "p", "commit": "a", "category": "C3"},
        ]
        assert tally(rows)["C3"] == 1

    def test_same_id_in_other_project_is_distinct(self):
        rows = [
            {"project": "p", "commit": "a", "category": "C3"},
            {"project": "q", "commit": "a", "category": "C2"},
        ]
        t = tally(rows)
        assert t["C3"] == 1 and t["C2"] == 1

    def test_conflicting_duplicate_rejected(self):
        rows = [
            {"project": "p", "commit": "a", "category": "C3"},
            {"project": "p", "commit": "a", "category": "C4"},
        ]
        with pytest.raises(ValueError):
            tally(rows)

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            tally([{"project": "p", "commit": "a", "category": "C7"}])
