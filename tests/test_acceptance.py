"""Acceptance gate: one test per shipped guarantee, run with the default suite.

Each test is self-contained and enforces its own tolerance and runtime
ceiling, so `pytest -v tests/test_acceptance.py` prints one pass/fail line
per criterion.
"""

import itertools
import math
import random
import re
import stat
import subprocess
import sys
import time
from pathlib import Path

from genpatch import gen_pair
from gitutil import run_poc_in_place

from revenant.categorize import categorize_commit, tally
from revenant.cli import main
from revenant.curation import POLICY_MAX_SUBSET, select_compatible
from revenant.datasets import load_breaker_ledger
from revenant.forge import ARCHETYPES, forge_flip_history, forge_repo
from revenant.gitio import CommitMemo, activity_histogram
from revenant.oracle import (
    HANG_TRIGGER_CLASS,
    KIND_HANG,
    KIND_NOT_TRIGGERED,
    KIND_POC_INCOMPATIBLE,
    KIND_TRIGGERED,
    PocSpec,
)
from revenant.patchcore import parse_unified_diff, render_unified_diff
from revenant.patchcore.applier import apply_file_patch
from revenant.patchcore.diffgen import diff_texts
from revenant.patchcore.model import SourcePatch, invert_file_patch
from revenant.porter import (
    ABORT_COMPLEXITY,
    FINAL_ABORTED,
    FINAL_REVIVED,
    Porter,
    RevivalRecord,
    find_breaking_commit,
)

ROOT = Path(__file__).parent.parent
CORPUS = Path(__file__).parent / "data" / "detector_corpus"


def test_criterion_01_patch_algebra_round_trips(tmp_path):
    t0 = time.monotonic()
    rng = random.Random(0xA11CE)
    externals = 0
    for i in range(1000):
        old, new = gen_pair(rng)
        fp = diff_texts(old, new, "t")
        rendered = render_unified_diff(SourcePatch([fp]))

        reparsed = parse_unified_diff(rendered)
        assert render_unified_diff(reparsed) == rendered

        inv = invert_file_patch(fp)
        assert render_unified_diff(SourcePatch([invert_file_patch(inv)])) == rendered

        got, _ = apply_file_patch(old, fp)
        assert got == new
        back, _ = apply_file_patch(new, inv)
        assert back == old

        # external toolchain legs need an ordinary edit (creations and
        # deletions route through /dev/null headers and file removal)
        if old == new or not old or not new:
            continue
        (tmp_path / "old").write_text(old)
        (tmp_path / "new").write_text(new)
        proc = subprocess.run(
            ["diff", "-u", "old", "new"],
            cwd=tmp_path, capture_output=True, text=True,
        )
        assert proc.returncode == 1
        theirs = parse_unified_diff(proc.stdout)
        got, _ = apply_file_patch(old, theirs.files[0], max_fuzz=0, search_window=0)
        assert got == new

        work = tmp_path / f"w{i}"
        work.mkdir()
        (work / "t").write_text(old)
        proc = subprocess.run(
            ["patch", "-p1", "--fuzz=0", "-s"],
            cwd=work, input=rendered, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (work / "t").read_text() == new
        externals += 1

    elapsed = time.monotonic() - t0
    assert externals > 900
    assert elapsed < 60, f"patch algebra took {elapsed:.1f}s"


def test_criterion_02_bisection_matches_linear_scan(tmp_path):
    t0 = time.monotonic()
    rng = random.Random(0xB15EC7)
    # corner placements first, then random lengths and flip positions
    trials = [(2, 0), (2, 1), (128, 0), (128, 127)]
    while len(trials) < 200:
        n = rng.randint(2, 128)
        trials.append((n, rng.randrange(n)))

    for trial, (n, flip) in enumerate(trials):
        fx = forge_flip_history(tmp_path / f"t{trial}", n, flip)

        def probe(cid):
            out = subprocess.run(
                ["git", "-C", str(fx.repo), "show", f"{cid}:state.txt"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            return "good" if out == "good" else "bad"

        calls = 0

        def counted(cid):
            nonlocal calls
            calls += 1
            return probe(cid)

        res = find_breaking_commit(fx.commit_ids, counted, skip_budget=3)
        oracle = next(cid for cid in fx.commit_ids if probe(cid) == "bad")
        assert res.commit == oracle == fx.flip_id, f"trial {trial} (n={n})"
        bound = math.ceil(math.log2(n)) + 3 + 1
        assert calls <= bound, f"trial {trial}: {calls} calls for n={n}"

    elapsed = time.monotonic() - t0
    assert elapsed < 600, f"bisection sweep took {elapsed:.1f}s"


def test_criterion_03_revive_loop_matches_planted_truth(tmp_path):
    plans = {
        0: [],
        1: ["C1"],
        2: ["C1", "C4"],
        3: ["C1", "C4", "C5"],
        4: ["C1", "C4", "C5", "C3"],
    }
    for k, archetypes in sorted(plans.items()):
        fx = forge_repo(tmp_path / f"k{k}", archetypes)
        porter = Porter(
            fx.repo, fx.recipe, fx.poc, scratch_dir=tmp_path / f"k{k}" / "scratch"
        )
        rec = porter.revive(f"CVE-0000-000{k}", "pack", [fx.fix], fx.target)
        assert rec.final == FINAL_REVIVED, f"k={k}: {rec.abort_reason}"
        assert rec.revert_stack == fx.expected_stack, f"k={k}"
        assert rec.effort["commits_reverted"] == k

    fx = forge_repo(tmp_path / "k5", ["C1", "C4", "C5", "C3", "C2"])
    porter = Porter(fx.repo, fx.recipe, fx.poc, scratch_dir=tmp_path / "k5" / "scratch")
    rec = porter.revive("CVE-0000-0005", "pack", [fx.fix], fx.target)
    assert rec.final == FINAL_ABORTED
    assert rec.abort_reason == ABORT_COMPLEXITY


def _corpus_script(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


def test_criterion_04_detector_corpus_classified_exactly(tmp_path):
    import json

    labels = json.loads((CORPUS / "labels.json").read_text())
    kind_for_unlabeled = {
        "clean_run.txt": KIND_NOT_TRIGGERED,
        "noisy_but_clean.txt": KIND_NOT_TRIGGERED,
        "usage_error.txt": KIND_POC_INCOMPATIBLE,
    }
    poc_input = tmp_path / "poc.bin"
    poc_input.write_bytes(b"x")

    for name, label in sorted(labels.items()):
        exit_code = 0 if label is None and name != "usage_error.txt" else 1
        script = _corpus_script(
            tmp_path, name.replace(".txt", ".sh"),
            f"cat {CORPUS / name}\nexit {exit_code}\n",
        )
        poc = PocSpec(command="{binary} {input}", input_file=str(poc_input))
        verdict = run_poc_in_place([script], poc, cwd=tmp_path)
        if label is not None:
            assert verdict.kind == KIND_TRIGGERED, name
            assert verdict.detector_class == label, name
        else:
            assert verdict.kind == kind_for_unlabeled[name], name

    sleeper = _corpus_script(tmp_path, "sleeper.sh", "sleep 30\n")
    hang_poc = PocSpec(
        command="{binary} {input}", input_file=str(poc_input), run_timeout=0.5
    )
    assert run_poc_in_place([sleeper], hang_poc, cwd=tmp_path).kind == KIND_HANG

    hang_poc = PocSpec(
        command="{binary} {input}",
        input_file=str(poc_input),
        run_timeout=0.5,
        hang_is_trigger=True,
    )
    verdict = run_poc_in_place([sleeper], hang_poc, cwd=tmp_path)
    assert verdict.kind == KIND_TRIGGERED
    assert verdict.detector_class == HANG_TRIGGER_CLASS


def test_criterion_05_breaker_ledger_tally():
    assert tally(load_breaker_ledger()) == {
        "C1": 1, "C2": 5, "C3": 3, "C4": 18, "C5": 3, "C6": 3,
    }


TIER_MATRIX = """\
libpng   CVE-2018-13785  ✓  ✓  ✓
libpng   CVE-2019-7317   ✓  ✓  ✓
lua      CVE-2020-15945  ✓  ✗  ✗
lua      CVE-2020-24369  ✓  ✓  ✓
lua      CVE-2020-24370  ✓  ✗  ✗
libtiff  CVE-2015-8784   ✓  ✓  ✓
libtiff  CVE-2016-3658   ✗  ✗  ✗
libtiff  CVE-2016-5314   ✗  ✗  ✗
libtiff  CVE-2016-10266  ✗  ✗  ✗
libtiff  CVE-2016-10267  ✓  ✗  ✗
libtiff  CVE-2016-10269  ✓  ✓  ✓
libtiff  CVE-2016-10270  ✗  ✗  ✗
libtiff  CVE-2017-11613  ✓  ✓  ✓
libtiff  CVE-2018-8905   ✓  ✗  ✗
libtiff  CVE-2018-7456   ✓  ✓  ✓
libtiff  CVE-2018-18557  ✓  ✓  ✓
libtiff  CVE-2019-7663   ✗  ✗  ✗
libxml2  CVE-2016-1762   ✗  ✗  ✗
libxml2  CVE-2016-1834   ✓  ✓  ✓
libxml2  CVE-2016-1840   ✗  ✗  ✗
libxml2  CVE-2017-8872   ✓  ✗  ✗
libxml2  CVE-2017-9047   ✓  ✓  ✓
poppler  CVE-2019-9959   ✓  ✗  ✗
poppler  CVE-2019-10873  ✓  ✓  ✓
poppler  CVE-2019-12293  ✓  ✓  ✓
poppler  CVE-2019-14494  ✓  ✓  ✓
php      CVE-2019-9021   ✓  ✓  ✓
php      CVE-2019-11034  -  ✓  ✓
php      CVE-2019-11041  ✓  ✓  ✓
sqlite   CVE-2013-7443   ✓  ✗  ✗
sqlite   CVE-2019-9936   ✓  ✓  ✓
sqlite   CVE-2019-19923  ✓  ✓  ✗
"""

REVIVAL_MATRIX = """\
lua      CVE-2020-15945  ✓  ✓  ✓  3
lua      CVE-2020-24370  ✓  ✓  ✓  1
libtiff  CVE-2016-3658   ✓  ✓  ✓  1
libtiff  CVE-2016-5314   ✓  ✓  ✗  4
libtiff  CVE-2016-10266  ✓  ✓  ✓  1
libtiff  CVE-2016-10267  ✗  ✗  ✗  4
libtiff  CVE-2016-10270  ✓  ✓  ✗  3
libtiff  CVE-2018-8905   ✓  ✓  ✓  2
libtiff  CVE-2019-7663   ✗  ✗  ✓  3
libxml2  CVE-2016-1762   ✓  ✓  ✗  3
libxml2  CVE-2016-1840   ✓  ✓  ✓  1
libxml2  CVE-2017-8872   ✓  ✗  ✗  3
poppler  CVE-2019-9959   ✓  ✓  ✗  4
sqlite   CVE-2013-7443   ✓  ✓  ✓  1
sqlite   CVE-2019-19923  -  -  ✓  3
"""


def test_criterion_06_paper_style_matrices(capsys):
    assert main(["report", "--bundled", "--paper-style"]) == 0
    out = capsys.readouterr().out

    sections = out.split("\n\n")
    tier = next(s for s in sections if s.startswith("PoC outcomes by tier"))
    revival = next(s for s in sections if s.startswith("revival outcomes"))

    tier_rows = [ln.split() for ln in tier.splitlines()[2:]]
    assert tier_rows == [ln.split() for ln in TIER_MATRIX.splitlines()]
    assert len(tier_rows) == 32
    for col, want in zip(range(2, 5), (24, 18, 17)):
        assert sum(1 for row in tier_rows if row[col] == "✓") == want

    revival_rows = [ln.split() for ln in revival.splitlines()[2:]]
    assert revival_rows == [ln.split() for ln in REVIVAL_MATRIX.splitlines()]
    assert len(revival_rows) == 15
    reversed_by_cve = {row[1]: int(row[5]) for row in revival_rows}
    assert reversed_by_cve["CVE-2020-24370"] == 1
    assert reversed_by_cve["CVE-2016-5314"] == 4
    assert sum(reversed_by_cve.values()) == 37


def _record(cve):
    return RevivalRecord(
        cve=cve, project="proj", fix_commits=["f"], target="base",
        granularity="patch-hunks", final="Revived", abort_reason="",
        aborted_on="", revert_stack=[], verdict={"kind": "Triggered"},
        effort={}, flags={}, touched_regions=[], port_digest="",
    )


def _independent(cves, conflicts):
    return not any(tuple(sorted(pair)) in conflicts for pair in itertools.combinations(cves, 2))


def _brute_force_mis_size(nodes, conflicts):
    for r in range(len(nodes), -1, -1):
        for combo in itertools.combinations(nodes, r):
            if _independent(combo, conflicts):
                return r
    return 0


def test_criterion_07_max_subset_equals_brute_force():
    t0 = time.monotonic()
    rng = random.Random(0x5E7EC7)
    for trial in range(100):
        n = rng.randint(1, 10)
        recs = [_record(f"CVE-2020-{i + 1}") for i in range(n)]
        conflicts = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    conflicts[tuple(sorted((recs[i].cve, recs[j].cve)))] = "overlap"
        kept, _ = select_compatible(recs, conflicts, POLICY_MAX_SUBSET)
        assert _independent(kept, conflicts), f"trial {trial}"
        want = _brute_force_mis_size([r.cve for r in recs], conflicts)
        assert len(kept) == want, f"trial {trial}: {len(kept)} != {want}"
    elapsed = time.monotonic() - t0
    assert elapsed < 30, f"max-subset sweep took {elapsed:.1f}s"


def test_criterion_08_archetype_diffs_categorized(tmp_path):
    for archetype in ARCHETYPES:
        fx = forge_repo(tmp_path / archetype, [archetype])
        with CommitMemo(fx.repo) as memo:
            call = categorize_commit(memo, fx.breakers[0]["id"])
        assert call.category == archetype, f"{archetype}: got {call.category}"


def test_criterion_09_histogram_conservation(tmp_path):
    # long flat history spanning several buckets
    fx = forge_flip_history(tmp_path / "flat", 500, 250)
    with CommitMemo(fx.repo) as memo:
        commits = memo.between(fx.base, fx.commit_ids[-1])
        hist = activity_histogram(commits, ["state.txt"], memo.touched)
        recount = sum(1 for c in commits if "state.txt" in memo.touched(c.id))
    assert hist.total == len(commits) == 500
    assert hist.related_total == recount == 1
    assert len(hist.buckets) >= 2
    starts = [b[0] for b in hist.buckets]
    assert all(b - a == 14 * 86400 for a, b in zip(starts, starts[1:]))

    # forged project history, tracking the fix-touched files
    fx = forge_repo(tmp_path / "proj", ["C1", "C4"])
    with CommitMemo(fx.repo) as memo:
        commits = memo.between(fx.base, fx.target)
        tracked = [fp.path for fp in memo.diff(fx.fix).files]
        hist = activity_histogram(commits, tracked, memo.touched)
        recount = sum(
            1 for c in commits if any(p in tracked for p in memo.touched(c.id))
        )
    assert hist.total == len(commits)
    assert hist.related_total == recount > 0


def test_criterion_10_network_suite_excluded_by_default():
    base = [sys.executable, "-m", "pytest", "tests/test_network_integration.py",
            "--collect-only", "-q"]
    default = subprocess.run(base, cwd=ROOT, capture_output=True, text=True)
    assert re.search(r"no tests collected \(3 deselected\)", default.stdout)

    opted_in = subprocess.run(
        base + ["-m", "network"], cwd=ROOT, capture_output=True, text=True
    )
    assert "3 tests collected" in opted_in.stdout
    for name in (
        "test_libxml2_cve_2016_1840_revival_reverts_fb56f80e",
        "test_libpng_cve_2018_13785_trivially_revives_at_v1_6_40",
        "test_libpng_dual_port_fails_7_of_32_functionality_tests",
    ):
        assert name in opted_in.stdout
