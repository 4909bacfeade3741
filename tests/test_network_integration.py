"""Live-project integration checks: network-bound, hours-long, off by default.

Enable with `pytest -m network`.  Each test reads a JSON descriptor from the
directory named by REVENANT_NET_CASES (default tests/net_cases) carrying the
clone URL, fix commits, target ref, build steps, artifact paths, and a PoC
command plus a local input path.  PoC inputs are not redistributable and are
not shipped here; fetch them from the public issue trackers first.

Descriptor shape, one file per case:

    {
      "clone_url": "https://...",
      "fix_commits": ["<sha>"],
      "target": "<ref>",
      "build": {"steps": ["..."], "artifacts": ["..."], "timeout": 3600},
      "poc": {"command": "{binary} {input}", "input": "/path/to/poc",
              "expected_detector": "heap-buffer-overflow", "run_timeout": 30}
    }
"""

import json
import os
import subprocess
from pathlib import Path

import pytest

import revenant.curation as curation
from revenant.curation import FORMAT_PASS_FAIL, rule_functionality
from revenant.gitio import CommitMemo, checkout_worktree
from revenant.oracle import BuildRecipe, PocSpec
from revenant.patchcore import apply_patch
from revenant.porter import FINAL_REVIVED, Porter, derive_reverse_patch

pytestmark = [pytest.mark.network, pytest.mark.slow]

CASE_DIR = Path(os.environ.get("REVENANT_NET_CASES", Path(__file__).parent / "net_cases"))


def net_case(name):
    path = CASE_DIR / f"{name}.json"
    if not path.is_file():
        pytest.skip(f"no descriptor at {path}; see module docstring")
    return json.loads(path.read_text())


def clone(url, dest):
    subprocess.run(["git", "clone", url, str(dest)], check=True, capture_output=True)
    return dest


def make_porter(case, repo, scratch):
    build = case["build"]
    recipe = BuildRecipe.make(
        build["steps"], build["artifacts"], timeout=build.get("timeout", 3600)
    )
    p = case["poc"]
    poc = PocSpec(
        command=p["command"],
        input_file=p["input"],
        expected_detector=p.get("expected_detector", ""),
        run_timeout=p.get("run_timeout", 30.0),
    )
    return Porter(repo, recipe, poc, scratch_dir=scratch)


def test_libxml2_cve_2016_1840_revival_reverts_fb56f80e(tmp_path):
    case = net_case("libxml2-cve-2016-1840")
    repo = clone(case["clone_url"], tmp_path / "libxml2")
    porter = make_porter(case, repo, tmp_path / "scratch")
    rec = porter.revive("CVE-2016-1840", "libxml2", case["fix_commits"], case["target"])
    assert rec.final == FINAL_REVIVED, rec.abort_reason
    assert any(c.startswith("fb56f80e") for c in rec.revert_stack), rec.revert_stack


def test_libpng_cve_2018_13785_trivially_revives_at_v1_6_40(tmp_path):
    case = net_case("libpng-cve-2018-13785")
    repo = clone(case["clone_url"], tmp_path / "libpng")
    porter = make_porter(case, repo, tmp_path / "scratch")
    rec = porter.revive("CVE-2018-13785", "libpng", case["fix_commits"], "v1.6.40")
    assert rec.final == FINAL_REVIVED, rec.abort_reason
    assert rec.effort["commits_reverted"] == 0


def test_libpng_dual_port_fails_7_of_32_functionality_tests(tmp_path, monkeypatch):
    first = net_case("libpng-cve-2018-13785")
    second = net_case("libpng-cve-2019-7317")
    repo = clone(first["clone_url"], tmp_path / "libpng")
    with checkout_worktree(repo, "v1.6.40", tmp_path / "dual") as wt:
        for case in (first, second):
            with CommitMemo(repo) as memo:
                apply_patch(wt, derive_reverse_patch(memo, case["fix_commits"]).files, max_fuzz=2)
        for step in first["build"]["steps"]:
            subprocess.run(
                step, shell=True, cwd=wt.path, check=True, capture_output=True
            )
        monkeypatch.setattr(curation, "SUITE_TIMEOUT", 3600)
        verdict = rule_functionality("make test", wt.path, FORMAT_PASS_FAIL, ())
    assert verdict.total_tests == 32
    assert len(verdict.failed) == 7
