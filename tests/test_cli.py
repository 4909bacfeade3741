import errno
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from contextlib import suppress
from pathlib import Path

import pytest

from revenant import cli, gitio
from revenant.cli import BISECT_FILE, RECORD_FILE, TIERS_FILE, main
from revenant.config import DEFAULT_WORKSPACE
from revenant.forge import forge_repo
from revenant.oracle import LOCK_PREFIX

from gitutil import RepoBuilder, atimes_recorded, no_child_left, record_diffs, record_git

CVE = "CVE-2021-9999"


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    return forge_repo(tmp_path_factory.mktemp("forge"), ["C1"])


def write_case(tmp_path, fx, **overrides):
    case = {
        "cve": CVE,
        "project": "pack",
        "repo": str(fx.repo),
        "fix_commits": [fx.fix],
        "target": fx.target,
        "tiers": {"reference": fx.fix, "latest": fx.target},
        "build": {"steps": list(fx.recipe.steps), "artifacts": list(fx.recipe.artifact_paths), "timeout": 120},
        "poc": {
            "command": fx.poc.command,
            "input": str(fx.poc_file),
            "expected_detector": fx.poc.expected_detector,
            "run_timeout": 10,
        },
        "workspace": str(tmp_path / "ws"),
    }
    case.update(overrides)
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case))
    return path


def summaries(capsys):
    """Fields of every summary line printed since the last read."""
    return [dict(pair.split("=", 1) for pair in line.split()[1:] if "=" in pair)
            for line in capsys.readouterr().out.strip().splitlines()]


def summary(capsys):
    return summaries(capsys)[-1]


class TestPort:
    def test_port_at_fix_triggers(self, tmp_path, fixture, capsys):
        case = write_case(tmp_path, fixture)
        rc = main(["port", "--config", str(case), "--ref", fixture.fix])
        fields = summary(capsys)
        assert rc == 0
        assert fields["status"] == "triggered"
        assert fields["detector"] == "heap-buffer-overflow"
        payload = json.loads((tmp_path / "ws" / CVE / "port.json").read_text())
        assert payload["status"] == "triggered"

    def test_port_past_breaker_conflicts(self, tmp_path, fixture, capsys):
        case = write_case(tmp_path, fixture)
        rc = main(["port", "--config", str(case), "--tier", "latest"])
        assert rc == 3
        assert summary(capsys)["status"] == "port-conflict"

    def test_unknown_tier_is_config_error(self, tmp_path, fixture, capsys):
        case = write_case(tmp_path, fixture)
        rc = main(["port", "--config", str(case), "--tier", "nightly"])
        assert rc == 5
        assert "nightly" in capsys.readouterr().err


# what each subcommand needs besides a flag to parse; parsing fails before
# the case file is read
COMMAND_LINES = {
    "port": ["--config", "case.json"],
    "tiers": ["--config", "case.json"],
    "bisect": ["--config", "case.json", "good", "bad"],
    "revive": ["--config", "case.json"],
    "categorize": ["--config", "case.json", "abc123"],
    "manifest": ["--config", "case.json"],
    "activity": ["--config", "case.json"],
    "report": ["--bundled"],
}


# policy and limits come from the case file alone
@pytest.mark.parametrize("argv", [
    [command, flag, value] for command in COMMAND_LINES
    for flag, value in [("--granularity", "chunk"), ("--max-fuzz", "1"), ("--limit-commits", "2")]
])
def test_a_command_refuses_a_flag_it_would_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, *COMMAND_LINES[argv[0]]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


UNRUNNABLE = {
    "unknown-placeholder": ("poc", "command", "{binary} -i {inptu}"),
    "unescaped-brace": ("poc", "command", "{binary} -e '{print}' {input}"),
    "unclosed-quote": ("poc", "command", "{binary} '-i {input}"),
    "zero-build-timeout": ("build", "timeout", 0),
    "zero-run-timeout": ("poc", "run_timeout", 0),
}


def unrunnable_case(tmp_path, fixture, name):
    """`<name>.json`: the case `write_case` writes, with its build or PoC
    set as UNRUNNABLE[name] says."""
    data = json.loads(write_case(tmp_path, fixture).read_text())
    section, key, value = UNRUNNABLE[name]
    data[section][key] = value
    case = tmp_path / f"{name}.json"
    case.write_text(json.dumps(data))
    return case


@pytest.mark.parametrize("name", sorted(UNRUNNABLE))
def test_a_case_that_cannot_run_is_a_config_error_before_any_build(tmp_path, fixture, capsys,
                                                                   name):
    case = unrunnable_case(tmp_path, fixture, name)
    assert main(["port", "--config", str(case), "--ref", fixture.fix]) == 5
    assert UNRUNNABLE[name][1] in capsys.readouterr().err
    assert not (tmp_path / "ws").exists()


def test_an_unrunnable_case_among_jobs_leaves_its_siblings_running(tmp_path, fixture, capsys):
    bad = unrunnable_case(tmp_path, fixture, "unknown-placeholder")
    good = tmp_path / "case.json"
    assert main(["revive", "--jobs", "2", "--config", str(bad), "--config", str(good)]) == 5
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"error case={bad} ")
    assert "final=Revived" in lines[1]


def test_an_unexpected_error_among_jobs_is_raised_after_its_siblings_lines(
    tmp_path, fixture, capsys, monkeypatch
):
    good = write_case(tmp_path, fixture)
    bad = tmp_path / "bad.json"
    real = cli._revive_one

    def revive_one(path, args):
        if path == str(bad):
            raise RuntimeError("no exit code maps this")
        return real(path, args)

    monkeypatch.setattr(cli, "_revive_one", revive_one)
    with pytest.raises(RuntimeError, match="no exit code maps this"):
        main(["revive", "--jobs", "2", "--config", str(bad), "--config", str(good)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"error case={bad} no exit code maps this"
    assert "final=Revived" in lines[1]


def test_ctrl_c_stops_every_case_of_a_multi_config_revive(tmp_path, fixture):
    # each case's PoC bytes differ, so its verdict key does too and the two
    # builds run at once; each build step stays alive in the slot
    pid_files = [tmp_path / f"case{n}" / "build.pid" for n in range(2)]
    cases = []
    for n, pid_file in enumerate(pid_files):
        case = case_in(tmp_path / f"case{n}", fixture, cve=f"CVE-2021-000{n}",
                       workspace=str(tmp_path / "ws"))
        data = json.loads(case.read_text())
        Path(data["poc"]["input"]).write_bytes(b"poc %d\n" % n)
        data["build"]["steps"] = [f'echo $$ > "{pid_file}"; exec sleep 60']
        case.write_text(json.dumps(data))
        cases += ["--config", str(case)]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    revive = subprocess.Popen([sys.executable, "-m", "revenant.cli", "revive", "--jobs", "2",
                               *cases], env=env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    pids = []
    try:
        t0 = time.monotonic()
        while not all(f.exists() and f.read_text().endswith("\n") for f in pid_files):
            assert revive.poll() is None and time.monotonic() - t0 < 60, "no builds started"
            time.sleep(0.02)
        pids = [int(f.read_text()) for f in pid_files]
        t0 = time.monotonic()
        revive.send_signal(signal.SIGINT)
        assert revive.wait(timeout=5) != 0
        assert time.monotonic() - t0 < 5
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        store = tmp_path / "ws" / cli.VERDICT_CACHE
        assert [p.name for p in store.iterdir()] == ["locks"]
        assert not list((tmp_path / "ws").glob(f"*/{RECORD_FILE}"))
    finally:
        if revive.poll() is None:
            revive.kill()
            revive.wait()
        for pid in pids:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


class TestTiers:
    def test_tiers_writes_matrix_cells(self, tmp_path, fixture, capsys):
        case = write_case(tmp_path, fixture)
        rc = main(["tiers", "--config", str(case)])
        assert rc == 0
        fields = summary(capsys)
        assert fields["reference"] == "triggered"
        assert fields["latest"] == "port-conflict"
        payload = json.loads((tmp_path / "ws" / CVE / "tiers.json").read_text())
        assert payload["tiers"]["reference"]["status"] == "triggered"
        assert payload["tiers"]["latest"]["status"] == "port-conflict"


    def test_three_tiers_resolve_their_names_over_the_reader(self, tmp_path, fixture, capsys,
                                                             monkeypatch):
        tiers = {"reference": fixture.fix, "breaker": fixture.breakers[0]["id"][:12],
                 "latest": "main"}
        case = write_case(tmp_path, fixture, tiers=tiers)
        calls = []
        real = gitio.run_git
        monkeypatch.setattr(gitio, "run_git",
                            lambda repo, *args, **kw: calls.append(args) or real(repo, *args, **kw))
        assert main(["tiers", "--config", str(case)]) == 0
        fields = summary(capsys)
        assert (fields["reference"], fields["latest"]) == ("triggered", "port-conflict")
        payload = json.loads((tmp_path / "ws" / CVE / "tiers.json").read_text())
        assert sorted(payload["tiers"]) == sorted(tiers)
        assert calls == []  # no one-shot git process: every name goes over the reader

class TestBisect:
    def test_finds_planted_breaker(self, tmp_path, fixture, capsys):
        case = write_case(tmp_path, fixture)
        rc = main(["bisect", "--config", str(case), fixture.fix, fixture.target])
        assert rc == 0
        fields = summary(capsys)
        assert fields["breaking"] == fixture.breakers[0]["id"]
        payload = json.loads((tmp_path / "ws" / CVE / "bisect.json").read_text())
        assert payload["breaking_commit"] == fixture.breakers[0]["id"]


class TestReviveAndManifest:
    def test_revive_then_manifest(self, tmp_path, fixture, capsys):
        case = write_case(tmp_path, fixture)
        rc = main(["revive", "--config", str(case)])
        fields = summary(capsys)
        assert rc == 0
        assert fields["final"] == "Revived"
        assert fields["stack"] == "1"
        record = json.loads((tmp_path / "ws" / CVE / "revival_record.json").read_text())
        assert record["revert_stack"] == [fixture.breakers[0]["id"]]

        rc = main(["manifest", "--config", str(case), "--policy", "max-subset"])
        fields = summary(capsys)
        assert rc == 0
        assert fields["included"] == "1"
        manifest = json.loads((tmp_path / "ws" / "manifest.json").read_text())
        assert manifest["included"][0]["cve"] == CVE
        assert manifest["included"][0]["revert_stack"] == [fixture.breakers[0]["id"]]
        assert manifest["schema"] == "benchmark-manifest/1"

        # a suite command that the shell cannot find did not run
        rc = main(["manifest", "--config", str(case), "--suite", "./absent.sh",
                   "--suite-cwd", str(tmp_path)])
        assert rc == 6
        assert "suite did not run" in capsys.readouterr().err

    def test_a_torn_record_write_keeps_the_previous_record(self, tmp_path, fixture, capsys,
                                                           monkeypatch):
        case = write_case(tmp_path, fixture)
        assert main(["revive", "--config", str(case)]) == 0
        record = tmp_path / "ws" / CVE / RECORD_FILE
        before = record.read_bytes()
        real = Path.write_text

        def torn(path, text, *args, **kwargs):
            """Half the text of the record or its temp file, then a full disk."""
            if not path.name.startswith(RECORD_FILE):
                return real(path, text, *args, **kwargs)
            real(path, text[:len(text) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_text", torn)
        assert main(["revive", "--config", str(case)]) == 6
        assert record.read_bytes() == before
        assert not list(record.parent.glob("*.tmp"))

    def test_manifest_keeps_the_newer_of_two_overlapping_cases(self, tmp_path, fixture, capsys):
        # two CVEs revived on one fixture touch the same lines
        older = tmp_path / "older.json"
        older.write_text(json.dumps({**json.loads(write_case(tmp_path, fixture).read_text()),
                                     "cve": "CVE-2020-1111"}))
        newer = write_case(tmp_path, fixture)
        configs = ["--config", str(older), "--config", str(newer)]
        assert main(["revive", *configs]) == 0
        assert main(["manifest", *configs]) == 0
        fields = summary(capsys)
        assert (fields["included"], fields["excluded"]) == ("1", "1")
        manifest = json.loads((tmp_path / "ws" / "manifest.json").read_text())
        assert [row["cve"] for row in manifest["included"]] == [CVE]
        assert manifest["excluded"] == [{
            "cve": "CVE-2020-1111",
            "rule": "intercompatibility",
            "reason": f"conflicts with kept {CVE}",
        }]

    def test_manifest_reads_each_record_from_its_own_configs_workspace(
            self, tmp_path, fixture, capsys):
        older = tmp_path / "older.json"
        older.write_text(json.dumps({**json.loads(write_case(tmp_path, fixture).read_text()),
                                     "cve": "CVE-2020-1111", "workspace": str(tmp_path / "ws-a")}))
        newer = write_case(tmp_path, fixture, workspace=str(tmp_path / "ws-b"))
        configs = ["--config", str(older), "--config", str(newer)]
        assert main(["revive", *configs]) == 0
        assert (tmp_path / "ws-a" / "CVE-2020-1111" / RECORD_FILE).exists()
        assert (tmp_path / "ws-b" / CVE / RECORD_FILE).exists()
        assert main(["manifest", *configs]) == 0
        fields = summary(capsys)
        assert (fields["included"], fields["excluded"]) == ("1", "1")
        # manifest.json goes to the first config's workspace
        assert fields["record"] == str(tmp_path / "ws-a" / "manifest.json")
        assert not (tmp_path / "ws-b" / "manifest.json").exists()

    def test_manifest_judges_each_record_by_the_limits_of_its_own_config(
            self, tmp_path, fixture, capsys):
        # one revert revives `revived` under the default budget; `aborted`
        # has a budget of 0, which would exclude `revived` too
        revived = write_case(tmp_path, fixture)
        aborted = tmp_path / "aborted.json"
        aborted.write_text(json.dumps({**json.loads(revived.read_text()), "cve": "CVE-2021-9998",
                                       "limits": {"max_reverted_commits": 0}}))
        assert main(["revive", "--config", str(revived), "--config", str(aborted)]) == 3
        manifests = []
        for first, second in [(revived, aborted), (aborted, revived)]:
            assert main(["manifest", "--config", str(first), "--config", str(second)]) == 0
            manifests.append((tmp_path / "ws" / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        manifest = json.loads(manifests[0])
        assert [row["cve"] for row in manifest["included"]] == [CVE]
        assert manifest["excluded"] == [{
            "cve": "CVE-2021-9998", "rule": "complexity", "reason": "aborted: Complexity",
        }]

    @pytest.mark.parametrize("key", ["project", "target"])
    def test_manifest_over_two_projects_or_targets_is_a_config_error(self, tmp_path, fixture,
                                                                      capsys, key):
        case = write_case(tmp_path, fixture)
        other = tmp_path / "other.json"
        other.write_text(json.dumps({**json.loads(case.read_text()), "cve": "CVE-2021-9998",
                                     key: fixture.fix}))
        assert main(["manifest", "--config", str(case), "--config", str(other)]) == 5
        assert "must share one project and target" in capsys.readouterr().err
        assert not (tmp_path / "ws" / "manifest.json").exists()

    def test_manifest_suite_without_suite_cwd_is_a_config_error(self, tmp_path, fixture, capsys):
        case = write_case(tmp_path, fixture)
        assert main(["revive", "--config", str(case)]) == 0
        assert main(["manifest", "--config", str(case), "--suite", "true"]) == 5
        assert "--suite needs --suite-cwd" in capsys.readouterr().err
        assert not (tmp_path / "ws" / "manifest.json").exists()

    def test_an_allowlisted_failure_leaves_the_port_functional(self, tmp_path, fixture, capsys):
        case = write_case(tmp_path, fixture)
        assert main(["revive", "--config", str(case)]) == 0
        allowlist = tmp_path / "allow.txt"
        allowlist.write_text("# flaky upstream\nt_net needs a network\n")
        suite = ["--suite", "printf 'PASS: t_pack\\nFAIL: t_net\\nSKIP: t_gui\\n'",
                 "--suite-cwd", str(tmp_path), "--suite-format", "pass-fail"]
        verdicts = []
        for allow in ([], ["--allowlist", str(allowlist)]):
            assert main(["manifest", "--config", str(case), *suite, *allow]) == 0
            manifest = json.loads((tmp_path / "ws" / "manifest.json").read_text())
            verdicts.append(manifest["functionality"])
        assert [v["verdict"] for v in verdicts] == ["Degraded", "Functional"]
        assert verdicts[1] == {"total_tests": 2, "failed": ["t_net"], "allowlisted": ["t_net"],
                               "disallowed": [], "verdict": "Functional"}

    def test_manifest_without_record_is_precondition(self, tmp_path, fixture, capsys):
        case = write_case(tmp_path, fixture)
        rc = main(["manifest", "--config", str(case)])
        assert rc == 4
        assert "run revive first" in capsys.readouterr().err

    def test_manifest_refuses_a_record_of_another_cve(self, tmp_path, fixture, capsys):
        # the case was renamed after revive: its directory holds the old record
        case = write_case(tmp_path, fixture)
        assert main(["revive", "--config", str(case)]) == 0
        renamed = tmp_path / "renamed.json"
        renamed.write_text(json.dumps({**json.loads(case.read_text()), "cve": "CVE-2021-9998"}))
        record = tmp_path / "ws" / "CVE-2021-9998" / RECORD_FILE
        record.parent.mkdir()
        shutil.copy(tmp_path / "ws" / CVE / RECORD_FILE, record)
        capsys.readouterr()
        assert main(["manifest", "--config", str(renamed)]) == 4
        err = capsys.readouterr().err
        assert str(record) in err and CVE in err and "CVE-2021-9998" in err
        assert not (tmp_path / "ws" / "manifest.json").exists()

    def test_aborted_revive_exits_3(self, tmp_path, fixture, capsys):
        case = write_case(tmp_path, fixture, limits={"max_reverted_commits": 0})
        rc = main(["revive", "--config", str(case)])
        fields = summary(capsys)
        assert rc == 3
        assert fields["final"] == "Aborted"
        assert fields["abort"] == "Complexity"

    def test_origin_failure_exits_4(self, tmp_path, fixture, capsys):
        dud = tmp_path / "dud.bin"
        dud.write_bytes(b"\x02\x00ab")
        case = write_case(tmp_path, fixture)
        data = json.loads(case.read_text())
        data["poc"]["input"] = str(dud)
        case.write_text(json.dumps(data))
        rc = main(["revive", "--config", str(case)])
        assert rc == 4
        assert "does not trigger at the fix commit" in capsys.readouterr().err

    def test_jobs_below_1_is_a_config_error(self, tmp_path, fixture, capsys):
        case = write_case(tmp_path, fixture)
        other = tmp_path / "other.json"
        other.write_text(case.read_text().replace(CVE, "CVE-2021-9998"))
        assert main(["revive", "--jobs", "0", "--config", str(case), "--config", str(other)]) == 5
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "ws").exists()

    @pytest.mark.parametrize("key, value", [("search_window", 200),
                                            ("normalize_trailing_whitespace", False),
                                            ("max_fuzz", 2), ("skip_budget", 3)])
    def test_a_removed_policy_key_is_a_config_error(self, tmp_path, fixture, capsys, key, value):
        case = write_case(tmp_path, fixture, policy={key: value})
        assert main(["revive", "--config", str(case)]) == 5
        assert "unknown keys" in capsys.readouterr().err
        assert not (tmp_path / "ws" / CVE).exists()

    def test_binary_file_in_a_fix_composition_exits_4(self, tmp_path, capsys):
        rb = RepoBuilder(tmp_path / "repo")
        rb.commit({"a.txt": "one\n", "blob.bin": "\0one\n"}, "base")
        rb.commit({"a.txt": "one\ntwo\n"}, "first fix")
        rb.commit({"blob.bin": "\0two\n"}, "second fix")
        configs = []
        for n in (1, 2):
            case = {
                "cve": f"CVE-2021-{n}", "project": "pack", "repo": str(rb.root),
                "fix_commits": ["t1", "t2"], "target": "t2",
                "build": {"steps": ["true"], "artifacts": ["tool"]},
                "poc": {"command": "{binary} {input}", "input": "poc.bin"},
                "workspace": str(tmp_path / "ws"),
            }
            path = tmp_path / f"case{n}.json"
            path.write_text(json.dumps(case))
            configs += ["--config", str(path)]
        assert main(["revive", *configs[:2]]) == 4
        assert "t2: does not apply cleanly to blob.bin" in capsys.readouterr().err
        # under --jobs each case fails alone instead of taking down the pool
        assert main(["revive", "--jobs", "2", *configs]) == 4
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert all(line.startswith("error case=") and "blob.bin" in line for line in lines)


class TestCategorize:
    def test_by_repo_flag(self, fixture, capsys):
        breaker = fixture.breakers[0]["id"]
        rc = main(["categorize", "--repo", str(fixture.repo), breaker])
        assert rc == 0
        fields = summary(capsys)
        assert fields["category"] == "C1"

    def test_with_config_writes_artifact(self, tmp_path, fixture, capsys):
        case = write_case(tmp_path, fixture)
        breaker = fixture.breakers[0]["id"]
        rc = main(["categorize", "--config", str(case), breaker, fixture.fix])
        assert rc == 0
        rows = json.loads((tmp_path / "ws" / CVE / "categories.json").read_text())
        assert len(rows) == 2
        assert rows[0]["category"] == "C1"

    def test_needs_repo_or_config(self, capsys):
        rc = main(["categorize", "abc123"])
        assert rc == 5

    def test_one_memo_serves_every_commit(self, fixture, capsys, monkeypatch):
        commits = [fixture.fix, fixture.breakers[0]["id"], fixture.target, fixture.fix]
        calls = []
        real = gitio.run_git
        monkeypatch.setattr(gitio, "run_git",
                            lambda repo, *args, **kw: calls.append(args) or real(repo, *args, **kw))
        started = record_git(monkeypatch)
        diffed = record_diffs(monkeypatch)
        assert main(["categorize", "--repo", str(fixture.repo), *commits]) == 0
        assert len(summaries(capsys)) == 4
        # no one-shot git process runs, one diff process serves every
        # commit, and a commit is diffed once
        assert calls == []
        assert started.count("diff-tree") == 1
        assert len(diffed) == len(set(diffed)) == 3


class TestActivity:
    def test_emits_csv_and_svg(self, tmp_path, fixture, capsys):
        case = write_case(tmp_path, fixture)
        rc = main(["activity", "--config", str(case)])
        assert rc == 0
        fields = summary(capsys)
        csv_text = (tmp_path / "ws" / CVE / "activity.csv").read_text()
        assert csv_text.splitlines()[0] == "bucket_start,total_commits,cve_related_commits"
        rows = csv_text.splitlines()[1:]
        assert sum(int(r.split(",")[1]) for r in rows) == int(fields["commits"])
        svg_text = (tmp_path / "ws" / CVE / "activity.svg").read_text()
        assert svg_text.startswith("<svg")
        assert CVE in svg_text

    def test_markers_follow_revive(self, tmp_path, fixture, capsys):
        case = write_case(tmp_path, fixture)
        assert main(["revive", "--config", str(case)]) == 0
        assert main(["activity", "--config", str(case)]) == 0
        svg_text = (tmp_path / "ws" / CVE / "activity.svg").read_text()
        assert svg_text.count("<polygon") == 1


    def test_files_names_the_only_related_paths(self, tmp_path, fixture, capsys):
        # after the fix, pack.c (the fix's file) changes once and CHANGES twice
        case = write_case(tmp_path, fixture)
        related = []
        for files in ([], ["--files", "CHANGES, ,README"]):
            assert main(["activity", "--config", str(case), *files]) == 0
            related.append(summary(capsys)["related"])
        assert related == ["1", "2"]


class TestReport:
    def test_bundled_report_renders_all_sections(self, capsys):
        rc = main(["report", "--bundled"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PoC outcomes by tier" in out
        assert "revival outcomes" in out
        assert "breaking commit categories" in out

    def test_report_over_workspace_artifacts(self, tmp_path, fixture, capsys):
        case = write_case(tmp_path, fixture)
        assert main(["tiers", "--config", str(case)]) == 0
        assert main(["revive", "--config", str(case)]) == 0
        capsys.readouterr()
        rc = main([
            "report",
            str(tmp_path / "ws" / CVE / "tiers.json"),
            str(tmp_path / "ws" / CVE / "revival_record.json"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "port-conflict" in out
        assert "revival records" in out
        header = next(ln for ln in out.splitlines() if ln.startswith("project"))
        assert header.split() == ["project", "cve", "reference", "latest"]

    @pytest.mark.parametrize("data", [{"schema": "benchmark-manifest/1"}, ["tiers"]])
    def test_report_on_json_that_is_neither_tiers_nor_a_record_is_a_config_error(
            self, tmp_path, capsys, data):
        other = tmp_path / "other.json"
        other.write_text(json.dumps(data))
        assert main(["report", str(other)]) == 5
        assert "not a tiers file or revival record" in capsys.readouterr().err

    def test_report_needs_input(self, capsys):
        assert main(["report"]) == 5

    def test_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.txt"
        rc = main(["report", "--bundled", "--paper-style", "--out", str(out_file)])
        assert rc == 0
        text = out_file.read_text()
        assert "poc-incompat" not in text
        assert "✓" in text


class TestConfigErrors:
    def test_unknown_key_exits_5(self, tmp_path, fixture, capsys):
        case = write_case(tmp_path, fixture, surprise=True)
        rc = main(["port", "--config", str(case)])
        assert rc == 5
        assert "unknown keys" in capsys.readouterr().err

    def test_env_workspace_fallback(self, tmp_path, fixture, capsys, monkeypatch):
        monkeypatch.setenv("REVENANT_WORKSPACE", str(tmp_path / "env-ws"))
        case = write_case(tmp_path, fixture)
        data = json.loads(case.read_text())
        del data["workspace"]
        case.write_text(json.dumps(data))
        rc = main(["port", "--config", str(case), "--ref", fixture.fix])
        assert rc == 0
        assert (tmp_path / "env-ws" / CVE / "port.json").exists()

    @pytest.mark.parametrize("flags,workspace", [
        (["--workspace", "ws"], "ws"),
        ([], DEFAULT_WORKSPACE),
    ])
    def test_a_relative_workspace_still_triggers(self, tmp_path, fixture, capsys, monkeypatch,
                                                 flags, workspace):
        # the build slot lives under the workspace: its artifact paths must
        # not be taken from the PoC's working directory
        monkeypatch.delenv("REVENANT_WORKSPACE", raising=False)
        monkeypatch.chdir(tmp_path)
        case = write_case(tmp_path, fixture)
        data = json.loads(case.read_text())
        del data["workspace"]
        case.write_text(json.dumps(data))
        rc = main(["port", "--config", str(case), "--ref", fixture.fix, *flags])
        assert (rc, summary(capsys)["status"]) == (0, "triggered")
        assert (tmp_path / workspace / CVE / "port.json").exists()


def test_commands_leave_no_worktree_and_report_oracle_counts(tmp_path, fixture, capsys):
    case = write_case(tmp_path, fixture)
    runs = [
        ["revive", "--config", str(case)],
        ["tiers", "--config", str(case)],
        ["bisect", "--config", str(case), fixture.fix, fixture.target],
        ["port", "--config", str(case), "--ref", fixture.fix],
    ]
    for argv in runs:
        assert main(argv) == 0
        fields = summary(capsys)
        # later commands answer from the workspace's verdict store
        assert int(fields["builds"]) + int(fields["hits"]) >= 1
        out = subprocess.run(["git", "-C", str(fixture.repo), "worktree", "list", "--porcelain"],
                             capture_output=True, text=True, check=True).stdout
        assert [ln for ln in out.splitlines() if ln.startswith("worktree ")] == [
            f"worktree {fixture.repo}"
        ]
        assert list((tmp_path / "ws" / CVE / "scratch").glob("wt-*")) == []
        assert list((tmp_path / "ws" / CVE / "scratch").glob("oracle/*")) == []
    # revive already checked the fix commit itself
    assert (fields["builds"], fields["hits"]) == ("0", "1")
    record = json.loads((tmp_path / "ws" / CVE / "revival_record.json").read_text())
    assert "builds" not in record["effort"] and "hits" not in record["effort"]


def test_no_command_leaves_a_child_and_summaries_count_git_and_wall(tmp_path, fixture, capsys):
    case = write_case(tmp_path, fixture)
    runs = [
        ["port", "--config", str(case), "--ref", fixture.fix],
        ["tiers", "--config", str(case)],
        ["bisect", "--config", str(case), fixture.fix, fixture.target],
        ["revive", "--config", str(case)],
        ["categorize", "--config", str(case), fixture.breakers[0]["id"]],
        ["manifest", "--config", str(case)],
        ["activity", "--config", str(case)],
    ]
    for argv in runs:
        assert main(argv) == 0
        fields = summary(capsys)
        if argv[0] in ("port", "tiers", "bisect", "revive"):
            # the reader and the differ
            assert int(fields["git"]) >= 2
            assert float(fields["wall"]) > 0
        assert no_child_left(), argv[0]


# the commands a perturbation row may run, and the artifact each writes
PERTURBED = {"revive": RECORD_FILE, "tiers": TIERS_FILE, "bisect": BISECT_FILE}


def _run(command, case, fx, *flags):
    ends = [fx.fix, fx.target] if command == "bisect" else []
    return main([command, "--config", str(case), *ends, *flags])


@pytest.fixture(scope="module")
def revived_c1_c4(tmp_path_factory):
    """A forged C1+C4 case, and the artifacts of a plain run of it: the
    revival record, the tiers and the bisection, by command."""
    root = tmp_path_factory.mktemp("c1c4")
    fx = forge_repo(root / "fx", ["C1", "C4"])
    case = write_case(root, fx)
    for command in PERTURBED:
        assert _run(command, case, fx) == 0
    return fx, {command: (root / "ws" / CVE / name).read_bytes()
                for command, name in PERTURBED.items()}


# Where and how revenant runs, after reprotest's variations: the workspace
# path (a space, non-ASCII, a quote, a symlink, one relative to the working
# directory), the umask, the time zone, the locale, HOME and the PoC
# input's basename.  Each row runs its commands into a workspace of its
# own, so its verdicts come from fresh builds.
@pytest.mark.parametrize("row", [
    {"workspace": "w s"},
    {"workspace": "wé"},
    {"workspace": "w'q"},
    {"workspace": "link/ws"},
    {"umask": 0o077},
    {"env": {"TZ": "Pacific/Kiritimati"}},
    {"env": {"LC_ALL": "C.UTF-8"}},
    {"env": {"HOME": None}},
    {"relative": True},
    {"poc": "po c.bin"},
    {"workspace": "w s", "commands": ("tiers", "bisect")},
], ids=["space", "non-ascii", "quote", "symlink", "umask-077", "tz", "locale", "no-home",
        "relative", "poc-space", "space-tiers-bisect"])
def test_no_perturbation_of_the_run_changes_a_record(tmp_path, capsys, monkeypatch, revived_c1_c4,
                                                      row):
    fx, baseline = revived_c1_c4
    workspace = row.get("workspace", "ws")
    (tmp_path / "real").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "real")
    for name, value in row.get("env", {}).items():
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
    case = write_case(tmp_path, fx, workspace=str(tmp_path / workspace))
    if "poc" in row:
        data = json.loads(case.read_text())
        data["poc"]["input"] = str(tmp_path / row["poc"])
        (tmp_path / row["poc"]).write_bytes(fx.poc_file.read_bytes())
        case.write_text(json.dumps(data))
    flags = []
    if row.get("relative"):
        monkeypatch.chdir(tmp_path)
        flags = ["--workspace", workspace]
    umask = row.get("umask")
    saved = os.umask(umask) if umask is not None else None
    try:
        for command in row.get("commands", ("revive",)):
            assert _run(command, case, fx, *flags) == 0
            assert (tmp_path / workspace / CVE / PERTURBED[command]).read_bytes() == \
                baseline[command], command
    finally:
        if saved is not None:
            os.umask(saved)
    if "commands" not in row:
        assert summary(capsys)["final"] == "Revived"


OVERFLOW_C = """\
#include <stdlib.h>
int main(void) {
    char *p = malloc(4);
    p[4] = 1;
    free(p);
    return 0;
}
"""


def _asan_links(tmp_path) -> bool:
    """Whether `cc -fsanitize=address` compiles and links a program."""
    if shutil.which("cc") is None:
        return False
    (tmp_path / "probe.c").write_text("int main(void) { return 0; }\n")
    argv = ["cc", "-fsanitize=address", "-o", "probe", "probe.c"]
    return subprocess.run(argv, cwd=tmp_path, capture_output=True).returncode == 0


def test_a_real_sanitizer_report_gives_one_record_in_two_workspaces(tmp_path, capsys):
    if not _asan_links(tmp_path):
        pytest.skip("cc -fsanitize=address cannot link")
    rb = RepoBuilder(tmp_path / "repo")
    rb.commit({"overflow.c": OVERFLOW_C}, "base")
    rb.commit({"overflow.c": OVERFLOW_C.replace("p[4]", "p[3]")}, "fix the overflow")
    rb.commit({"README": "docs\n"}, "docs")
    (tmp_path / "poc.bin").write_bytes(b"x")
    records = []
    for workspace in ("ws1", "ws2"):
        case = {
            "cve": CVE, "project": "asan", "repo": str(rb.root),
            "fix_commits": ["t1"], "target": "t2",
            "build": {"steps": ["cc -fsanitize=address -g -O0 -o boom overflow.c"],
                      "artifacts": ["boom"], "sanitizer": "address"},
            "poc": {"command": "{binary} {input}", "input": "poc.bin",
                    "expected_detector": "heap-buffer-overflow"},
            "workspace": str(tmp_path / workspace),
        }
        path = tmp_path / f"{workspace}.json"
        path.write_text(json.dumps(case))
        assert main(["revive", "--config", str(path)]) == 0
        assert summary(capsys)["final"] == "Revived"
        records.append((tmp_path / workspace / CVE / "revival_record.json").read_bytes())
    assert records[0] == records[1]
    evidence = json.loads(records[0])["verdict"]["evidence"]
    assert evidence.startswith("==<pid>==ERROR: AddressSanitizer: heap-buffer-overflow")
    assert "<slot>/tree/overflow.c:4" in evidence


class TestVerdictStore:
    def test_identical_rerun_builds_nothing(self, tmp_path, fixture, capsys):
        case = write_case(tmp_path, fixture)
        record = tmp_path / "ws" / CVE / "revival_record.json"
        assert main(["revive", "--config", str(case)]) == 0
        assert int(summary(capsys)["builds"]) >= 1
        first = record.read_bytes()
        assert main(["revive", "--config", str(case)]) == 0
        assert summary(capsys)["builds"] == "0"
        assert record.read_bytes() == first
        assert list((tmp_path / "ws" / "verdict-cache").glob("*.json"))

    def test_jobs_cases_share_their_builds(self, tmp_path, fixture, capsys):
        for run in range(5):
            root = tmp_path / str(run)
            (root / "alone").mkdir(parents=True)
            alone = write_case(root / "alone", fixture, workspace=str(root / "ws-alone"))
            assert main(["revive", "--config", str(alone)]) == 0
            [single] = summaries(capsys)
            configs = []
            for cve in ("CVE-2021-0001", "CVE-2021-0002"):
                (root / cve).mkdir()
                configs += ["--config", str(write_case(root / cve, fixture, cve=cve,
                                                       workspace=str(root / "ws")))]
            assert main(["revive", "--jobs", "2", *configs]) == 0
            pair = summaries(capsys)
            assert [f["final"] for f in pair] == ["Revived", "Revived"]
            assert sum(int(f["builds"]) for f in pair) == int(single["builds"]) >= 1

    def test_cache_dir_is_shared_across_workspaces(self, tmp_path, fixture, capsys):
        store = tmp_path / "store"
        case = write_case(tmp_path, fixture, cache_dir=str(store))
        assert main(["revive", "--config", str(case), "--workspace", str(tmp_path / "a")]) == 0
        assert int(summary(capsys)["builds"]) >= 1
        assert main(["revive", "--config", str(case), "--workspace", str(tmp_path / "b")]) == 0
        assert summary(capsys)["builds"] == "0"
        assert not (tmp_path / "a" / "verdict-cache").exists()
        assert list(store.glob("*.json"))

    def test_locks_are_striped_not_per_key(self, tmp_path, fixture, capsys):
        case = write_case(tmp_path, fixture)
        assert main(["revive", "--config", str(case)]) == 0
        store = tmp_path / "ws" / "verdict-cache"
        assert list(store.glob("*.json"))
        locks = [p.relative_to(store) for p in store.rglob("*.lock")]
        assert locks and all(p.parent.name == "locks" for p in locks)
        assert {len(p.stem) for p in locks} == {LOCK_PREFIX}

    @pytest.mark.skipif(not atimes_recorded(), reason="no atimes in the temp dir")
    def test_a_commit_to_an_unread_file_is_answered_by_traces(self, tmp_path, capsys):
        fx = forge_repo(tmp_path / "fx", ["C1"])
        (tmp_path / "a").mkdir()
        ws = str(tmp_path / "ws")
        case = write_case(tmp_path / "a", fx, workspace=ws)
        assert main(["revive", "--config", str(case)]) == 0
        assert int(summary(capsys)["builds"]) >= 1
        # the same target plus a commit to CHANGES, which build.sh never reads
        target = commit_file(fx.repo, fx.target, "CHANGES", "a release note\n")
        (tmp_path / "b").mkdir()
        case = write_case(tmp_path / "b", fx, target=target, workspace=ws)
        assert main(["revive", "--config", str(case)]) == 0
        fields = summary(capsys)
        assert fields["final"] == "Revived"
        assert fields["builds"] == "0"
        assert int(fields["traced"]) >= 1
        assert int(fields["hits"]) >= int(fields["traced"])
        traced = (tmp_path / "ws" / CVE / "revival_record.json").read_bytes()
        (tmp_path / "c").mkdir()
        case = write_case(tmp_path / "c", fx, target=target, workspace=str(tmp_path / "empty"))
        assert main(["revive", "--config", str(case)]) == 0
        assert int(summary(capsys)["builds"]) >= 1
        assert (tmp_path / "empty" / CVE / "revival_record.json").read_bytes() == traced

    def test_cases_in_other_repositories_share_builds_through_their_poc_bytes(
            self, tmp_path, capsys):
        # two repositories with the same sources and different noise, each
        # case with its own copy of the same PoC bytes
        cases = []
        for name in ("a", "b"):
            fx = forge_repo(tmp_path / name, ["C1"])
            target = commit_file(fx.repo, fx.target, "CHANGES", f"noise of {name}\n")
            cases.append((f"CVE-2021-000{len(cases) + 1}", fx, target))
        alone = []
        for cve, fx, target in cases:
            d = tmp_path / "alone" / cve
            case = case_in(d, fx, cve=cve, target=target, workspace=str(d / "ws"))
            assert main(["revive", "--config", str(case)]) == 0
            alone.append((int(summary(capsys)["builds"]),
                          (d / "ws" / cve / "revival_record.json").read_bytes()))
        shared = []
        for cve, fx, target in cases:
            d = tmp_path / "shared" / cve
            case = case_in(d, fx, cve=cve, target=target, workspace=str(tmp_path / "ws"))
            assert main(["revive", "--config", str(case)]) == 0
            shared.append((int(summary(capsys)["builds"]),
                           (tmp_path / "ws" / cve / "revival_record.json").read_bytes()))
        assert shared[0] == alone[0]
        assert shared[1][0] < alone[1][0]
        assert shared[1][1] == alone[1][1]

    def test_a_moved_case_is_answered_from_the_store(self, tmp_path, fixture, capsys):
        ws = str(tmp_path / "ws")
        record = tmp_path / "ws" / CVE / "revival_record.json"
        assert main(["revive", "--config", str(case_in(tmp_path / "old", fixture,
                                                       workspace=ws))]) == 0
        assert int(summary(capsys)["builds"]) >= 1
        first = record.read_bytes()
        shutil.rmtree(tmp_path / "old")
        assert main(["revive", "--config", str(case_in(tmp_path / "new", fixture,
                                                       workspace=ws))]) == 0
        assert summary(capsys)["builds"] == "0"
        assert record.read_bytes() == first
        # the same bytes under another name are another input
        renamed = case_in(tmp_path / "renamed", fixture, name="poc.dat", workspace=ws)
        assert main(["revive", "--config", str(renamed)]) == 0
        assert int(summary(capsys)["builds"]) >= 1


def case_in(d, fx, name="poc.bin", **overrides):
    """A case config in `d` whose PoC input is a copy of `fx`'s, named
    `name`, beside it."""
    d.mkdir(parents=True)
    (d / name).write_bytes(fx.poc_file.read_bytes())
    case = write_case(d, fx, **overrides)
    data = json.loads(case.read_text())
    data["poc"]["input"] = str(d / name)
    case.write_text(json.dumps(data))
    return case


def commit_file(repo, parent, path, text):
    """A commit on `parent` that replaces the top-level file `path`."""
    env = {"GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@example.invalid",
           "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@example.invalid",
           "GIT_CONFIG_GLOBAL": "/dev/null", "GIT_CONFIG_NOSYSTEM": "1",
           "PATH": "/usr/bin:/bin"}

    def git(*args, stdin=None):
        return subprocess.run(["git", "-C", str(repo), *args], input=stdin, env=env,
                              capture_output=True, text=True, check=True).stdout.strip()

    blob = git("hash-object", "-w", "--stdin", stdin=text)
    rows = [row for row in git("ls-tree", parent).splitlines() if row.split("\t")[1] != path]
    tree = git("mktree", stdin="\n".join(rows + [f"100644 blob {blob}\t{path}"]) + "\n")
    return git("commit-tree", tree, "-p", parent, "-m", f"edit {path}")
