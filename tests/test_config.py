import json

import pytest

from revenant.config import (
    ConfigError,
    WORKSPACE_ENV,
    default_workspace,
    load_case,
    merge_defaults,
    parse_case,
)
from revenant.oracle import SANITIZER_ASAN, SANITIZER_NONE, BuildRecipe, PocSpec
from revenant.patchcore import Granularity


def full_case(**overrides):
    case = {
        "cve": "CVE-2020-1234",
        "project": "pack",
        "repo": "repo",
        "fix_commits": ["abc123"],
        "target": "v2.0",
        "tiers": {"reference": "v1.0", "latest": "v2.0"},
        "build": {
            "steps": ["sh build.sh"],
            "artifacts": ["pack_tool"],
            "env": {"CC": "cc"},
            "sanitizer": "address",
            "timeout": 300,
        },
        "poc": {
            "command": "{binary} -i {input}",
            "input": "poc.bin",
            "expected_detector": "heap-buffer-overflow",
            "run_timeout": 5,
            "hang_is_trigger": False,
        },
        "limits": {"max_reverted_commits": 3},
        "policy": {"granularity": "whole-files", "max_fuzz": 1},
        "workspace": "ws",
    }
    case.update(overrides)
    return case


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestParse:
    def test_full_case(self, tmp_path):
        cfg = load_case(write(tmp_path, "case.json", full_case()), None)
        assert cfg.cve == "CVE-2020-1234"
        assert cfg.repo == (tmp_path / "repo").resolve()
        assert cfg.build.sanitizer == SANITIZER_ASAN
        assert cfg.build.timeout == 300
        assert cfg.build.env == (("CC", "cc"),)
        assert cfg.poc.input_file == str((tmp_path / "poc.bin").resolve())
        assert cfg.poc.run_timeout == 5.0
        assert cfg.limits.max_reverted_commits == 3
        assert cfg.limits.max_files_per_commit == 14  # untouched default
        assert cfg.policy.granularity is Granularity.WholeFiles
        assert cfg.policy.max_fuzz == 1
        assert cfg.workspace == (tmp_path / "ws").resolve()

    def test_minimal_case_gets_defaults(self, tmp_path):
        case = full_case()
        for key in ("tiers", "limits", "policy", "workspace"):
            del case[key]
        del case["build"]["sanitizer"]
        cfg = load_case(write(tmp_path, "case.json", case), None)
        assert cfg.build.sanitizer == SANITIZER_NONE
        assert cfg.policy.granularity is Granularity.PatchHunks
        assert cfg.limits.max_reverted_commits == 4
        assert cfg.workspace is None

    def test_omitted_build_and_poc_keys_take_the_dataclass_defaults(self, tmp_path):
        case = full_case()
        case["build"] = {"steps": ["make"], "artifacts": ["tool"]}
        case["poc"] = {"command": "{binary} {input}", "input": "poc.bin"}
        cfg = load_case(write(tmp_path, "case.json", case), None)
        assert cfg.build == BuildRecipe(steps=("make",), artifact_paths=("tool",))
        assert cfg.build == BuildRecipe.make(["make"], ["tool"])
        assert cfg.poc == PocSpec(command="{binary} {input}", input_file=cfg.poc.input_file)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda c: c.update({"surprise": 1}),
            lambda c: c["build"].update({"steps_": []}),
            lambda c: c["poc"].update({"expected_detektor": "x"}),
            lambda c: c["limits"].update({"max_commits": 1}),
            lambda c: c["policy"].update({"fuzz": 1}),
            lambda c: c["policy"].update({"search_window": 200}),
            lambda c: c["policy"].update({"normalize_trailing_whitespace": False}),
        ],
    )
    def test_unknown_keys_rejected(self, tmp_path, mutate):
        case = full_case()
        mutate(case)
        with pytest.raises(ConfigError, match="unknown keys"):
            load_case(write(tmp_path, "case.json", case), None)

    @pytest.mark.parametrize("key", ["cve", "project", "repo", "fix_commits", "target", "build", "poc"])
    def test_required_keys(self, tmp_path, key):
        case = full_case()
        del case[key]
        with pytest.raises(ConfigError):
            load_case(write(tmp_path, "case.json", case), None)

    def test_command_needs_binary_placeholder(self, tmp_path):
        case = full_case()
        case["poc"]["command"] = "./tool {input}"
        with pytest.raises(ConfigError, match="binary"):
            load_case(write(tmp_path, "case.json", case), None)

    def test_bad_sanitizer(self, tmp_path):
        case = full_case()
        case["build"]["sanitizer"] = "asan"
        with pytest.raises(ConfigError, match="sanitizer"):
            load_case(write(tmp_path, "case.json", case), None)

    def test_bad_granularity(self, tmp_path):
        case = full_case()
        case["policy"]["granularity"] = "file"
        with pytest.raises(ConfigError, match="granularity"):
            load_case(write(tmp_path, "case.json", case), None)

    def test_a_fuzz_above_2_is_rejected_at_load(self, tmp_path):
        case = full_case()
        case["policy"]["max_fuzz"] = 3
        with pytest.raises(ConfigError, match="max_fuzz"):
            load_case(write(tmp_path, "case.json", case), None)

    def test_negative_limit_rejected(self, tmp_path):
        case = full_case()
        case["limits"]["max_reverted_commits"] = -1
        with pytest.raises(ConfigError):
            load_case(write(tmp_path, "case.json", case), None)

    def test_not_json(self, tmp_path):
        path = tmp_path / "case.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_case(path, None)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_case(tmp_path / "absent.json", None)


class TestDefaultsMerge:
    def test_case_overrides_project(self, tmp_path):
        defaults = {
            "project": "pack",
            "repo": "repo",
            "build": {"steps": ["sh build.sh"], "artifacts": ["pack_tool"], "timeout": 600},
            "poc": {"command": "{binary} {input}", "input": "shared.bin"},
            "policy": {"max_fuzz": 0},
        }
        case = {
            "cve": "CVE-2020-1",
            "fix_commits": ["abc"],
            "target": "v2",
            "poc": {"input": "case.bin"},
        }
        merged = merge_defaults(case, defaults)
        cfg = parse_case(merged, tmp_path, source="merged")
        assert cfg.build.timeout == 600
        assert cfg.poc.command == "{binary} {input}"
        assert cfg.poc.input_file.endswith("case.bin")
        assert cfg.policy.max_fuzz == 0

    def test_load_case_with_defaults_file(self, tmp_path):
        defaults = {"project": "pack", "repo": "repo",
                    "build": {"steps": ["make"], "artifacts": ["t"]},
                    "poc": {"command": "{binary} {input}", "input": "p.bin"}}
        case = {"cve": "CVE-2020-2", "fix_commits": ["abc"], "target": "v3"}
        cfg = load_case(
            write(tmp_path, "case.json", case),
            defaults_path=write(tmp_path, "defaults.json", defaults),
        )
        assert cfg.cve == "CVE-2020-2"
        assert cfg.project == "pack"

    def test_unknown_key_from_defaults_rejected(self, tmp_path):
        defaults = {"projekt": "typo"}
        case = full_case()
        with pytest.raises(ConfigError, match="unknown keys"):
            load_case(
                write(tmp_path, "case.json", case),
                defaults_path=write(tmp_path, "defaults.json", defaults),
                )


class TestWorkspaceEnv:
    def test_env_wins_over_builtin(self, monkeypatch, tmp_path):
        monkeypatch.setenv(WORKSPACE_ENV, str(tmp_path / "from-env"))
        assert default_workspace() == tmp_path / "from-env"

    def test_builtin_fallback(self, monkeypatch):
        monkeypatch.delenv(WORKSPACE_ENV, raising=False)
        assert str(default_workspace()) == "revenant-workspace"
