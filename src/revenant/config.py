"""Case configuration: one strict JSON file per CVE revival case.

Unknown keys are rejected everywhere so a typo like "expected_detektor"
fails at load time instead of silently weakening the oracle. A project
defaults file can carry the shared build/poc scaffolding; the case file
overrides it key by key.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Optional

from .oracle import (
    SANITIZER_ASAN,
    SANITIZER_NONE,
    SANITIZER_VALGRIND,
    BuildRecipe,
    PocSpec,
)
from .patchcore import Granularity
from .porter import Limits

WORKSPACE_ENV = "REVENANT_WORKSPACE"
DEFAULT_WORKSPACE = "revenant-workspace"

_SANITIZERS = {
    "address": SANITIZER_ASAN,
    "valgrind": SANITIZER_VALGRIND,
    "none": SANITIZER_NONE,
}

_TOP_KEYS = {
    "cve", "project", "repo", "fix_commits", "target", "tiers",
    "build", "poc", "limits", "policy", "workspace", "cache_dir",
}
_BUILD_KEYS = {"steps", "artifacts", "env", "sanitizer", "timeout"}
_POC_KEYS = {"command", "input", "expected_detector", "run_timeout", "hang_is_trigger"}


class ConfigError(Exception):
    pass


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _check_keys(section: dict, allowed: set, where: str) -> None:
    _expect(isinstance(section, dict), f"{where}: expected an object")
    unknown = sorted(set(section) - allowed)
    _expect(not unknown, f"{where}: unknown keys {unknown}")


def _str(section: dict, key: str, where: str) -> str:
    value = section.get(key)
    _expect(isinstance(value, str) and value != "",
            f"{where}: {key} must be a non-empty string")
    return value


def _str_list(section: dict, key: str, where: str) -> List[str]:
    value = section.get(key)
    _expect(isinstance(value, list) and value and all(isinstance(v, str) for v in value),
            f"{where}: {key} must be a non-empty list of strings")
    return list(value)


def _num(section: dict, key: str, where: str, default):
    value = section.get(key, default)
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool) and value > 0,
            f"{where}: {key} must be a positive number")
    return value


def _int(section: dict, key: str, where: str, default: int) -> int:
    value = section.get(key, default)
    _expect(isinstance(value, int) and not isinstance(value, bool) and value >= 0,
            f"{where}: {key} must be a non-negative integer")
    return value


def _bool(section: dict, key: str, where: str, default: bool) -> bool:
    value = section.get(key, default)
    _expect(isinstance(value, bool), f"{where}: {key} must be true or false")
    return value


@dataclass
class CaseConfig:
    cve: str
    project: str
    repo: Path
    fix_commits: List[str]
    target: str
    tiers: Dict[str, str]
    build: BuildRecipe
    poc: PocSpec
    limits: Limits
    granularity: Granularity
    workspace: Optional[Path]
    cache_dir: Optional[Path]  # verdict store; None means <workspace>/verdict-cache


def merge_defaults(case: dict, defaults: dict) -> dict:
    """Layer a case over project defaults; case values win, dicts merge."""
    merged = dict(defaults)
    for key, value in case.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = merge_defaults(value, merged[key])
        else:
            merged[key] = value
    return merged


def parse_case(data: dict, base_dir: Path, source: str) -> CaseConfig:
    where = source
    _check_keys(data, _TOP_KEYS, where)

    cve = _str(data, "cve", where)
    project = _str(data, "project", where)
    target = _str(data, "target", where)
    fix_commits = _str_list(data, "fix_commits", where)
    repo = (base_dir / _str(data, "repo", where)).resolve()

    tiers = data.get("tiers", {})
    _expect(
        isinstance(tiers, dict)
        and all(isinstance(k, str) and isinstance(v, str) for k, v in tiers.items()),
        f"{where}: tiers must map tier names to refs",
    )

    build_raw = data.get("build")
    _expect(build_raw is not None, f"{where}: missing required key 'build'")
    _check_keys(build_raw, _BUILD_KEYS, f"{where}: build")
    env = build_raw.get("env", {})
    _expect(
        isinstance(env, dict)
        and all(isinstance(k, str) and isinstance(v, str) for k, v in env.items()),
        f"{where}: build.env must map strings to strings",
    )
    sanitizer_name = build_raw.get("sanitizer", "none")
    _expect(sanitizer_name in _SANITIZERS,
            f"{where}: build.sanitizer must be one of {sorted(_SANITIZERS)}")
    build = BuildRecipe.make(
        steps=_str_list(build_raw, "steps", f"{where}: build"),
        artifact_paths=_str_list(build_raw, "artifacts", f"{where}: build"),
        env=env,
        sanitizer=_SANITIZERS[sanitizer_name],
        timeout=_num(build_raw, "timeout", f"{where}: build", BuildRecipe.timeout),
    )

    poc_raw = data.get("poc")
    _expect(poc_raw is not None, f"{where}: missing required key 'poc'")
    _check_keys(poc_raw, _POC_KEYS, f"{where}: poc")
    command = _str(poc_raw, "command", f"{where}: poc")
    _expect("{binary}" in command, f"{where}: poc.command must use the {{binary}} placeholder")
    input_file = str((base_dir / _str(poc_raw, "input", f"{where}: poc")).resolve())
    poc = PocSpec(
        command=command,
        input_file=input_file,
        expected_detector=poc_raw.get("expected_detector", PocSpec.expected_detector),
        run_timeout=float(_num(poc_raw, "run_timeout", f"{where}: poc", PocSpec.run_timeout)),
        hang_is_trigger=_bool(poc_raw, "hang_is_trigger", f"{where}: poc",
                              PocSpec.hang_is_trigger),
    )
    _expect(isinstance(poc.expected_detector, str),
            f"{where}: poc.expected_detector must be a string")
    try:  # fail before any build on a command that `run_poc` cannot fill in
        poc.argv("")
    except (ValueError, LookupError, AttributeError) as exc:
        raise ConfigError(
            f"{where}: poc.command {command!r} cannot be filled in: {exc!r}; the placeholders "
            f"are {{binary}} and {{input}}, and a literal brace is written {{{{ or }}}}"
        ) from None

    # each key a `Limits` field, a non-negative int; an omitted one keeps its default
    limits_raw = data.get("limits", {})
    _check_keys(limits_raw, {f.name for f in fields(Limits)}, f"{where}: limits")
    limits = Limits(**{f.name: _int(limits_raw, f.name, f"{where}: limits", f.default)
                       for f in fields(Limits)})

    policy_raw = data.get("policy", {})
    _check_keys(policy_raw, {"granularity"}, f"{where}: policy")
    granularity = policy_raw.get("granularity", Granularity.PatchHunks.value)
    granularities = [g.value for g in Granularity]
    _expect(granularity in granularities,
            f"{where}: policy.granularity must be one of {granularities}")

    workspace = data.get("workspace")
    cache_dir = data.get("cache_dir")
    for name, value in (("workspace", workspace), ("cache_dir", cache_dir)):
        _expect(value is None or (isinstance(value, str) and value),
                f"{where}: {name} must be a non-empty string when present")

    return CaseConfig(
        cve=cve,
        project=project,
        repo=repo,
        fix_commits=fix_commits,
        target=target,
        tiers=dict(tiers),
        build=build,
        poc=poc,
        limits=limits,
        granularity=Granularity(granularity),
        workspace=(base_dir / workspace).resolve() if workspace else None,
        cache_dir=(base_dir / cache_dir).resolve() if cache_dir else None,
    )


def _read_object(path: Path) -> dict:
    """The JSON object in the file at `path`."""
    try:
        data = json.loads(path.read_text("utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    _expect(isinstance(data, dict), f"{path}: top level must be an object")
    return data


def load_case(path, defaults_path) -> CaseConfig:
    """Load a case file, layered over the project defaults file at
    `defaults_path` unless that is None."""
    case_path = Path(path)
    data = _read_object(case_path)
    if defaults_path is not None:
        data = merge_defaults(data, _read_object(Path(defaults_path)))
    return parse_case(data, case_path.parent.resolve(), source=str(case_path))


def default_workspace() -> Path:
    """Workspace fallback: REVENANT_WORKSPACE, else ./revenant-workspace."""
    env = os.environ.get(WORKSPACE_ENV)
    return Path(env) if env else Path(DEFAULT_WORKSPACE)
