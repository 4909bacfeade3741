import json
import os
import shlex
import shutil
import signal
import subprocess
import sys
import textwrap
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

import revenant.oracle as oracle_mod
from revenant.curation import FORMAT_EXIT_CODE, rule_functionality
from revenant.gitio import MODE_EXEC, CommitMemo, CommitTree, checkout_worktree
from revenant.oracle import (
    KIND_BUILD_FAILED,
    KIND_HANG,
    KIND_NOT_TRIGGERED,
    KIND_POC_INCOMPATIBLE,
    KIND_SANDBOX_FAILURE,
    KIND_TRIGGERED,
    HANG_TRIGGER_CLASS,
    NO_COMPILER,
    SANITIZER_ASAN,
    SANITIZER_VALGRIND,
    BuildRecipe,
    BuildSlot,
    Oracle,
    OracleVerdict,
    PocSpec,
    build_identity,
    classify_detector_output,
    compiler_version,
    looks_like_usage_error,
    read_input,
    run_env,
    tree_hash,
    verdict_group,
)

from gitutil import (
    DiskTree,
    RepoBuilder,
    atimes_recorded,
    build_in_place,
    no_child_left,
    run_poc_in_place,
    snapshot,
)

CORPUS = Path(__file__).parent / "data" / "detector_corpus"


def corpus_cases():
    labels = json.loads((CORPUS / "labels.json").read_text())
    return sorted(labels.items())


@pytest.mark.parametrize("name,label", corpus_cases())
def test_corpus_classification(name, label):
    text = (CORPUS / name).read_text()
    hit = classify_detector_output(text)
    # the oracle classifies canonical evidence: it must read alike
    canonical = classify_detector_output(oracle_mod._canonical(text, "/nowhere"))
    if label is None:
        assert hit is None and canonical is None
    else:
        assert hit is not None
        assert hit.weakness_class == label
        assert hit.excerpt
        assert (canonical.weakness_class, canonical.excerpt) == (
            label, oracle_mod._canonical(hit.excerpt, "/nowhere"))


def test_evidence_holds_no_pid_address_or_slot():
    home = "/tmp/a b/oracle-1x"
    raw = (
        "==6331==ERROR: AddressSanitizer: heap-buffer-overflow on address 0x602000000014"
        " at pc 0x55d1861461d8 bp 0x7ffcaca82350 sp 0x7ffcaca82348\n"
        f"    #0 0x55d1861461d7 in main {home}/tree/o.c:5\n"
        "    #1 0x7ff280245249  (/lib/x86_64-linux-gnu/libc.so.6+0x27249)\n"
        f"cat: '{home}/poc/po c.bin': No such file or directory\n"
        f"'{home}' and '{home}/x'\n"
    )
    assert oracle_mod._canonical(raw, home) == (
        "==<pid>==ERROR: AddressSanitizer: heap-buffer-overflow on address 0x<addr>"
        " at pc 0x<addr> bp 0x<addr> sp 0x<addr>\n"
        "    #0 0x<addr> in main <slot>/tree/o.c:5\n"
        "    #1 0x<addr>  (/lib/x86_64-linux-gnu/libc.so.6+0x27249)\n"
        "cat: <slot>/poc/po c.bin: No such file or directory\n"
        "<slot> and <slot>/x\n"
    )


def test_asan_excerpt_is_bounded():
    text = (CORPUS / "asan_heap_buffer_overflow.txt").read_text()
    hit = classify_detector_output(text)
    assert hit.excerpt.startswith("==12981==ERROR: AddressSanitizer:")
    # stops at the summary/abort boundary, does not drag in shadow dumps
    assert "Shadow bytes" not in hit.excerpt


def test_usage_patterns():
    assert looks_like_usage_error("usage: tool FILE\n")
    assert looks_like_usage_error("tool: invalid option -- 'q'\n")
    assert looks_like_usage_error("error: missing argument for -o\n")
    assert not looks_like_usage_error("processed 4 records\n")


def _script(dirpath: Path, name: str, body: str) -> str:
    p = dirpath / name
    p.write_text("#!/bin/sh\n" + textwrap.dedent(body))
    p.chmod(0o755)
    return str(p)


def _poc_file(dirpath: Path) -> str:
    p = dirpath / "poc.bin"
    p.write_bytes(b"\x18\x00payload")
    return str(p)


class TestRunPoc:
    def test_detector_report_wins(self, tmp_path):
        report = (CORPUS / "asan_heap_buffer_overflow.txt").read_text()
        bin_path = _script(tmp_path, "t", f"cat <<'EOF'\n{report}EOF\nexit 1\n")
        poc = PocSpec(command="{binary} {input}", input_file=_poc_file(tmp_path))
        v = run_poc_in_place([bin_path], poc, cwd=tmp_path)
        assert v.kind == KIND_TRIGGERED
        assert v.detector_class == "heap-buffer-overflow"
        assert "ERROR: AddressSanitizer" in v.evidence

    def test_mismatched_class_is_not_triggered(self, tmp_path):
        report = (CORPUS / "asan_segv.txt").read_text()
        bin_path = _script(tmp_path, "t", f"cat <<'EOF'\n{report}EOF\nexit 1\n")
        poc = PocSpec(
            command="{binary} {input}",
            input_file=_poc_file(tmp_path),
            expected_detector="heap-buffer-overflow",
        )
        v = run_poc_in_place([bin_path], poc, cwd=tmp_path)
        assert v.kind == KIND_NOT_TRIGGERED
        assert v.detector_class == "SEGV"  # recorded even though it did not count

    def test_clean_exit(self, tmp_path):
        bin_path = _script(tmp_path, "t", "echo done\nexit 0\n")
        poc = PocSpec(command="{binary} {input}", input_file=_poc_file(tmp_path))
        v = run_poc_in_place([bin_path], poc, cwd=tmp_path)
        assert v.kind == KIND_NOT_TRIGGERED

    def test_usage_text_means_incompatible(self, tmp_path):
        bin_path = _script(tmp_path, "t", "echo 'usage: t FILE' >&2\nexit 1\n")
        poc = PocSpec(command="{binary} {input}", input_file=_poc_file(tmp_path))
        v = run_poc_in_place([bin_path], poc, cwd=tmp_path)
        assert v.kind == KIND_POC_INCOMPATIBLE

    def test_a_silent_usage_exit_code_is_not_triggered(self, tmp_path):
        # only usage text means incompatible: no exit code or exit time does
        bin_path = _script(tmp_path, "t", "exit 64\n")
        poc = PocSpec(command="{binary} {input}", input_file=_poc_file(tmp_path))
        v = run_poc_in_place([bin_path], poc, cwd=tmp_path)
        assert (v.kind, v.transient) == (KIND_NOT_TRIGGERED, False)

    def test_slow_exit_2_is_not_incompatible(self, tmp_path):
        # without usage text an exit code 2 is NotTriggered, early or late
        bin_path = _script(tmp_path, "t", "sleep 0.3\nexit 2\n")
        poc = PocSpec(command="{binary} {input}", input_file=_poc_file(tmp_path))
        v = run_poc_in_place([bin_path], poc, cwd=tmp_path)
        assert v.kind == KIND_NOT_TRIGGERED

    def test_hang(self, tmp_path):
        bin_path = _script(tmp_path, "t", "sleep 30\n")
        poc = PocSpec(
            command="{binary} {input}", input_file=_poc_file(tmp_path), run_timeout=0.5
        )
        v = run_poc_in_place([bin_path], poc, cwd=tmp_path)
        assert v.kind == KIND_HANG

    def test_hang_as_trigger(self, tmp_path):
        bin_path = _script(tmp_path, "t", "sleep 30\n")
        poc = PocSpec(
            command="{binary} {input}",
            input_file=_poc_file(tmp_path),
            run_timeout=0.5,
            hang_is_trigger=True,
        )
        v = run_poc_in_place([bin_path], poc, cwd=tmp_path)
        assert v.kind == KIND_TRIGGERED
        assert v.detector_class == HANG_TRIGGER_CLASS

    def test_missing_binary(self, tmp_path):
        poc = PocSpec(command="{binary} {input}", input_file=_poc_file(tmp_path))
        v = run_poc_in_place([str(tmp_path / "nope")], poc, cwd=tmp_path)
        assert v.kind == KIND_POC_INCOMPATIBLE

    def test_spawn_failure(self, tmp_path):
        p = tmp_path / "noexec"
        p.write_text("not a program")  # exists but lacks the exec bit
        poc = PocSpec(command="{binary} {input}", input_file=_poc_file(tmp_path))
        v = run_poc_in_place([str(p)], poc, cwd=tmp_path)
        assert v.kind == KIND_SANDBOX_FAILURE


class TestBuild:
    def test_steps_and_artifacts(self, tmp_path):
        (tmp_path / "hello.c").write_text(
            '#include <stdio.h>\nint main(void){puts("hi");return 0;}\n'
        )
        recipe = BuildRecipe.make(["cc -O0 -o hello hello.c"], ["hello"])
        assert build_in_place(tmp_path, recipe) is None
        assert (tmp_path / "hello").is_file()

    def test_failing_step(self, tmp_path):
        (tmp_path / "bad.c").write_text("int main(void){return\n")
        recipe = BuildRecipe.make(["cc -O0 -o bad bad.c"], ["bad"])
        failed = build_in_place(tmp_path, recipe)
        assert (failed.kind, failed.transient) == (KIND_BUILD_FAILED, False)
        assert "exit" in failed.evidence

    def test_missing_artifact(self, tmp_path):
        recipe = BuildRecipe.make(["true"], ["made_up_binary"])
        failed = build_in_place(tmp_path, recipe)
        assert (failed.kind, failed.transient) == (KIND_BUILD_FAILED, False)
        assert "MISSING ARTIFACT" in failed.evidence

    def test_budget_enforced(self, tmp_path):
        recipe = BuildRecipe.make(["sleep 30"], [], timeout=1)
        failed = build_in_place(tmp_path, recipe)
        assert (failed.kind, failed.transient) == (KIND_BUILD_FAILED, True)
        assert "TIMEOUT" in failed.evidence


def _limits(text: str) -> dict:
    """Soft and hard limit of core and file size in `/proc/<pid>/limits`."""
    found = {}
    for line in text.splitlines():
        for name in ("Max core file size", "Max file size"):
            if line.startswith(name + " "):
                found[name] = line[len(name):].split()[:2]
    return found


LIMITS = {"Max core file size": ["0", "0"], "Max file size": ["1073741824", "1073741824"]}
needs_proc = pytest.mark.skipif(not Path("/proc/self/limits").exists(),
                                reason="no /proc/self/limits")


class TestLaunches:
    """Each build step, PoC run and project suite is exec'd by `/bin/sh`
    under its limits; what the shell reports is a spawn failure, what the
    program does is not."""

    @needs_proc
    def test_a_build_step_and_a_poc_run_under_the_limits(self, tmp_path):
        recipe = BuildRecipe.make(["cat /proc/self/limits > limits.txt"], ["limits.txt"])
        assert build_in_place(tmp_path, recipe) is None
        assert _limits((tmp_path / "limits.txt").read_text()) == LIMITS
        tool = _script(tmp_path, "t", "grep -E '^Max (core )?file size' /proc/self/limits\n")
        poc = PocSpec(command="{binary} {input}", input_file=_poc_file(tmp_path))
        v = run_poc_in_place([tool], poc, cwd=tmp_path)
        assert v.kind == KIND_NOT_TRIGGERED
        assert _limits(v.evidence) == LIMITS

    @needs_proc
    def test_a_project_suite_under_the_limits(self, tmp_path):
        suite = "cat /proc/self/limits > limits.txt"
        assert rule_functionality(suite, tmp_path, FORMAT_EXIT_CODE, ()).verdict == "Functional"
        assert _limits((tmp_path / "limits.txt").read_text()) == LIMITS

    @staticmethod
    def _path_with(tmp_path, *tools) -> str:
        """A directory holding only `tools`, linked from the host's PATH."""
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        for tool in tools:
            (bin_dir / tool).symlink_to(shutil.which(tool))
        return str(bin_dir)

    def test_a_missing_valgrind_is_a_sandbox_failure_never_stored(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        _script(tree, "tool.sh", "echo ran\n")
        recipe = BuildRecipe.make(["cp tool.sh tool"], ["tool"], sanitizer=SANITIZER_VALGRIND,
                                  env={"PATH": self._path_with(tmp_path, "sh", "cp")})
        poc = PocSpec(command="{binary} {input}", input_file=_poc_file(tmp_path))
        oracle = Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch")
        for builds in (1, 2):
            v = oracle.verdict(DiskTree(tree), recipe, poc)
            assert (v.kind, v.transient) == (KIND_SANDBOX_FAILURE, True)
            assert v.evidence.startswith(f"{oracle_mod.LAUNCHER}:") and "valgrind" in v.evidence
            assert oracle.counters["builds"] == builds
        assert not list((tmp_path / "store").glob("*.json"))

    def test_a_missing_step_command_is_a_transient_build_failure(self, tmp_path):
        tree = _demo_tree(tmp_path)
        # no `sh` on the recipe's PATH: the launcher cannot exec the step
        recipe = BuildRecipe.make(["true"], ["demo"],
                                  env={"PATH": self._path_with(tmp_path, "cp")})
        poc = PocSpec(command="{binary} {input}", input_file=_poc_file(tmp_path))
        oracle = Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch")
        for builds in (1, 2):
            v = oracle.verdict(DiskTree(tree), recipe, poc)
            assert (v.kind, v.transient) == (KIND_BUILD_FAILED, True)
            assert "SPAWN FAILURE" in v.evidence
            assert oracle.counters["builds"] == builds
        assert not list((tmp_path / "store").glob("*.json"))

    @pytest.mark.parametrize("code", [126, 127])
    def test_a_program_that_exits_126_or_127_keeps_its_verdict(self, tmp_path, code):
        tool = _script(tmp_path, "t", f"echo consumed the input\nexit {code}\n")
        poc = PocSpec(command="{binary} {input}", input_file=_poc_file(tmp_path))
        v = run_poc_in_place([tool], poc, cwd=tmp_path)
        assert (v.kind, v.transient) == (KIND_NOT_TRIGGERED, False)
        assert v.evidence == "consumed the input\n"

    def test_a_script_without_a_shebang_runs_under_sh(self, tmp_path):
        tool = tmp_path / "t"
        tool.write_text("echo no shebang\n")
        tool.chmod(0o755)
        poc = PocSpec(command="{binary} {input}", input_file=_poc_file(tmp_path))
        v = run_poc_in_place([str(tool)], poc, cwd=tmp_path)
        assert (v.kind, v.evidence) == (KIND_NOT_TRIGGERED, "no shebang\n")

    @staticmethod
    def _caller(tmp_path, argv, **popen) -> subprocess.Popen:
        """A Python process that calls `run_limited` on `argv` in `tmp_path`
        and prints the run's output."""
        script = textwrap.dedent(f"""\
            import sys
            sys.path.insert(0, {str(Path(oracle_mod.__file__).parents[1])!r})
            from revenant.oracle import run_limited
            env = {{"PATH": {os.environ["PATH"]!r}}}
            print(repr(run_limited({argv!r}, {str(tmp_path)!r}, env, 120).output))
            """)
        return subprocess.Popen([sys.executable, "-c", script], **popen)

    def test_a_run_reads_none_of_its_callers_stdin(self, tmp_path):
        caller = self._caller(tmp_path, ["sh", "-c", "cat"],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        out, _ = caller.communicate(b"secret\n", timeout=60)
        assert (caller.returncode, out) == (0, b"''\n")

    def test_an_interrupted_run_kills_its_group(self, tmp_path):
        pid_file = tmp_path / "run.pid"
        caller = self._caller(tmp_path, ["sh", "-c", f'echo $$ > "{pid_file}"; exec sleep 60'],
                              stdin=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        run = None
        try:
            t0 = time.monotonic()
            while not (pid_file.exists() and pid_file.read_text().endswith("\n")):
                assert caller.poll() is None and time.monotonic() - t0 < 30, "no run started"
                time.sleep(0.02)
            run = int(pid_file.read_text())
            t0 = time.monotonic()
            caller.send_signal(signal.SIGINT)
            assert caller.wait(timeout=10) != 0
            assert time.monotonic() - t0 < 2
            with pytest.raises(ProcessLookupError):
                os.kill(run, 0)
        finally:
            if caller.poll() is None:
                caller.kill()
                caller.wait()
            if run is not None:
                try:
                    os.kill(run, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def test_a_run_raises_while_its_command_stops_and_runs_after(self, tmp_path):
        env = {"PATH": os.environ["PATH"]}
        with oracle_mod.stopping():
            with pytest.raises(oracle_mod.RunStopped):
                oracle_mod.run_limited(["echo", "stopped"], tmp_path, env, 10)
        assert oracle_mod.run_limited(["echo", "ok"], tmp_path, env, 10).output == "ok\n"

    @pytest.mark.skipif(shutil.which("setsid") is None, reason="setsid not installed")
    def test_an_escaped_grandchild_cannot_hold_a_timed_out_run(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        pid_file = tmp_path / "sleeper.pid"
        # the sleeper leaves the process group, and holds the output pipe
        _script(tree, "tool.sh", f"""\
            setsid sh -c 'echo $$ > "{pid_file}"; exec sleep 20' &
            sleep 20
            """)
        recipe = BuildRecipe.make(["cp tool.sh tool"], ["tool"])
        poc = PocSpec(command="{binary} {input}", input_file=_poc_file(tmp_path), run_timeout=1)
        oracle = Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch")
        t0 = time.monotonic()
        try:
            v = oracle.verdict(DiskTree(tree), recipe, poc)
            elapsed = time.monotonic() - t0
        finally:
            while not pid_file.exists() and time.monotonic() - t0 < 30:
                time.sleep(0.05)
            os.kill(int(pid_file.read_text()), signal.SIGKILL)
        assert elapsed < poc.run_timeout + oracle_mod.DRAIN_DEADLINE + 1
        assert (v.kind, v.transient) == (KIND_HANG, True)
        assert not list((tmp_path / "store").glob("*.json"))


DEMO_C = textwrap.dedent(
    """\
    #include <stdio.h>
    #include <stdlib.h>

    int main(int argc, char **argv) {
        if (argc < 2) { fprintf(stderr, "usage: demo FILE\\n"); return 64; }
        FILE *f = fopen(argv[1], "rb");
        if (!f) { perror("open"); return 1; }
        unsigned char buf[16];
        size_t n = fread(buf, 1, sizeof buf, f);
        fclose(f);
        if (n > 4) {
            printf("==1==ERROR: AddressSanitizer: heap-buffer-overflow on address 0x602000000014 at pc 0x401 bp 0x7ffd sp 0x7ffd\\n");
            printf("WRITE of size 1 at 0x602000000014 thread T0\\n");
            printf("    #0 0x401 in consume demo.c:13\\n");
            printf("SUMMARY: AddressSanitizer: heap-buffer-overflow demo.c:13 in consume\\n");
            printf("==1==ABORTING\\n");
            return 1;
        }
        printf("ok %zu bytes\\n", n);
        return 0;
    }
    """
)


def _demo_tree(tmp_path: Path) -> Path:
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "demo.c").write_text(DEMO_C)
    return tree


DEMO_RECIPE = BuildRecipe.make(["cc -O0 -o demo demo.c"], ["demo"])


def _demo_group(poc: PocSpec) -> str:
    """What a verdict key of a `DEMO_RECIPE` build holds but the tree."""
    return verdict_group(build_identity(DEMO_RECIPE, run_env(DEMO_RECIPE.env)), poc,
                         read_input(poc))


class TestOracle:
    def test_verdict_and_cache(self, tmp_path):
        tree = _demo_tree(tmp_path)
        long_input = tmp_path / "long.bin"
        long_input.write_bytes(b"x" * 8)
        poc = PocSpec(command="{binary} {input}", input_file=str(long_input))
        oracle = Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch")
        v1 = oracle.verdict(DiskTree(tree), DEMO_RECIPE, poc)
        assert v1.kind == KIND_TRIGGERED
        assert v1.detector_class == "heap-buffer-overflow"
        assert oracle.counters["builds"] == 1
        v2 = oracle.verdict(DiskTree(tree), DEMO_RECIPE, poc)
        assert v2.kind == KIND_TRIGGERED
        assert oracle.counters["cache_hits"] == 1
        assert oracle.counters["builds"] == 1  # no rebuild

    def test_short_input_not_triggered(self, tmp_path):
        tree = _demo_tree(tmp_path)
        short_input = tmp_path / "short.bin"
        short_input.write_bytes(b"xy")
        poc = PocSpec(command="{binary} {input}", input_file=str(short_input))
        oracle = Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch")
        v = oracle.verdict(DiskTree(tree), DEMO_RECIPE, poc)
        assert v.kind == KIND_NOT_TRIGGERED

    def test_worktree_is_never_mutated(self, tmp_path):
        tree = _demo_tree(tmp_path)
        before = tree_hash(DiskTree(tree))
        long_input = tmp_path / "long.bin"
        long_input.write_bytes(b"x" * 8)
        poc = PocSpec(command="{binary} {input}", input_file=str(long_input))
        Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch").verdict(DiskTree(tree), DEMO_RECIPE, poc)
        assert tree_hash(DiskTree(tree)) == before
        assert not (tree / "demo").exists()

    def test_build_failure_verdict(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "demo.c").write_text("int main(void){return\n")
        poc = PocSpec(command="{binary} {input}", input_file=str(tmp_path / "x"))
        v = Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch").verdict(DiskTree(tree), DEMO_RECIPE, poc)
        assert v.kind == KIND_BUILD_FAILED

    def test_verdict_serialization_excludes_transient(self):
        v = OracleVerdict(KIND_TRIGGERED, "SEGV", "trace", transient=True)
        d = v.to_dict()
        assert "transient" not in d
        assert OracleVerdict.from_dict(d).detector_class == "SEGV"


class TestTreeHash:
    def test_exec_bit_changes_the_hash(self, tmp_path):
        tree = _demo_tree(tmp_path)
        (tree / "build.sh").write_text("cc -o demo demo.c\n")
        before = tree_hash(DiskTree(tree))
        (tree / "build.sh").chmod(0o755)
        assert tree_hash(DiskTree(tree)) != before

    def test_symlink_target_changes_the_hash(self, tmp_path):
        tree = _demo_tree(tmp_path)
        (tree / "other.c").write_text(DEMO_C)
        (tree / "main.c").symlink_to("demo.c")
        before = tree_hash(DiskTree(tree))
        (tree / "main.c").unlink()
        (tree / "main.c").symlink_to("other.c")
        assert tree_hash(DiskTree(tree)) != before

    def test_file_and_symlink_with_one_content_differ(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        (a / "x").write_text("y")
        (b / "x").symlink_to("y")
        assert tree_hash(DiskTree(a)) != tree_hash(DiskTree(b))


class TestVerdictStore:
    def _long_poc(self, tmp_path):
        long_input = tmp_path / "input.bin"
        long_input.write_bytes(b"x" * 8)
        return PocSpec(command="{binary} {input}", input_file=str(long_input))

    def test_store_outlives_the_oracle(self, tmp_path):
        tree = _demo_tree(tmp_path)
        poc = self._long_poc(tmp_path)
        built = Oracle(tmp_path / "store", scratch_dir=tmp_path / "s1").verdict(
            DiskTree(tree), DEMO_RECIPE, poc)
        assert built.kind == KIND_TRIGGERED
        second = Oracle(tmp_path / "store", scratch_dir=tmp_path / "s2")
        assert second.verdict(DiskTree(tree), DEMO_RECIPE, poc).to_dict() == built.to_dict()
        assert second.counters == {"cache_hits": 1}

    def test_same_input_path_with_other_bytes_is_another_verdict(self, tmp_path):
        tree = _demo_tree(tmp_path)
        poc = self._long_poc(tmp_path)
        oracle = Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch")
        assert oracle.verdict(DiskTree(tree), DEMO_RECIPE, poc).kind == KIND_TRIGGERED
        Path(poc.input_file).write_bytes(b"xy")
        assert oracle.verdict(DiskTree(tree), DEMO_RECIPE, poc).kind == KIND_NOT_TRIGGERED
        assert oracle.counters["builds"] == 2
        assert "cache_hits" not in oracle.counters

    def test_missing_input_has_its_own_key(self, tmp_path):
        poc = self._long_poc(tmp_path)
        present = _demo_group(poc)
        Path(poc.input_file).unlink()
        assert _demo_group(poc) != present

    def test_sandbox_failure_is_not_stored(self, tmp_path, monkeypatch):
        tree = _demo_tree(tmp_path)
        runner_dir = tmp_path / "bin"
        runner_dir.mkdir()
        monkeypatch.setenv("PATH", f"{runner_dir}{os.pathsep}{os.environ['PATH']}")
        poc = PocSpec(command="revenant-test-runner {binary} {input}",
                      input_file=self._long_poc(tmp_path).input_file)
        oracle = Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch")
        assert oracle.verdict(DiskTree(tree), DEMO_RECIPE, poc).kind == KIND_SANDBOX_FAILURE
        # the cause goes away: the runner appears in a directory on PATH, so
        # the key is the same
        _script(runner_dir, "revenant-test-runner", 'exec "$@"\n')
        assert oracle.verdict(DiskTree(tree), DEMO_RECIPE, poc).kind == KIND_TRIGGERED
        assert oracle.counters["builds"] == 2
        assert oracle.verdict(DiskTree(tree), DEMO_RECIPE, poc).kind == KIND_TRIGGERED
        assert (oracle.counters["builds"], oracle.counters["cache_hits"]) == (2, 1)

    def test_build_timeout_is_not_stored(self, tmp_path):
        tree = _demo_tree(tmp_path)
        poc = self._long_poc(tmp_path)
        recipe = BuildRecipe.make(["sleep 2"], ["demo"], timeout=1)
        oracle = Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch")
        for builds in (1, 2):
            v = oracle.verdict(DiskTree(tree), recipe, poc)
            assert v.kind == KIND_BUILD_FAILED
            assert "BUILD TIMEOUT" in v.evidence
            assert oracle.counters["builds"] == builds
        assert "cache_hits" not in oracle.counters
        assert not list((tmp_path / "store").glob("*.json"))

    def test_build_spawn_failure_is_not_stored(self, tmp_path, monkeypatch):
        tree = _demo_tree(tmp_path)
        poc = self._long_poc(tmp_path)
        oracle = Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch")
        real_run = oracle_mod.run_limited
        monkeypatch.setattr(
            oracle_mod, "run_limited",
            lambda *a, **kw: oracle_mod.RunResult(-1, "", 0.0, False, spawn_error="EAGAIN"),
        )
        v = oracle.verdict(DiskTree(tree), DEMO_RECIPE, poc)
        assert (v.kind, v.transient) == (KIND_BUILD_FAILED, True)
        monkeypatch.setattr(oracle_mod, "run_limited", real_run)
        assert oracle.verdict(DiskTree(tree), DEMO_RECIPE, poc).kind == KIND_TRIGGERED
        assert "cache_hits" not in oracle.counters

    @pytest.mark.parametrize("hang_is_trigger,kind", [(False, KIND_HANG), (True, KIND_TRIGGERED)])
    def test_poc_timeout_is_not_stored(self, tmp_path, hang_is_trigger, kind):
        tree = tmp_path / "tree"
        tree.mkdir()
        _script(tree, "tool.sh", "sleep 5\n")
        recipe = BuildRecipe.make(["cp tool.sh tool"], ["tool"])
        poc = PocSpec(command="{binary} {input}", input_file=_poc_file(tmp_path),
                      run_timeout=0.3, hang_is_trigger=hang_is_trigger)
        oracle = Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch")
        assert [oracle.verdict(DiskTree(tree), recipe, poc).kind for _ in range(2)] == [kind] * 2
        assert oracle.counters["builds"] == 2
        assert "cache_hits" not in oracle.counters

    @pytest.mark.parametrize("body,kind,stored", [
        ("exit 2\n", KIND_NOT_TRIGGERED, True),
        ("sleep 0.3; exit 2\n", KIND_NOT_TRIGGERED, True),
        ('echo "usage: tool FILE"; exit 2\n', KIND_POC_INCOMPATIBLE, True),
        ("exit 1\n", KIND_NOT_TRIGGERED, True),
    ])
    def test_launch_window_verdicts_are_not_stored(self, tmp_path, body, kind, stored):
        tree = tmp_path / "tree"
        tree.mkdir()
        _script(tree, "tool.sh", body)
        recipe = BuildRecipe.make(["cp tool.sh tool"], ["tool"])
        poc = PocSpec(command="{binary} {input}", input_file=_poc_file(tmp_path))
        oracle = Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch")
        assert [oracle.verdict(DiskTree(tree), recipe, poc).kind for _ in range(2)] == [kind] * 2
        assert oracle.counters["builds"] == (1 if stored else 2)

    @pytest.mark.parametrize("name", ["PATH", "CC", "CFLAGS", "LD_LIBRARY_PATH"])
    def test_build_environment_is_keyed(self, tmp_path, monkeypatch, name):
        poc = self._long_poc(tmp_path)
        before = _demo_group(poc)
        monkeypatch.setenv(name, os.environ.get(name, "") + ":changed")
        assert _demo_group(poc) != before

    def test_unrelated_environment_is_not_keyed(self, tmp_path, monkeypatch):
        poc = self._long_poc(tmp_path)
        before = _demo_group(poc)
        monkeypatch.setenv("REVENANT_TEST_UNRELATED", "1")
        assert _demo_group(poc) == before

    def test_the_compiler_version_is_keyed(self, tmp_path, monkeypatch):
        poc = self._long_poc(tmp_path)
        bindir = tmp_path / "bin"
        bindir.mkdir()
        runs = tmp_path / "runs"
        shim = Path(_script(bindir, "cc", f'echo "shim cc 1.0"; echo run >> {shlex.quote(str(runs))}\n'))
        monkeypatch.setenv("PATH", f"{bindir}{os.pathsep}{os.environ['PATH']}")
        monkeypatch.delenv("CC", raising=False)
        before = _demo_group(poc)
        assert _demo_group(poc) == before
        assert runs.read_text() == "run\n"  # once per binary
        # an upgrade in place: the same file, rewritten
        inode = shim.stat().st_ino
        shim.write_text(shim.read_text().replace("1.0", "2.10"))
        assert shim.stat().st_ino == inode
        upgraded = _demo_group(poc)
        assert upgraded != before
        monkeypatch.setenv("REVENANT_TEST_UNRELATED", "1")
        assert _demo_group(poc) == upgraded

    def test_a_missing_compiler_keys_as_a_marker(self, tmp_path):
        env = {"PATH": str(tmp_path), "CC": "revenant-test-no-such-cc"}
        assert compiler_version(env) == NO_COMPILER
        assert compiler_version({"PATH": str(tmp_path)}) == NO_COMPILER

    def test_truncated_entry_and_leftover_tmp_are_misses(self, tmp_path):
        tree = _demo_tree(tmp_path)
        poc = self._long_poc(tmp_path)
        store = tmp_path / "store"
        oracle = Oracle(store, scratch_dir=tmp_path / "scratch")
        oracle.verdict(DiskTree(tree), DEMO_RECIPE, poc)
        [entry] = store.glob("*.json")
        whole = entry.read_text()
        # the tree's trace, kept where the slot records reads, would answer
        # it too: break it alike
        traces = {path: path.read_text() for path in store.glob("traces/*/*.json")}
        for path, text in [(entry, whole), *traces.items()]:
            path.write_text(text[: len(text) // 2])
        assert oracle.verdict(DiskTree(tree), DEMO_RECIPE, poc).kind == KIND_TRIGGERED
        assert oracle.counters["builds"] == 2
        assert entry.read_text() == whole  # the broken entry was overwritten
        assert {path: path.read_text() for path in traces} == traces
        # a crash between writing the temp files and renaming them
        for path in [entry, *traces]:
            path.rename(path.with_suffix(".tmp"))
        assert oracle.verdict(DiskTree(tree), DEMO_RECIPE, poc).kind == KIND_TRIGGERED
        assert oracle.counters["builds"] == 3
        assert entry.read_text() == whole
        assert "cache_hits" not in oracle.counters

    def test_concurrent_callers_build_a_key_once(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        _script(tree, "tool.sh", """\
            echo "==1==ERROR: AddressSanitizer: heap-buffer-overflow on address 0x1"
            exit 1
            """)
        # a slow build, so that every caller arrives while the first builds
        recipe = BuildRecipe.make(["sleep 0.5", "cp tool.sh tool"], ["tool"])
        poc = PocSpec(command="{binary} {input}", input_file=_poc_file(tmp_path))
        oracles = [Oracle(tmp_path / "store", scratch_dir=tmp_path / f"s{i}")
                   for i in range(4)]
        start = threading.Barrier(len(oracles))
        kinds = []

        def ask(oracle):
            start.wait()
            kinds.append(oracle.verdict(DiskTree(tree), recipe, poc).kind)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=ask, args=(o,)) for o in oracles]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert kinds == [KIND_TRIGGERED] * 4
        assert sum(o.counters.get("builds", 0) for o in oracles) == 1
        assert sum(o.counters.get("cache_hits", 0) for o in oracles) == 3

    def test_an_input_is_keyed_by_its_bytes_and_basename_not_its_dir(self, tmp_path):
        tree = _demo_tree(tmp_path)
        poc = self._long_poc(tmp_path)
        oracle = Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch")
        built = oracle.verdict(DiskTree(tree), DEMO_RECIPE, poc)
        (tmp_path / "moved").mkdir()
        moved = tmp_path / "moved" / "input.bin"
        moved.write_bytes(Path(poc.input_file).read_bytes())
        assert oracle.verdict(DiskTree(tree), DEMO_RECIPE,
                              replace(poc, input_file=str(moved))).to_dict() == built.to_dict()
        assert oracle.counters["builds"] == 1
        # some tools choose a format by the extension: another name is
        # another key
        renamed = moved.rename(moved.with_suffix(".dat"))
        assert oracle.verdict(DiskTree(tree), DEMO_RECIPE,
                              replace(poc, input_file=str(renamed))).kind == KIND_TRIGGERED
        assert oracle.counters["builds"] == 2

    def test_a_build_that_rewrites_the_input_cannot_change_its_verdict(self, tmp_path):
        tree = _demo_tree(tmp_path)
        poc = self._long_poc(tmp_path)  # long enough to trigger
        rewrite = BuildRecipe.make(
            [*DEMO_RECIPE.steps, f"printf xy > {shlex.quote(poc.input_file)}"],
            DEMO_RECIPE.artifact_paths,
        )
        oracle = Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch")
        built = oracle.verdict(DiskTree(tree), rewrite, poc)
        assert Path(poc.input_file).read_bytes() == b"xy"
        (tmp_path / "fresh").mkdir()
        original = tmp_path / "fresh" / "input.bin"
        original.write_bytes(b"x" * 8)
        fresh = Oracle(tmp_path / "fresh-store", scratch_dir=tmp_path / "fresh-scratch").verdict(
            DiskTree(tree), DEMO_RECIPE, replace(poc, input_file=str(original)))
        assert fresh.kind == KIND_TRIGGERED
        assert built.to_dict() == fresh.to_dict()
        # and the store keeps it under the original bytes
        Path(poc.input_file).write_bytes(b"x" * 8)
        assert oracle.verdict(DiskTree(tree), rewrite, poc).to_dict() == fresh.to_dict()
        assert (oracle.counters["builds"], oracle.counters["cache_hits"]) == (1, 1)

    # scratch dirs of other lengths, and inputs in other dirs; under the
    # PoC's LC_ALL=C, GNU cat quotes a missing path that holds a space as
    # '...', one that holds a quote as "...", and escapes a non-ASCII byte
    @pytest.mark.parametrize("other", ["longer-b", "with space", "é", "q'uote"])
    def test_evidence_names_no_slot(self, tmp_path, other):
        tree = tmp_path / "tree"
        tree.mkdir()
        _script(tree, "tool.sh", 'echo "$0 $1"\ncat "$1"\n')
        runs = BuildRecipe.make(["cp tool.sh tool"], ["tool"])
        fails = BuildRecipe.make(["pwd; exit 1"], ["tool"])
        seen = []
        for side in ("a", other):
            (tmp_path / side / "in").mkdir(parents=True)
            poc_input = tmp_path / side / "in" / "poc.bin"
            poc_input.write_bytes(b"payload\n")
            poc = PocSpec(command="{binary} {input}", input_file=str(poc_input))
            oracle = Oracle(tmp_path / side / "store", scratch_dir=tmp_path / side / "scratch")
            view = DiskTree(tree)
            verdicts = [oracle.verdict(view, runs, poc), oracle.verdict(view, fails, poc)]
            poc_input.unlink()
            verdicts.append(oracle.verdict(view, runs, poc))
            seen.append([v.to_dict() for v in verdicts])
        assert seen[0] == seen[1]
        ran, failed, missing = (d["evidence"] for d in seen[0])
        assert ran == "<slot>/tree/tool <slot>/poc/poc.bin\npayload\n"
        assert "\n<slot>/tree\n" in failed
        assert missing.startswith("<slot>/tree/tool <slot>/poc/poc.bin\ncat: <slot>/poc/poc.bin")
        assert not any(str(tmp_path) in e for e in (ran, failed, missing))


    def test_an_input_name_holding_a_space_stays_one_word(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        _script(tree, "tool.sh", 'echo "$# words"\ncat "$1"\n')
        poc_input = tmp_path / "po c.bin"
        poc_input.write_bytes(b"payload\n")
        poc = PocSpec(command="{binary} {input}", input_file=str(poc_input))
        v = Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch").verdict(
            DiskTree(tree), BuildRecipe.make(["cp tool.sh tool"], ["tool"]), poc)
        assert (v.kind, v.evidence) == (KIND_NOT_TRIGGERED, "1 words\npayload\n")


needs_make = pytest.mark.skipif(
    shutil.which("make") is None or shutil.which("cc") is None, reason="needs make and cc"
)

CRASH_SH = 'echo "==1==ERROR: AddressSanitizer: heap-buffer-overflow on address 0x1"\nexit 1\n'
CLEAN_SH = "echo clean\n"
SHELL_RECIPE = BuildRecipe.make(["sh build.sh"], ["tool"])

MAIN_C = textwrap.dedent(
    """\
    #include <stdio.h>
    int main(void) {
    #ifdef CRASH
        puts("==1==ERROR: AddressSanitizer: heap-buffer-overflow on address 0x1");
        return 1;
    #else
        puts("clean");
        return 0;
    #endif
    }
    """
)
MAKEFILE = "tool: main.o\n\tcc -o tool main.o\n\nmain.o: main.c\n\tcc $(CFLAGS) -c -o main.o main.c\n"
MAKE_RECIPE = BuildRecipe.make(["make -s"], ["tool"])


def _tree_of(root: Path, files: dict) -> Path:
    """Write a tree: each path maps to its text, or to ("link", target)."""
    root.mkdir(parents=True)
    for rel, spec in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(spec, tuple):
            path.symlink_to(spec[1])
        else:
            path.write_text(spec)
    return root


def _shell_tree(root: Path, build_sh: str, **extra) -> Path:
    files = {"build.sh": build_sh, "crash.sh": CRASH_SH, "clean.sh": CLEAN_SH}
    files.update(extra)
    return _tree_of(root, files)


class SlowTree(DiskTree):
    """A directory view whose `blobs` pauses before each file, as a slow
    disk or git may: the files of one sync straddle clock ticks."""

    def blobs(self, entries):
        for item in super().blobs(entries):
            time.sleep(0.02)
            yield item


class TestCounters:
    """An oracle counts one build per try and one launch per build step and
    PoC run that it starts."""

    def _verdict(self, tmp_path, oracle, tree, recipe):
        poc = PocSpec(command="sh {binary} {input}", input_file=_poc_file(tmp_path))
        return oracle.verdict(DiskTree(tree), recipe, poc).kind

    def _counted(self, oracle):
        return oracle.counters.get("builds"), oracle.counters.get("subprocess_launches")

    def test_a_two_step_build_and_its_poc_run(self, tmp_path):
        tree = _shell_tree(tmp_path / "a", "cp crash.sh tool\n")
        recipe = BuildRecipe.make(["sh build.sh", "test -e tool"], ["tool"])
        oracle = Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch")
        assert self._verdict(tmp_path, oracle, tree, recipe) == KIND_TRIGGERED
        assert self._counted(oracle) == (1, 3)

    def test_a_failing_first_step_starts_no_other(self, tmp_path):
        tree = _shell_tree(tmp_path / "a", "cp crash.sh tool\n")
        recipe = BuildRecipe.make(["false", "sh build.sh"], ["tool"])
        oracle = Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch")
        assert self._verdict(tmp_path, oracle, tree, recipe) == KIND_BUILD_FAILED
        assert self._counted(oracle) == (1, 1)

    def test_a_failure_in_a_used_slot_is_built_again_from_a_wiped_one(self, tmp_path):
        built = _shell_tree(tmp_path / "a", "cp crash.sh tool\n")
        broken = _shell_tree(tmp_path / "b", "exit 1\n")
        oracle = Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch")
        assert self._verdict(tmp_path, oracle, built, SHELL_RECIPE) == KIND_TRIGGERED
        assert self._counted(oracle) == (1, 2)
        assert self._verdict(tmp_path, oracle, broken, SHELL_RECIPE) == KIND_BUILD_FAILED
        assert self._counted(oracle) == (3, 4)

    def test_a_store_hit_does_not_wait_for_another_callers_build(self, tmp_path):
        stored = _shell_tree(tmp_path / "a", "cp crash.sh tool\n")
        slow = _shell_tree(tmp_path / "b", "cp clean.sh tool\n")
        started = tmp_path / "started"
        recipe = BuildRecipe.make([f"touch {shlex.quote(str(started))}", "sleep 2", "sh build.sh"],
                                  ["tool"])
        oracle = Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch")
        assert self._verdict(tmp_path, oracle, stored, SHELL_RECIPE) == KIND_TRIGGERED
        builder = threading.Thread(target=self._verdict, args=(tmp_path, oracle, slow, recipe))
        builder.start()
        try:
            deadline = time.monotonic() + 30
            while not started.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert started.exists()
            began = time.monotonic()
            assert self._verdict(tmp_path, oracle, stored, SHELL_RECIPE) == KIND_TRIGGERED
            waited = time.monotonic() - began
        finally:
            builder.join(60)
        assert not builder.is_alive()
        assert waited < 1.0  # the build still had most of its 2 s sleep to go
        assert (oracle.counters["builds"], oracle.counters["cache_hits"]) == (2, 1)


class TestBuildSlot:
    """Each test fails on a slot that copies changed files and keeps
    everything else: the slot must answer as a fresh copy would."""

    def _oracle(self, tmp_path):
        return Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch")

    def _poc(self, tmp_path):
        return PocSpec(command="sh {binary} {input}", input_file=_poc_file(tmp_path))

    def test_a_build_step_that_edits_a_tracked_file_is_undone(self, tmp_path):
        build_sh = "cp crash.sh tool\nsed -i s/AddressSanitizer/Nothing/ crash.sh\n"
        first = _shell_tree(tmp_path / "a", build_sh)
        second = _shell_tree(tmp_path / "b", build_sh, README="another tree\n")
        oracle, poc = self._oracle(tmp_path), self._poc(tmp_path)
        assert oracle.verdict(DiskTree(first), SHELL_RECIPE, poc).kind == KIND_TRIGGERED
        assert oracle.verdict(DiskTree(second), SHELL_RECIPE, poc).kind == KIND_TRIGGERED
        assert oracle.counters["builds"] == 2

    def test_a_stale_artifact_is_removed(self, tmp_path):
        makes_it = _shell_tree(tmp_path / "a", "cp crash.sh tool\n")
        stops = _shell_tree(tmp_path / "b", "true\n")
        oracle, poc = self._oracle(tmp_path), self._poc(tmp_path)
        assert oracle.verdict(DiskTree(makes_it), SHELL_RECIPE, poc).kind == KIND_TRIGGERED
        v = oracle.verdict(DiskTree(stops), SHELL_RECIPE, poc)
        assert v.kind == KIND_BUILD_FAILED
        assert "MISSING ARTIFACT: tool" in v.evidence

    @needs_make
    def test_a_new_build_identity_wipes_the_slot(self, tmp_path, monkeypatch):
        tree = _tree_of(tmp_path / "tree", {"Makefile": MAKEFILE, "main.c": MAIN_C})
        oracle = self._oracle(tmp_path)
        poc = PocSpec(command="{binary}", input_file=_poc_file(tmp_path))
        monkeypatch.delenv("CFLAGS", raising=False)
        assert oracle.verdict(DiskTree(tree), MAKE_RECIPE, poc).kind == KIND_NOT_TRIGGERED
        # make does not track CFLAGS: main.o would look up to date
        monkeypatch.setenv("CFLAGS", "-DCRASH")
        assert oracle.verdict(DiskTree(tree), MAKE_RECIPE, poc).kind == KIND_TRIGGERED
        monkeypatch.delenv("CFLAGS")
        other_recipe = BuildRecipe.make(["make -s"], ["tool"], timeout=600)
        assert oracle.verdict(DiskTree(tree), other_recipe, poc).kind == KIND_NOT_TRIGGERED
        assert oracle.counters["builds"] == 3

    @needs_make
    def test_content_a_b_a_still_recompiles(self, tmp_path):
        # every tree is written before the first build, so their files are
        # older than any object the slot builds
        crash = "#define CRASH 1\n" + MAIN_C
        a = _tree_of(tmp_path / "a", {"Makefile": MAKEFILE, "main.c": crash})
        b = _tree_of(tmp_path / "b", {"Makefile": MAKEFILE, "main.c": MAIN_C})
        a2 = _tree_of(tmp_path / "a2", {"Makefile": MAKEFILE, "main.c": crash, "README": "a\n"})
        oracle = self._oracle(tmp_path)
        poc = PocSpec(command="{binary}", input_file=_poc_file(tmp_path))
        kinds = [oracle.verdict(DiskTree(t), MAKE_RECIPE, poc).kind for t in (a, b, a2)]
        assert kinds == [KIND_TRIGGERED, KIND_NOT_TRIGGERED, KIND_TRIGGERED]

    def test_a_file_removed_from_the_tree_leaves_the_slot(self, tmp_path):
        build_sh = "if [ -e plugin.c ]; then cp crash.sh tool; else cp clean.sh tool; fi\n"
        with_plugin = _shell_tree(tmp_path / "a", build_sh, **{"plugin.c": "int x;\n"})
        without = _shell_tree(tmp_path / "b", build_sh)
        oracle, poc = self._oracle(tmp_path), self._poc(tmp_path)
        assert oracle.verdict(DiskTree(with_plugin), SHELL_RECIPE, poc).kind == KIND_TRIGGERED
        assert oracle.verdict(DiskTree(without), SHELL_RECIPE, poc).kind == KIND_NOT_TRIGGERED

    def test_a_path_changes_between_file_symlink_and_directory(self, tmp_path):
        build_sh = textwrap.dedent("""\
            if [ -d conf ]; then v=$(cat conf/value); else v=$(cat conf); fi
            if [ "$v" = crash ]; then cp crash.sh tool; else cp clean.sh tool; fi
            """)
        extra = {"conf.crash": "crash\n", "conf.clean": "clean\n"}
        kinds = [
            {"conf": "crash\n"},
            {"conf": ("link", "conf.clean")},
            {"conf/value": "crash\n"},
            {"conf": ("link", "conf.crash"), "conf.crash": "crash\n"},
            {"conf": "clean\n"},
            {"conf/value": ("link", "../conf.crash")},
        ]
        oracle, poc = self._oracle(tmp_path), self._poc(tmp_path)
        for i, files in enumerate(kinds):
            tree = _shell_tree(tmp_path / f"t{i}", build_sh, **{**extra, **files})
            clean = Oracle(tmp_path / f"clean{i}", scratch_dir=tmp_path / "scratch")
            expected = clean.verdict(DiskTree(tree), SHELL_RECIPE, poc).to_dict()
            clean.close()
            assert oracle.verdict(DiskTree(tree), SHELL_RECIPE, poc).to_dict() == expected, files
        assert oracle.counters["builds"] == len(kinds)

    @needs_make
    def test_a_retargeted_symlink_recompiles(self, tmp_path):
        # make follows the link to a source older than the object
        files = {"Makefile": MAKEFILE, "crash.c": "#define CRASH 1\n" + MAIN_C, "clean.c": MAIN_C}
        trees = [
            _tree_of(tmp_path / "a", {**files, "main.c": ("link", "crash.c")}),
            _tree_of(tmp_path / "b", {**files, "main.c": ("link", "clean.c")}),
            _tree_of(tmp_path / "c", {**files, "main.c": ("link", "crash.c"), "README": "c\n"}),
        ]
        oracle = self._oracle(tmp_path)
        poc = PocSpec(command="{binary}", input_file=_poc_file(tmp_path))
        kinds = [oracle.verdict(DiskTree(t), MAKE_RECIPE, poc).kind for t in trees]
        assert kinds == [KIND_TRIGGERED, KIND_NOT_TRIGGERED, KIND_TRIGGERED]

    def test_an_incremental_build_failure_is_retried_clean(self, tmp_path):
        first = _shell_tree(tmp_path / "a", "touch stamp\ncp crash.sh tool\n")
        # fails only on the leftovers of an earlier build
        stale = _shell_tree(tmp_path / "b", textwrap.dedent("""\
            if [ -e stamp ]; then echo "stale stamp"; exit 1; fi
            touch stamp
            cp crash.sh tool
            """))
        broken = _shell_tree(tmp_path / "c", textwrap.dedent("""\
            if [ -e stamp ]; then echo "incremental"; fi
            touch stamp
            echo "genuinely broken"; exit 1
            """))
        oracle, poc = self._oracle(tmp_path), self._poc(tmp_path)
        assert oracle.verdict(DiskTree(first), SHELL_RECIPE, poc).kind == KIND_TRIGGERED
        assert oracle.verdict(DiskTree(stale), SHELL_RECIPE, poc).kind == KIND_TRIGGERED
        assert oracle.counters["builds"] == 3  # the failed try, then the clean one
        v = oracle.verdict(DiskTree(broken), SHELL_RECIPE, poc)
        assert v.kind == KIND_BUILD_FAILED
        assert "genuinely broken" in v.evidence and "incremental" not in v.evidence
        assert oracle.counters["builds"] == 5
        # the store holds what the clean builds decided
        reader = Oracle(tmp_path / "store", scratch_dir=tmp_path / "reader")
        assert reader.verdict(DiskTree(stale), SHELL_RECIPE, poc).kind == KIND_TRIGGERED
        assert reader.verdict(DiskTree(broken), SHELL_RECIPE, poc).to_dict() == v.to_dict()
        assert reader.counters == {"cache_hits": 2}

    def test_close_removes_the_slot(self, tmp_path):
        tree = _shell_tree(tmp_path / "a", "cp crash.sh tool\n")
        oracle, poc = self._oracle(tmp_path), self._poc(tmp_path)
        assert not list((tmp_path / "scratch").iterdir())  # made on the first build
        oracle.verdict(DiskTree(tree), SHELL_RECIPE, poc)
        assert [p.name[:7] for p in (tmp_path / "scratch").iterdir()] == ["oracle-"]
        oracle.close()
        assert not list((tmp_path / "scratch").iterdir())
        # a closed oracle still answers, from a new slot
        other = _shell_tree(tmp_path / "b", "cp clean.sh tool\n")
        assert oracle.verdict(DiskTree(other), SHELL_RECIPE, poc).kind == KIND_NOT_TRIGGERED
        oracle.close()
        assert not list((tmp_path / "scratch").iterdir())

    def test_a_killed_runs_slot_is_reclaimed_by_the_next_slot(self, tmp_path):
        pid_file = tmp_path / "step.pid"
        hung = _shell_tree(tmp_path / "hung", f'echo $$ > "{pid_file}"\nexec sleep 60\n')
        paths = [str(Path(oracle_mod.__file__).parents[1]), str(Path(__file__).parent)]
        script = textwrap.dedent(f"""\
            import sys
            sys.path[:0] = {paths!r}
            from gitutil import DiskTree
            from revenant.oracle import Oracle, PocSpec
            from test_oracle import SHELL_RECIPE
            Oracle({str(tmp_path / "store")!r}, {str(tmp_path / "scratch")!r}).verdict(
                DiskTree({str(hung)!r}), SHELL_RECIPE,
                PocSpec(command="sh {{binary}} {{input}}", input_file={_poc_file(tmp_path)!r}))
            """)
        child = subprocess.Popen([sys.executable, "-c", script])
        step = None
        try:
            t0 = time.monotonic()
            while not (pid_file.exists() and pid_file.read_text().endswith("\n")):
                assert child.poll() is None and time.monotonic() - t0 < 30, "no build step ran"
                time.sleep(0.05)
            step = int(pid_file.read_text())
            child.kill()
            child.wait()
            assert [p.name[:7] for p in (tmp_path / "scratch").iterdir()] == ["oracle-"]
            oracle = self._oracle(tmp_path)
            tree = _shell_tree(tmp_path / "a", "cp crash.sh tool\n")
            assert oracle.verdict(DiskTree(tree), SHELL_RECIPE, self._poc(tmp_path)).kind == \
                KIND_TRIGGERED
            oracle.close()
            assert not list((tmp_path / "scratch").iterdir())
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            if step is not None:
                # a killed run's build step keeps running: kill its group
                try:
                    os.killpg(os.getpgid(step), signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def test_a_second_live_oracle_leaves_the_first_ones_slot(self, tmp_path):
        first, second = self._oracle(tmp_path), self._oracle(tmp_path)
        poc = self._poc(tmp_path)
        trees = [_shell_tree(tmp_path / f"t{k}", f"cp clean.sh tool\n# {k}\n") for k in range(3)]
        assert first.verdict(DiskTree(trees[0]), SHELL_RECIPE, poc).kind == KIND_NOT_TRIGGERED
        home = first._slot.home
        assert second.verdict(DiskTree(trees[1]), SHELL_RECIPE, poc).kind == KIND_NOT_TRIGGERED
        assert first.verdict(DiskTree(trees[2]), SHELL_RECIPE, poc).kind == KIND_NOT_TRIGGERED
        assert (first._slot.home, first.counters["builds"]) == (home, 2)
        assert len(list((tmp_path / "scratch").iterdir())) == 2
        first.close()
        second.close()
        assert not list((tmp_path / "scratch").iterdir())

    def test_a_fresh_slot_gives_every_tracked_file_one_mtime(self, tmp_path):
        tree = SlowTree(_shell_tree(tmp_path / "tree", "cp crash.sh tool\n",
                                    **{"src/x.c": "int x;\n", "link": ("link", "clean.sh")}))
        (tmp_path / "scratch").mkdir()
        slot = BuildSlot(tmp_path / "scratch")
        slot.sync(tree, SHELL_RECIPE, build_identity(SHELL_RECIPE, run_env(SHELL_RECIPE.env)))
        stats = [os.lstat(slot.root / rel) for rel, _, _ in tree.entries()]
        assert len(stats) == 5
        assert len({st.st_mtime_ns for st in stats}) == 1
        assert {st.st_atime_ns for st in stats} == {0}
        slot.close()

    def test_a_step_that_orders_two_tracked_files_by_mtime_builds(self, tmp_path):
        # stands in for a `gen.c: gen.y` make rule whose generator is missing
        build_sh = "[ gen.y -nt gen.c ] && exit 1\ncp crash.sh tool\n"
        tree = _shell_tree(tmp_path / "tree", build_sh, **{"gen.c": "int x;\n", "gen.y": "%%\n"})
        v = self._oracle(tmp_path).verdict(SlowTree(tree), SHELL_RECIPE, self._poc(tmp_path))
        assert v.kind == KIND_TRIGGERED

    def test_two_threads_share_one_oracle(self, tmp_path):
        # a slow build, so that the callers overlap
        build_sh = "sleep 0.2\ncp tool.sh tool\n"
        oracle, poc = self._oracle(tmp_path), self._poc(tmp_path)
        rounds = 3
        # trees differ in a file the build reads, so that no trace answers
        work = {
            KIND_TRIGGERED: [_tree_of(tmp_path / f"crash{r}", {
                "build.sh": build_sh, "tool.sh": CRASH_SH + f"# {r}\n"})
                for r in range(rounds)],
            KIND_NOT_TRIGGERED: [_tree_of(tmp_path / f"clean{r}", {
                "build.sh": build_sh, "tool.sh": CLEAN_SH + f"# {r}\n"})
                for r in range(rounds)],
        }
        start = threading.Barrier(2, timeout=30)
        answers = {kind: [] for kind in work}

        def ask(kind):
            for tree in work[kind]:
                start.wait()
                answers[kind].append(oracle.verdict(DiskTree(tree), SHELL_RECIPE, poc).kind)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=ask, args=(kind,), daemon=True) for kind in work]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert answers == {kind: [kind] * rounds for kind in work}
        assert oracle.counters["builds"] == 2 * rounds
        oracle.close()
        assert not list((tmp_path / "scratch").iterdir())


needs_atime = pytest.mark.skipif(not atimes_recorded(), reason="no atimes in the temp dir")


class TestTraces:
    """A stored trace answers a tree only if a build of it would give the
    same verdict.  Each hazard test asks one oracle for trees in turn and
    fails when the guard it names is removed: a trace would answer a tree
    whose fresh verdict differs."""

    def _poc(self, tmp_path):
        return PocSpec(command="sh {binary} {input}", input_file=_poc_file(tmp_path))

    def _replay(self, tmp_path, trees, recipe=SHELL_RECIPE):
        """One oracle's verdicts on `trees` in turn, each checked against a
        fresh oracle's on an empty store; returns that oracle."""
        oracle = Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch")
        poc = self._poc(tmp_path)
        for i, tree in enumerate(trees):
            clean = Oracle(tmp_path / f"clean{i}", scratch_dir=tmp_path / "scratch")
            want = clean.verdict(DiskTree(tree), recipe, poc).to_dict()
            clean.close()
            assert oracle.verdict(DiskTree(tree), recipe, poc).to_dict() == want, tree.name
        return oracle

    @needs_atime
    def test_a_tree_that_differs_in_an_unread_file_is_answered(self, tmp_path):
        trees = [_shell_tree(tmp_path / f"t{i}", "cp crash.sh tool\n", README=f"{i}\n")
                 for i in range(3)]
        oracle = self._replay(tmp_path, trees)
        assert oracle.counters["builds"] == 1
        assert oracle.counters["trace_hits"] == oracle.counters["cache_hits"] == 2
        [trace] = (tmp_path / "store").glob("traces/*/*.json")
        reads = [rel for rel, _, _ in json.loads(trace.read_text())["reads"]]
        assert reads == ["build.sh", "crash.sh"]

    @needs_atime
    def test_a_trace_hit_writes_nothing_and_makes_its_trace_the_newest(self, tmp_path):
        built, other, probed = [
            _shell_tree(tmp_path / f"t{i}", build_sh, README=f"{i}\n")
            for i, build_sh in enumerate(["cp crash.sh tool\n", "cp crash.sh tool\n# other\n",
                                          "cp crash.sh tool\n"])
        ]
        poc = self._poc(tmp_path)
        store = tmp_path / "store"
        first = Oracle(store, scratch_dir=tmp_path / "scratch")
        want = first.verdict(DiskTree(built), SHELL_RECIPE, poc).to_dict()
        [answering] = store.glob("traces/*/*.json")
        first.verdict(DiskTree(other), SHELL_RECIPE, poc)
        first.close()
        [newer] = set(store.glob("traces/*/*.json")) - {answering}
        os.utime(answering, ns=(0, 10**9))
        os.utime(newer, ns=(0, 2 * 10**9))
        files = sorted(store.rglob("*"))
        # the store holds no entry for `probed`, only the trace that matches it
        oracle = Oracle(store, scratch_dir=tmp_path / "scratch")
        hits = []
        for _ in range(2):
            assert oracle.verdict(DiskTree(probed), SHELL_RECIPE, poc).to_dict() == want
            hits.append((oracle.counters.get("cache_hits", 0),
                         oracle.counters.get("trace_hits", 0)))
        assert hits == [(1, 1), (2, 2)]
        assert "builds" not in oracle.counters
        assert sorted(store.rglob("*")) == files
        assert answering.stat().st_mtime_ns > newer.stat().st_mtime_ns
        oracle.close()

    @needs_atime
    def test_a_store_hit_creates_no_file_under_the_store(self, tmp_path):
        built, probed = [_shell_tree(tmp_path / f"t{i}", "cp crash.sh tool\n", README=f"{i}\n")
                         for i in range(2)]
        poc = self._poc(tmp_path)
        store = tmp_path / "store"
        first = Oracle(store, scratch_dir=tmp_path / "scratch")
        first.verdict(DiskTree(built), SHELL_RECIPE, poc)
        first.close()
        files = sorted(store.rglob("*"))
        assert any((store / "locks").iterdir())  # the build took its key's lock
        oracle = Oracle(store, scratch_dir=tmp_path / "scratch")
        oracle.verdict(DiskTree(built), SHELL_RECIPE, poc)  # its entry answers
        oracle.verdict(DiskTree(probed), SHELL_RECIPE, poc)  # the trace answers
        assert oracle.counters == {"cache_hits": 2, "trace_hits": 1}
        assert sorted(store.rglob("*")) == files
        oracle.close()

    @needs_atime
    def test_a_read_stays_recorded_until_the_slot_is_wiped(self, tmp_path, monkeypatch):
        # the second tree differs in build.sh alone: its sync writes that
        # file and leaves crash.sh, which the first build read, as it is
        trees = [_shell_tree(tmp_path / f"t{i}", f"cp crash.sh tool\n# {i}\n") for i in range(2)]
        oracle = Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch")
        poc = self._poc(tmp_path)
        assert oracle.verdict(DiskTree(trees[0]), SHELL_RECIPE, poc).kind == KIND_TRIGGERED
        root, utime, touched = str(oracle._slot.root), os.utime, []

        def spy(path, *args, **kwargs):
            rel = os.path.relpath(path, root)
            if not rel.startswith(".."):
                touched.append(rel)
            return utime(path, *args, **kwargs)

        monkeypatch.setattr(os, "utime", spy)
        assert oracle.verdict(DiskTree(trees[1]), SHELL_RECIPE, poc).kind == KIND_TRIGGERED
        monkeypatch.undo()
        assert touched == ["build.sh"]
        assert oracle.counters["builds"] == 2
        reads = [[rel for rel, _, _ in json.loads(trace.read_text())["reads"]]
                 for trace in (tmp_path / "store").glob("traces/*/*.json")]
        assert reads == [["build.sh", "crash.sh"]] * 2
        oracle.close()

    def test_a_read_in_an_earlier_incremental_build_counts(self, tmp_path):
        # (a) the read set is the union since the last wipe: the second
        # build reuses obj without reading main.src, which it depends on
        build_sh = ("if [ ! -e obj ] || [ main.src -nt obj ]; then cp main.src obj; fi\n"
                    "cp obj tool\n")
        trees = [
            _tree_of(tmp_path / "a", {"build.sh": build_sh + "# a\n", "main.src": CRASH_SH}),
            _tree_of(tmp_path / "b", {"build.sh": build_sh + "# b\n", "main.src": CRASH_SH}),
            _tree_of(tmp_path / "c", {"build.sh": build_sh + "# b\n", "main.src": CLEAN_SH}),
        ]
        oracle = self._replay(tmp_path, trees)
        assert oracle.counters["builds"] == 3

    def test_a_file_added_removed_or_renamed_misses(self, tmp_path):
        # (b) the listing digest: a wildcard lists names, reads no file
        build_sh = 'case "$(echo *.c)" in *b.c*) cp crash.sh tool;; *) cp clean.sh tool;; esac\n'
        variants = [
            {"a.c": "a\n"},
            {"a.c": "a\n", "b.c": "b\n"},  # added
            {"a.c": "a\n", "c.c": "b\n"},  # renamed
            {"b.c": "b\n"},  # removed
        ]
        trees = [_shell_tree(tmp_path / f"t{i}", build_sh, **files)
                 for i, files in enumerate(variants)]
        oracle = self._replay(tmp_path, trees)
        assert oracle.counters["builds"] == len(trees)

    def test_no_trace_without_atimes(self, tmp_path, monkeypatch):
        # (c) atimes that never move, as on a noatime mount: the canary
        # fails and the slot records no traces
        monkeypatch.setattr(oracle_mod, "_atime_ns", lambda path: 0)
        trees = [_shell_tree(tmp_path / "a", "cp tool.sh tool\n", **{"tool.sh": CRASH_SH}),
                 _shell_tree(tmp_path / "b", "cp tool.sh tool\n", **{"tool.sh": CLEAN_SH})]
        oracle = self._replay(tmp_path, trees)
        assert oracle.counters["builds"] == 2
        assert not list((tmp_path / "store").glob("traces/*/*.json"))

    def test_a_file_only_the_poc_reads_counts(self, tmp_path):
        # (d) the trace spans the PoC run as well as the build
        tool_sh = 'if [ "$(cat data.txt)" = crash ]; then sh crash.sh; else sh clean.sh; fi\n'
        trees = [_shell_tree(tmp_path / f"t{i}", "cp tool.sh tool\n",
                             **{"tool.sh": tool_sh, "data.txt": f"{data}\n"})
                 for i, data in enumerate(["crash", "clean"])]
        oracle = self._replay(tmp_path, trees)
        assert oracle.counters["builds"] == 2

    def test_a_mode_or_a_symlink_target_counts(self, tmp_path):
        # (e) `test -x` reads no file, and reading through a symlink marks
        # its target, not the link
        build_sh = ('if [ -x helper ] || [ "$(cat conf)" = crash ]; then cp crash.sh tool;'
                    " else cp clean.sh tool; fi\n")
        extra = {"helper": "true\n", "on.txt": "crash\n", "off.txt": "clean\n"}
        trees = []
        for i, (target, mode) in enumerate([("off.txt", 0o644), ("off.txt", 0o755),
                                            ("on.txt", 0o644), ("off.txt", 0o644)]):
            tree = _shell_tree(tmp_path / f"t{i}", build_sh, conf=("link", target), **extra)
            (tree / "helper").chmod(mode)
            trees.append(tree)
        oracle = self._replay(tmp_path, trees)
        assert oracle.counters["builds"] == 3  # the last is the first tree again


class TestCommitTree:
    """A commit plus edits held in memory keys and builds as a checkout of
    the commit with the same edits made on disk."""

    def _repo(self, tmp_path):
        rb = RepoBuilder(tmp_path / "repo")
        (rb.root / "src").mkdir()
        (rb.root / "main.c").symlink_to("src/demo.c")
        rb.commit({"src/demo.c": DEMO_C, "run.sh": "cc -o demo main.c\n",
                   "docs/a/b.txt": "nested\n", "crlf.txt": "one\r\ntwo\r\n"}, "base")
        (rb.root / "run.sh").chmod(0o755)
        rb.commit({}, "make run.sh executable")
        return rb

    def _edit(self, tree):
        tree.write("run.sh", "cc -O0 -o demo main.c\n")
        tree.delete("docs/a/b.txt")
        tree.write("docs/c/new.txt", "created\n")
        tree.write("crlf.txt", tree.read("crlf.txt") + "three\n")

    def test_edits_in_memory_match_edits_on_disk(self, tmp_path):
        rb = self._repo(tmp_path)
        view = CommitTree(CommitMemo(rb.root), "t1")
        self._edit(view)
        assert {path: mode for path, mode, _ in view.entries()}["run.sh"] == MODE_EXEC
        (tmp_path / "slots").mkdir()
        with checkout_worktree(rb.root, "t1", tmp_path / "wt") as wt:
            disk = DiskTree(wt.path)
            self._edit(disk)
            assert tree_hash(view) == tree_hash(disk)
            want = snapshot(wt.path)
            identity = build_identity(SHELL_RECIPE, run_env(SHELL_RECIPE.env))
            for source in (view, disk):
                slot = BuildSlot(tmp_path / "slots")
                slot.sync(source, SHELL_RECIPE, identity)
                assert snapshot(slot.root) == want
                # a build step overwrites a file no edit touched
                (slot.root / "src" / "demo.c").write_text("overwritten\n")
                slot.sync(source, SHELL_RECIPE, identity)
                assert snapshot(slot.root) == want
                slot.close()

    def test_a_stored_verdict_starts_no_cat_file(self, tmp_path, monkeypatch):
        rb = self._repo(tmp_path)
        memo = CommitMemo(rb.root)
        recipe = BuildRecipe.make(["cc -O0 -o demo main.c"], ["demo"])
        poc = PocSpec(command="{binary} {input}", input_file=_poc_file(tmp_path))
        started = []
        real = subprocess.Popen

        class Recording(real):
            def __init__(self, argv, *args, **kwargs):
                started.append(argv)
                super().__init__(argv, *args, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", Recording)
        first = Oracle(tmp_path / "store", scratch_dir=tmp_path / "s1")
        assert first.verdict(CommitTree(memo, "t1"), recipe, poc).kind == KIND_TRIGGERED
        assert sum("cat-file" in argv for argv in started) == 1
        started.clear()
        second = Oracle(tmp_path / "store", scratch_dir=tmp_path / "s2")
        assert second.verdict(CommitTree(memo, "t1"), recipe, poc).kind == KIND_TRIGGERED
        assert second.counters == {"cache_hits": 1}
        assert not any("cat-file" in argv for argv in started)
        first.close()

    def test_no_launch_passes_preexec_fn(self, tmp_path, monkeypatch):
        rb = self._repo(tmp_path)
        calls = []
        real = subprocess.Popen

        class Recording(real):
            def __init__(self, argv, *args, **kwargs):
                calls.append((argv, kwargs))
                super().__init__(argv, *args, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", Recording)
        monkeypatch.setattr(oracle_mod, "_compilers", {})  # run `cc --version` too
        recipe = BuildRecipe.make(["cc -O0 -o demo main.c"], ["demo"])
        poc = PocSpec(command="{binary} {input}", input_file=_poc_file(tmp_path))
        with CommitMemo(rb.root) as memo:
            oracle = Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch")
            assert oracle.verdict(CommitTree(memo, "t1"), recipe, poc).kind == KIND_TRIGGERED
            oracle.close()
        launched = [argv[0] for argv, _ in calls]
        assert launched.count("/bin/sh") == 2  # the build step and the PoC
        assert "git" in launched and len(launched) > 3
        assert [argv for argv, kwargs in calls if kwargs.get("preexec_fn") is not None] == []

    def test_a_sync_failing_mid_stream_reaps_git(self, tmp_path):
        rb = RepoBuilder(tmp_path / "repo")
        rb.commit({"README": "x\n"}, "base")

        def git(*args, stdin=""):
            return rb.git_input(stdin, *args).stdout.strip()

        blob = git("hash-object", "-w", "--stdin", stdin="text\n")
        # no file system takes a 300-byte name, so the slot cannot write it
        names = ["a.txt", "b.txt", "x" * 300, "z.txt"]
        listing = "".join(f"100644 blob {blob}\t{name}\n" for name in names)
        commit = git("commit-tree", git("mktree", stdin=listing), "-m", "long name")
        memo = CommitMemo(rb.root)
        tree = CommitTree(memo, commit)
        assert [path for path, _, _ in tree.entries()] == names
        oracle = Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch")
        with pytest.raises(OSError):
            oracle.verdict(tree, SHELL_RECIPE, PocSpec("sh {binary}", _poc_file(tmp_path)))
        # the stream cut short stopped the reader with its replies unread
        assert no_child_left()
        assert list(memo.blobs([blob, blob])) == [b"text\n", b"text\n"]
        oracle.close()
        memo.close()
        assert no_child_left()


OVERFLOW_C = textwrap.dedent(
    """\
    #include <stdlib.h>
    int main(int argc, char **argv) {
        (void)argv;
        char *p = malloc(4);
        p[4] = (char)argc;
        free(p);
        return 0;
    }
    """
)


def test_real_address_sanitizer(tmp_path):
    (tmp_path / "overflow.c").write_text(OVERFLOW_C)
    recipe = BuildRecipe.make(
        ["cc -fsanitize=address -g -O0 -o boom overflow.c"],
        ["boom"],
        sanitizer=SANITIZER_ASAN,
    )
    assert build_in_place(tmp_path, recipe) is None
    poc = PocSpec(command="{binary}", input_file="")
    v = run_poc_in_place([str(tmp_path / "boom")], poc, cwd=tmp_path, sanitizer=SANITIZER_ASAN)
    assert v.kind == KIND_TRIGGERED
    assert v.detector_class == "heap-buffer-overflow"


class TestPocEnvironment:
    def test_poc_sees_the_recipe_env(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        _script(tree, "tool.sh", """\
            if [ "$POC_MODE" = crash ]; then
                echo "==1==ERROR: AddressSanitizer: heap-buffer-overflow on address 0x1"
                exit 1
            fi
            echo "read $1"
            """)
        poc = PocSpec(command="{binary} {input}", input_file=_poc_file(tmp_path))
        steps = ["cp tool.sh tool"]
        oracle = Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch")
        view = DiskTree(tree)
        assert oracle.verdict(view, BuildRecipe.make(steps, ["tool"]), poc).kind == KIND_NOT_TRIGGERED
        crash = BuildRecipe.make(steps, ["tool"], env={"POC_MODE": "crash"})
        v = oracle.verdict(view, crash, poc)
        assert v.kind == KIND_TRIGGERED
        assert v.detector_class == "heap-buffer-overflow"

    def test_ambient_asan_log_path_does_not_hide_the_report(self, tmp_path, monkeypatch):
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "overflow.c").write_text(OVERFLOW_C)
        monkeypatch.setenv("ASAN_OPTIONS", f"log_path={tmp_path / 'asan'}")
        recipe = BuildRecipe.make(
            ["cc -fsanitize=address -g -O0 -o boom overflow.c"],
            ["boom"],
            sanitizer=SANITIZER_ASAN,
        )
        poc = PocSpec(command="{binary}", input_file="")
        v = Oracle(tmp_path / "store", scratch_dir=tmp_path / "scratch").verdict(
            DiskTree(tree), recipe, poc)
        assert v.kind == KIND_TRIGGERED
        assert not list(tmp_path.glob("asan*"))

    def test_recipe_asan_options_win_over_the_pin(self, monkeypatch):
        monkeypatch.setenv("ASAN_OPTIONS", "log_path=/dev/null")
        assert run_env(())["ASAN_OPTIONS"] == "log_path=stderr:abort_on_error=0"
        mine = (("ASAN_OPTIONS", "detect_leaks=0"),)
        assert run_env(mine)["ASAN_OPTIONS"] == "detect_leaks=0"

    @needs_make
    def test_ambient_makeflags_neither_change_a_verdict_nor_poison_the_store(
        self, tmp_path, monkeypatch
    ):
        tree = _tree_of(tmp_path / "tree", {"Makefile": MAKEFILE, "main.c": MAIN_C})
        poc = PocSpec(command="{binary}", input_file=_poc_file(tmp_path))
        store = tmp_path / "store"
        # make -n prints the commands without running them: no tool is built
        monkeypatch.setenv("MAKEFLAGS", "-n")
        first = Oracle(store, scratch_dir=tmp_path / "first")
        assert first.verdict(DiskTree(tree), MAKE_RECIPE, poc).kind == KIND_NOT_TRIGGERED
        monkeypatch.delenv("MAKEFLAGS")
        shared = Oracle(store, scratch_dir=tmp_path / "shared")
        assert shared.verdict(DiskTree(tree), MAKE_RECIPE, poc).kind == KIND_NOT_TRIGGERED
        assert shared.counters == {"cache_hits": 1}
        fresh = Oracle(tmp_path / "fresh-store", scratch_dir=tmp_path / "fresh")
        assert fresh.verdict(DiskTree(tree), MAKE_RECIPE, poc).kind == KIND_NOT_TRIGGERED

    def test_an_unrelated_ambient_variable_is_invisible_to_a_build_step(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REVENANT_TEST_UNRELATED", "1")
        monkeypatch.setenv("TZ", "Europe/Paris")
        recipe = BuildRecipe.make(["env > seen.txt"], ["seen.txt"], env={"MINE": "2"})
        assert build_in_place(tmp_path, recipe) is None
        seen = (tmp_path / "seen.txt").read_text().splitlines()
        assert not [line for line in seen if line.startswith("REVENANT_TEST_UNRELATED=")]
        assert {"LC_ALL=C", "TZ=UTC", "MINE=2"} <= set(seen)


@pytest.mark.slow
def test_real_valgrind(tmp_path):
    if shutil.which("valgrind") is None:
        pytest.skip("valgrind not installed")
    (tmp_path / "overflow.c").write_text(OVERFLOW_C)
    recipe = BuildRecipe.make(
        ["cc -g -O0 -o boom overflow.c"], ["boom"], sanitizer=SANITIZER_VALGRIND
    )
    assert build_in_place(tmp_path, recipe) is None
    poc = PocSpec(command="{binary}", input_file="", run_timeout=120)
    v = run_poc_in_place([str(tmp_path / "boom")], poc, cwd=tmp_path, sanitizer=SANITIZER_VALGRIND)
    assert v.kind == KIND_TRIGGERED
    assert v.detector_class == "invalid-write"
