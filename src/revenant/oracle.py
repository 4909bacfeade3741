"""Build a tree, run a proof-of-concept input, classify the outcome.

The oracle answers one question: does this tree, built this way and fed
this input, still exhibit the vulnerability's detector signal?  Answers
are five-valued (Triggered, NotTriggered, BuildFailed, PocIncompatible,
Hang) plus SandboxFailure for environment trouble, and are kept in an
on-disk store keyed by content hash, so a tree probed again, by any
oracle sharing the store, is never rebuilt.  The store also keeps, for
each built verdict, a trace of the tree files the build and the PoC
read, so a tree that agrees with it on those files and on its listing is
answered without a build.  Each build step and PoC run, like the
project's own test suite that curation runs, is one child process,
started cheaply (`run_limited`): `/bin/sh` sets its limits and execs it
in its own process group, under a wall-clock budget.  The PoC
input is keyed by its bytes and its basename, not by where it sits, and
the PoC runs on a copy of exactly those bytes.
"""

from __future__ import annotations

import codecs
import fcntl
import hashlib
import json
import os
import re
import shlex
import shutil
import signal
import stat
import subprocess
import tempfile
import threading
import time
import weakref
from contextlib import closing, contextmanager, suppress
from dataclasses import dataclass, asdict, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .gitio import MODE_EXEC, MODE_LINK, Entry

SANITIZER_ASAN = "AddressSanitizer"
SANITIZER_VALGRIND = "Valgrind"
SANITIZER_NONE = "None"

KIND_TRIGGERED = "Triggered"
KIND_NOT_TRIGGERED = "NotTriggered"
KIND_BUILD_FAILED = "BuildFailed"
KIND_POC_INCOMPATIBLE = "PocIncompatible"
KIND_HANG = "Hang"
KIND_SANDBOX_FAILURE = "SandboxFailure"

HANG_TRIGGER_CLASS = "memory-exhaustion-by-hang"

DEFAULT_LOG_TAIL = 4096
DEFAULT_EXCERPT_LINES = 30
# what evidence writes for what differs between runs of one verdict: the
# build slot's home (a stored verdict may come from any slot), a process id
# in a sanitizer's `==<pid>==` prefix, and an address of 6 or more hex
# digits (ASLR moves code, stack and heap)
SLOT_TOKEN = "<slot>"
PID_TOKEN = "==<pid>=="
ADDRESS_TOKEN = "0x<addr>"


@dataclass(frozen=True)
class BuildRecipe:
    steps: Tuple[str, ...]
    artifact_paths: Tuple[str, ...]
    env: Tuple[Tuple[str, str], ...] = ()
    sanitizer: str = SANITIZER_NONE
    timeout: int = 1200  # whole-build budget, seconds

    @staticmethod
    def make(steps, artifact_paths, env=None, **fields):
        """A recipe from lists and an env dict; `fields` (`sanitizer`,
        `timeout`) keep their defaults unless given."""
        return BuildRecipe(
            steps=tuple(steps),
            artifact_paths=tuple(artifact_paths),
            env=tuple(sorted((env or {}).items())),
            **fields,
        )

    def stable_hash(self) -> str:
        return _sha(json.dumps(asdict(self), sort_keys=True).encode())


@dataclass(frozen=True)
class PocSpec:
    command: str  # template with {binary} and {input} placeholders
    input_file: str
    expected_detector: str = ""  # empty means any detector hit counts
    run_timeout: float = 30.0
    hang_is_trigger: bool = False

    def stable_hash(self) -> str:
        return _sha(json.dumps(asdict(self), sort_keys=True).encode())

    def argv(self, binary: str) -> List[str]:
        """The command's words with `binary` and the input put in; split
        first, so a path holding a space or a quote stays one word."""
        return [w.format(binary=binary, input=self.input_file) for w in shlex.split(self.command)]


@dataclass
class OracleVerdict:
    kind: str
    detector_class: str = ""
    evidence: str = ""
    # decided by a clock or the environment rather than by the inputs (a
    # timeout or a spawn failure): a rerun may differ
    transient: bool = False

    def to_dict(self) -> dict:
        # transient is deliberately absent: serialized
        # verdicts must be byte-identical across reruns of the same inputs
        return {
            "kind": self.kind,
            "detector_class": self.detector_class,
            "evidence": self.evidence,
        }

    @staticmethod
    def from_dict(d: dict) -> "OracleVerdict":
        return OracleVerdict(
            kind=d["kind"],
            detector_class=d.get("detector_class", ""),
            evidence=d.get("evidence", ""),
        )


@dataclass(frozen=True)
class DetectorHit:
    weakness_class: str
    excerpt: str


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------- detector grammars ----------

RE_PID = re.compile(r"==\d+==")
RE_ADDRESS = re.compile(r"0x[0-9a-fA-F]{6,}")
# a report's PID, as the tool wrote it or as evidence writes it
_PID = rf"(?:{RE_PID.pattern}|{re.escape(PID_TOKEN)})"
RE_ASAN = re.compile(r"ERROR: AddressSanitizer:?\s+([A-Za-z0-9_-]+)")
RE_ASAN_END = re.compile(_PID + r"ABORTING|SUMMARY: AddressSanitizer")
RE_VALGRIND_INVALID = re.compile(_PID + r"\s+Invalid (read|write) of size \d+")
RE_VALGRIND_SIGNAL = re.compile(
    _PID + r"\s+Process terminating with default action of signal \d+ \(SIG([A-Z]+)\)"
)


def _excerpt(lines: List[str], start: int, stop_re: Optional[re.Pattern] = None) -> str:
    end = min(len(lines), start + DEFAULT_EXCERPT_LINES)
    if stop_re is not None:
        for k in range(start, end):
            if stop_re.search(lines[k]):
                end = k + 1
                break
    return "\n".join(lines[start:end])


def classify_detector_output(text: str) -> Optional[DetectorHit]:
    """Recognize a sanitizer or Valgrind error report in program output.

    Returns the weakness class and a bounded excerpt, or None if no
    recognizable report is present.  Clean runs, usage chatter, and
    ordinary test output all yield None.
    """
    lines = text.split("\n")
    for i, line in enumerate(lines):
        m = RE_ASAN.search(line)
        if m is not None:
            return DetectorHit(m.group(1), _excerpt(lines, i, RE_ASAN_END))
        m = RE_VALGRIND_INVALID.search(line)
        if m is not None:
            return DetectorHit(f"invalid-{m.group(1)}", _excerpt(lines, i))
        m = RE_VALGRIND_SIGNAL.search(line)
        if m is not None:
            return DetectorHit(m.group(1), _excerpt(lines, i))
    return None


# ---------- process running ----------


# Every build step, PoC run and project suite starts as
# `sh -c LIMITED LAUNCHER argv...`:
# the shell sets the limits and then execs argv in its place.  No Python
# code runs between fork and exec, so `subprocess` can vfork instead of
# copying the interpreter.  The limits: no core dumps, and output files of
# at most 1 GiB (`ulimit -f` counts 512-byte blocks), soft and hard; the
# address space is left alone because sanitizer runtimes reserve huge
# shadow mappings.  A limit the shell cannot set, or a program it cannot
# exec, is reported by the shell under its `$0`, LAUNCHER.  Like POSIX
# `exec`, the shell runs an executable without a `#!` line as a shell
# script, where exec(2) would fail with ENOEXEC.
LIMITED = 'ulimit -c 0 && ulimit -f 2097152 && exec "$@"'
LAUNCHER = "revenant-launch"
# how long the pipe may stay open after a timed-out run's process group is
# killed: a process that left the group can hold it for ever
DRAIN_DEADLINE = 1.0  # seconds


@dataclass
class RunResult:
    returncode: int
    output: str
    wall_time: float
    timed_out: bool
    spawn_error: str = ""


def _kill_group(proc: subprocess.Popen) -> None:
    with suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)


class RunStopped(KeyboardInterrupt):
    """A run killed, or refused a start, while its command stops
    (`stopping`)."""


# the runs in flight in this process, so that the thread Ctrl-C reaches
# can stop those that other threads started
_live_runs: Set[subprocess.Popen] = set()
_live_lock = threading.Lock()
_stopping = threading.Event()


def _check_stopping() -> None:
    if _stopping.is_set():
        raise RunStopped("the command is stopping")


@contextmanager
def stopping() -> Iterator[None]:
    """Kill the process group of every run in flight, and make each run
    that ends or starts within the block raise RunStopped, so that none
    gives a verdict.  Runs go on normally after the block."""
    _stopping.set()
    with _live_lock:
        live = list(_live_runs)
    for proc in live:
        _kill_group(proc)
    try:
        yield
    finally:
        _stopping.clear()


def run_limited(
    argv: List[str],
    cwd: Path,
    env: Dict[str, str],
    timeout: float,
) -> RunResult:
    """Run a command under the limits of `LIMITED`, with a wall-clock
    budget, in its own process group, reading /dev/null, and return its
    merged stdout and stderr.  A command that cannot be started, or whose
    limits cannot be set, gives `spawn_error`.  On a timeout the group is
    killed and what the pipe yields within `DRAIN_DEADLINE` is returned.
    A wait that anything else interrupts, such as KeyboardInterrupt,
    kills the group too, and the interruption propagates; so does a run
    that `stopping` kills, as RunStopped."""
    t0 = time.monotonic()
    try:
        proc = subprocess.Popen(
            ["/bin/sh", "-c", LIMITED, LAUNCHER, *argv],
            cwd=str(cwd),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
    except OSError as exc:
        return RunResult(-1, "", time.monotonic() - t0, False, spawn_error=str(exc))
    try:
        with _live_lock:
            _live_runs.add(proc)
        _check_stopping()  # after the add, so `stopping` kills it or we see the stop
        timed_out = False
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            timed_out = True
            _kill_group(proc)
            try:
                out, _ = proc.communicate(timeout=DRAIN_DEADLINE)
            except subprocess.TimeoutExpired as exc:
                out = exc.output  # all the pipe gave, over both waits
                proc.kill()  # in case it left its group, so the wait ends
                proc.stdout.close()
                proc.wait()
        _check_stopping()
    except BaseException:
        # the group is in its own session, so a terminal's SIGINT never
        # reached it: nothing would stop it after we are gone
        _kill_group(proc)
        proc.wait()
        proc.stdout.close()
        raise
    finally:
        with _live_lock:
            _live_runs.discard(proc)
    wall = time.monotonic() - t0
    text = out.decode("utf-8", errors="replace") if out else ""
    if proc.returncode != 0 and text.startswith(f"{LAUNCHER}:"):
        return RunResult(proc.returncode, "", wall, timed_out, spawn_error=text.strip())
    return RunResult(proc.returncode, text, wall, timed_out)


# the ambient variables a build and a PoC run see; the C compiler they
# resolve to is keyed by its `--version`
PASSED_ENV = ("PATH", "CC", "CXX", "CFLAGS", "CPPFLAGS", "LDFLAGS", "LD_LIBRARY_PATH")


def run_env(recipe_env: Iterable[Tuple[str, str]]) -> Dict[str, str]:
    """The whole environment a recipe's build and its PoC run under, which
    its verdict key holds whole: the ambient values of `PASSED_ENV`, a
    fixed locale and time zone, sanitizer reports pinned to stdout/stderr
    (an ambient log_path would turn Triggered into NotTriggered), and the
    recipe's own env, which wins over all of them.  Nothing else of the
    ambient environment is passed; a build that needs another variable
    declares it in its recipe."""
    env = {name: os.environ[name] for name in PASSED_ENV if name in os.environ}
    env.update(LC_ALL="C", TZ="UTC", ASAN_OPTIONS="log_path=stderr:abort_on_error=0")
    env.update(recipe_env)
    return env


def build(
    workdir: Path,
    recipe: BuildRecipe,
    count: Callable[[str], None],
    env: Dict[str, str],
    slot_home: str,
) -> Optional[OracleVerdict]:
    """Run the recipe's steps in order inside `workdir`, under `env` (the
    recipe's `run_env`), and `count` the build and each step started.

    None when every step exits zero within the shared budget and every
    declared artifact exists afterwards.  Otherwise the BuildFailed
    verdict, whose evidence is the log's tail, `_canonical` for
    `slot_home`; it is transient when the budget, a spawn failure or a
    timeout decided it.
    """
    workdir = Path(workdir)
    deadline = time.monotonic() + recipe.timeout
    log_parts: List[str] = []
    count("builds")

    def failed(why: str, transient: bool) -> OracleVerdict:
        log_parts.append(why)
        return OracleVerdict(KIND_BUILD_FAILED, evidence=_tail("\n".join(log_parts)),
                             transient=transient)

    for step in recipe.steps:
        budget = deadline - time.monotonic()
        if budget <= 0:
            return failed("BUILD TIMEOUT: budget exhausted before step ran", True)
        count("subprocess_launches")
        res = run_limited(["sh", "-c", step], cwd=workdir, env=env, timeout=budget)
        log_parts.append(f"$ {step}\n{_canonical(res.output, slot_home)}")
        if res.spawn_error:
            return failed(f"SPAWN FAILURE: {_canonical(res.spawn_error, slot_home)}", True)
        if res.timed_out:
            return failed(f"BUILD TIMEOUT after {res.wall_time:.1f}s in: {step}", True)
        if res.returncode != 0:
            return failed(f"step failed with exit {res.returncode}", False)
    for rel in recipe.artifact_paths:
        if not (workdir / rel).exists():
            return failed(f"MISSING ARTIFACT: {rel}", False)
    return None


def _tail(text: str, limit: int = DEFAULT_LOG_TAIL) -> str:
    return text[-limit:] if len(text) > limit else text


# One part of a file name as GNU tools quote it for the shell: '...' and
# "..." hold text as it is, $'...' C escapes (such as \303 for a byte that
# the C locale cannot print), and \' is a quote.
_SHELL_PART = re.compile(r"""'([^'\n]*)'|"([^"\n]*)"|\$'((?:\\.|[^'\\\n])*)'|\\(')""")


def _canonical(text: str, slot_home: str) -> str:
    """`text` as evidence: `slot_home` as `SLOT_TOKEN`, also where GNU
    tools quote a path under it (for a space in the path, or a quote or a
    byte that the C locale escapes in the slot home: `'<slot>/x y'` reads
    `<slot>/x y`, as from a slot whose path needs no quoting), each PID as
    `PID_TOKEN` and each address as `ADDRESS_TOKEN`.  Every child's output
    passes through it before any cut, so the evidence of slots with paths
    of other lengths, and of other runs, cuts alike."""

    def unquoted(word: re.Match) -> str:
        path = b"".join(
            (single + double + quote).encode() + codecs.escape_decode(escaped.encode())[0]
            for single, double, escaped, quote in _SHELL_PART.findall(word[0])
        ).decode("utf-8", "replace")
        return path if path.startswith(slot_home) else word[0]

    # a quoted path under the slot home opens with a quote, after any empty
    # '' that GNU puts first, and the home up to its first character that
    # quoting can change; a text holding none is not scanned
    head = re.match(r"[ -&(-~]*", slot_home)[0]
    if f"'{head}" in text or f'"{head}' in text:
        quoted = f"""(?:'')*(?=['"]{re.escape(head)})(?:{_SHELL_PART.pattern})+"""
        text = re.sub(quoted, unquoted, text)
    text = text.replace(slot_home, SLOT_TOKEN)
    return RE_ADDRESS.sub(ADDRESS_TOKEN, RE_PID.sub(PID_TOKEN, text))


_USAGE_PATTERNS = (
    re.compile(r"(?im)^\s*usage:"),
    re.compile(r"(?i)\b(invalid|unknown|unrecognized|illegal) option\b"),
    re.compile(r"(?i)\bmissing (required )?(argument|operand)\b"),
)


def looks_like_usage_error(text: str) -> bool:
    return any(p.search(text) for p in _USAGE_PATTERNS)


def run_poc(
    artifacts: List[str],
    poc: PocSpec,
    cwd: Path,
    env: Dict[str, str],
    sanitizer: str,
    count: Callable[[str], None],
    slot_home: str,
) -> OracleVerdict:
    """Execute the PoC command against the built artifacts under `env` and
    classify, and `count` the launch.  The evidence is `_canonical` for
    `slot_home`.

    Precedence: a detector report always wins (NotTriggered when
    `expected_detector` names another class); then a timeout, which is
    Hang, or Triggered by `HANG_TRIGGER_CLASS` under `hang_is_trigger`;
    then usage text, which means PocIncompatible; anything else is
    NotTriggered.  A verdict that a timeout decided is transient, and so
    is the SandboxFailure of a PoC that could not start.
    """
    binary = artifacts[0] if artifacts else ""
    if not binary or not Path(binary).exists():
        return OracleVerdict(
            KIND_POC_INCOMPATIBLE,
            evidence=_canonical(f"missing binary: {binary or '(no artifact)'}", slot_home),
        )
    argv = poc.argv(binary)
    if sanitizer == SANITIZER_VALGRIND:
        argv = ["valgrind", "-q", "--error-exitcode=96"] + argv
    count("subprocess_launches")
    res = run_limited(argv, cwd=cwd, env=env, timeout=poc.run_timeout)
    if res.spawn_error:
        return OracleVerdict(KIND_SANDBOX_FAILURE, evidence=_canonical(res.spawn_error, slot_home),
                             transient=True)

    output = _canonical(res.output, slot_home)
    hit = classify_detector_output(output)
    if hit is not None:
        missed = poc.expected_detector and hit.weakness_class != poc.expected_detector
        return OracleVerdict(KIND_NOT_TRIGGERED if missed else KIND_TRIGGERED,
                             hit.weakness_class, hit.excerpt, transient=res.timed_out)
    if res.timed_out:
        hang = (KIND_TRIGGERED, HANG_TRIGGER_CLASS) if poc.hang_is_trigger else (KIND_HANG, "")
        return OracleVerdict(*hang, f"no exit within {poc.run_timeout:.0f}s", transient=True)
    # usage text alone decides: an exit code or the time to exit would let
    # a loaded machine and an idle one disagree
    kind = KIND_POC_INCOMPATIBLE if looks_like_usage_error(output) else KIND_NOT_TRIGGERED
    return OracleVerdict(kind, evidence=_tail(output, 1024))


# ---------- content-addressed verdict store ----------

# Part of every store key.  Bump it when classification, the tree hash or
# the trace format changes, so that entries written by older code are
# never read.
STORE_SCHEMA = "verdict-store/7"
MISSING_INPUT = "missing"
NO_COMPILER = "no compiler"
TRACES_KEPT = 16  # traces a store keeps per build identity and PoC, newest first
LOCK_PREFIX = 2  # hex digits of a key that choose its lock file: 256 lock files


def tree_hash(tree) -> str:
    """Content hash of a tree view's `entries()`, as a `gitio.CommitTree`
    gives them.

    Each entry contributes its path, its mode (file, executable file or
    symlink) and its git object id, which stands for its bytes or its
    link target.  Trees that can build differently therefore never share
    a hash, and a commit with edits held in memory hashes as a checkout
    of it with the same edits made on disk.
    """
    h = hashlib.sha256()
    for rel, mode, oid in tree.entries():
        h.update(b"%s %s %s\x00" % (mode.encode(), oid.encode(), os.fsencode(rel)))
    return h.hexdigest()


def listing_digest(entries: Iterable[Entry]) -> str:
    """Digest of a tree's (path, mode) listing, without file contents: what
    a trace pins besides the files that were read, so that a file added,
    removed or renamed, or a changed mode, never matches."""
    h = hashlib.sha256()
    for rel, mode, _ in entries:
        h.update(b"%s %s\x00" % (mode.encode(), os.fsencode(rel)))
    return h.hexdigest()


_compilers: Dict[Tuple[object, ...], str] = {}
_compilers_lock = threading.Lock()


def compiler_version(env: Dict[str, str]) -> str:
    """First line of `--version` of the C compiler a build runs: `$CC`, or
    `cc` when it is unset, found on the build's PATH; `NO_COMPILER` when
    there is none.  Remembered per binary (the file the path resolves
    to, its size and mtime), so each binary runs at most once per process
    and one upgraded in place runs again."""
    argv = (env.get("CC") or "cc").split()
    found = shutil.which(argv[0], path=env.get("PATH", os.defpath))
    if found is None:
        return NO_COMPILER
    try:
        st = os.stat(found)  # follows symlinks to the real file
    except OSError:
        return NO_COMPILER
    memo_key = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, *argv[1:])
    with _compilers_lock:
        if memo_key not in _compilers:
            try:
                out = subprocess.run(
                    [found, *argv[1:], "--version"], env=env, stdin=subprocess.DEVNULL,
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=60,
                ).stdout
            except (OSError, subprocess.SubprocessError):
                return NO_COMPILER  # not remembered: a later call tries again
            _compilers[memo_key] = out.decode("utf-8", "replace").split("\n", 1)[0].strip()
        return _compilers[memo_key]


Identity = Tuple[str, List[Tuple[str, str]], str]


def build_identity(recipe: BuildRecipe, env: Dict[str, str]) -> Identity:
    """What a build depends on besides the tree: the recipe, the whole
    environment `env` it runs under (its `run_env`) and the C compiler's
    version.  Part of every verdict key, and what a build slot compares to
    decide whether its products can be reused."""
    return recipe.stable_hash(), sorted(env.items()), compiler_version(env)


def read_input(poc: PocSpec) -> Optional[bytes]:
    """The bytes of the PoC input, or None when it cannot be read."""
    try:
        return Path(poc.input_file).read_bytes()
    except OSError:
        return None


def verdict_group(identity: Identity, poc: PocSpec, data: Optional[bytes]) -> str:
    """Everything a verdict key holds but the tree: the schema, the build
    identity, the PoC spec with its input cut to its basename (some tools
    choose a format by the file's extension) and the digest of the input's
    bytes `data` (a fixed marker when there are none).  Where the input
    sits is not part of it, so cases whose PoCs hold the same bytes share
    verdicts and traces.  The store keeps traces per group."""
    spec = replace(poc, input_file=os.path.basename(poc.input_file))
    parts = [STORE_SCHEMA, identity, spec.stable_hash(),
             MISSING_INPUT if data is None else _sha(data)]
    return _sha(json.dumps(parts).encode())


def _keyed(group: str, tree: str) -> str:
    return _sha(f"{group} {tree}".encode())


class VerdictStore:
    """Verdicts on disk: one JSON file per key, plus traces.

    Every oracle that opens the same directory shares it, across threads
    and processes.  An entry holds `OracleVerdict.to_dict()` for one whole
    tree.  A trace, under `traces/<group>/<digest of its text>.json`,
    holds the verdict a build of some tree gave, the tree's
    `listing_digest` and the (path, mode, object id) of every file the
    build and the PoC read and of every symlink; it answers any tree in
    the group with the same listing and the same read entries.  A group
    keeps its newest `TRACES_KEPT` traces, and a trace that answers a
    tree is made the newest, so the traces dropped are those that stopped
    answering.  Entries and traces are written to a temp file, then
    renamed into place, so reading one takes no lock; one that cannot be
    read or parsed, or whose text is not its name's digest, counts as
    absent.  Each store object parses a trace once.  Deleting the
    directory clears the store.
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        (self.root / "locks").mkdir(parents=True, exist_ok=True)
        # trace file name -> (listing digest, read entries, verdict)
        self._parsed: Dict[str, Tuple[str, List[Entry], OracleVerdict]] = {}

    @contextmanager
    def locked(self, key: str) -> Iterator[None]:
        """Hold the key's lock, so that one holder at a time builds it.
        Keys share a fixed set of lock files, chosen by their first
        `LOCK_PREFIX` digits; two keys on one just take turns.  Locks do
        not nest."""
        lock = self.root / "locks" / f"{key[:LOCK_PREFIX]}.lock"
        fd = os.open(lock, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # releases the lock

    def get(self, key: str) -> Optional[OracleVerdict]:
        try:
            data = json.loads((self.root / f"{key}.json").read_text("utf-8"))
            return OracleVerdict.from_dict(data)
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def put(self, key: str, verdict: OracleVerdict) -> None:
        """Write the key's entry.  An oracle writes it only after building
        the key under the key's lock."""
        write_atomic(self.root / f"{key}.json", json.dumps(verdict.to_dict(), sort_keys=True))

    def match(self, group: str, entries: List[Entry]) -> Optional[OracleVerdict]:
        """The verdict of the newest trace in `group` that the tree with
        these entries agrees with, or None.  That trace's mtime is set to
        now, which makes it the group's newest."""
        paths = self._traces(group)
        if not paths:
            return None
        listing = listing_digest(entries)
        files = {rel: (mode, oid) for rel, mode, oid in entries}
        for path in paths:
            trace = self._trace(path)
            if trace is not None and trace[0] == listing and all(
                files.get(rel) == (mode, oid) for rel, mode, oid in trace[1]
            ):
                try:
                    os.utime(path)
                except OSError:
                    pass  # dropped since it was listed, or a store we may not write
                return replace(trace[2])
        return None

    def _trace(self, path: Path) -> Optional[Tuple[str, List[Entry], OracleVerdict]]:
        """The trace at `path`, parsed on its first read; None when it
        cannot be read or parsed, or its text is not its name's digest."""
        trace = self._parsed.get(path.name)
        if trace is None:
            try:
                text = path.read_bytes()
                if f"{_sha(text)}.json" != path.name:
                    return None
                data = json.loads(text)
                trace = (data["listing"], [(rel, mode, oid) for rel, mode, oid in data["reads"]],
                         OracleVerdict.from_dict(data["verdict"]))
            except (OSError, ValueError, KeyError, TypeError):
                return None
            self._parsed[path.name] = trace
        return trace

    def put_trace(self, group: str, entries: List[Entry], reads: List[Entry],
                  verdict: OracleVerdict) -> None:
        """Keep a trace: the tree with `entries`, reading `reads`, gave
        `verdict`.  Then drop the group's traces beyond the newest
        `TRACES_KEPT`."""
        trace = {
            "listing": listing_digest(entries),
            "reads": [list(entry) for entry in reads],
            "verdict": verdict.to_dict(),
        }
        text = json.dumps(trace, sort_keys=True)
        path = self.root / "traces" / group / f"{_sha(text.encode())}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, text)
        for old in self._traces(group)[TRACES_KEPT:]:
            try:
                old.unlink()
            except FileNotFoundError:
                pass  # another oracle dropped it first

    def _traces(self, group: str) -> List[Path]:
        """The group's trace files, newest first, listed by one scan."""
        found = []
        try:
            with os.scandir(self.root / "traces" / group) as scan:
                for entry in scan:
                    if entry.name.endswith(".json"):
                        try:
                            found.append((entry.stat().st_mtime_ns, entry.name, entry.path))
                        except FileNotFoundError:
                            continue
        except FileNotFoundError:
            return []
        return [Path(path) for _, _, path in sorted(found, reverse=True)]


def write_atomic(path: Path, text: str) -> Path:
    """Write `text` as UTF-8 to `path` through a temp file beside it, named
    for the writing process and thread, so that a reader sees the whole
    old file or the whole new one; return `path`.  A write that fails
    removes the temp file.  Makes no directory."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _remove(path: Path) -> None:
    """Delete whatever is at `path`, without following a symlink."""
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        return
    if stat.S_ISDIR(mode):
        shutil.rmtree(path)
    else:
        os.unlink(path)


def _lstat(path: str | Path) -> Optional[os.stat_result]:
    try:
        return os.lstat(path)
    except OSError:
        return None


def _stat_key(st: Optional[os.stat_result]) -> Optional[Tuple[int, ...]]:
    if st is None:
        return None
    return (st.st_mode, st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino)


def _atime_ns(path: str | Path) -> int:
    """The file's atime; -1, which counts as read, when it is gone."""
    st = _lstat(path)
    return -1 if st is None else st.st_atime_ns


def _records_reads(directory: Path) -> bool:
    """Whether reading a file in `directory` moves its atime from 0, as it
    does on a `relatime` or `strictatime` mount; not under `noatime` or a
    directory with `chattr +A`."""
    canary = directory / ".atime-canary"
    try:
        canary.write_bytes(b"canary\n")
        os.utime(canary, ns=(0, os.lstat(canary).st_mtime_ns))
        canary.read_bytes()
        return _atime_ns(canary) > 0
    finally:
        canary.unlink(missing_ok=True)


def _reclaim(scratch_dir: str) -> None:
    """Remove each slot home in `scratch_dir` whose lock no live slot
    holds: one that a killed run left.  flock is per open file, so a live
    slot in this process is skipped as one in another is."""
    for home in Path(scratch_dir).glob("oracle-*"):
        try:
            fd = os.open(home, os.O_RDONLY | os.O_DIRECTORY)
        except OSError:
            continue  # reclaimed by another oracle, or not a slot
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            shutil.rmtree(home, ignore_errors=True)
        except BlockingIOError:
            pass  # a live slot
        finally:
            os.close(fd)


def _release(home: str, fd: int) -> None:
    shutil.rmtree(home, ignore_errors=True)
    os.close(fd)  # drops the lock


class BuildSlot:
    """One staging tree that successive builds reuse.

    `sync` makes the slot hold a tree's files and touches only what
    differs: it writes each entry whose mode or object id changed, taking
    the contents from the tree one file at a time (a `gitio.CommitTree`
    streams them from git), deletes each path that left the tree, and
    leaves every other file, and every untracked build product, as it
    was.  The files one sync writes all get one mtime, later than the end
    of the slot's last build, so the build's own dependency tracking
    (make's timestamp checks) redoes what they affect, and no `-nt`
    between two of them rests on write order or on the clock.

    The slot stays as trustworthy as a fresh copy.  Each written file's
    `lstat` is recorded, and a file that a build or PoC step changed no
    longer matches it and is written again.  A declared artifact that the
    tree does not track is deleted before each build.  The slot is wiped
    when the build identity (recipe and run environment) differs from
    its last build's, when a symlink changes (make follows symlinks, so a
    retargeted one may look older than the objects built from it), and on
    request.

    The PoC input is written afresh before each PoC run to
    `<home>/poc/<basename>` (`place_input`), beside `root`, so neither the
    listing nor the read set sees it.

    The slot also records which tracked files were read, when the file
    system keeps atimes (`traces`, checked on a canary file when the slot
    is made).  `sync` gives each file it writes atime 0, keeping its
    mtime; after the build and the PoC run, `note_reads` adds each file
    whose atime rose from 0 to the slot's read set.  The set holds every
    read since the last wipe, because an incremental build reads only what
    it redoes, yet its products depend on what earlier builds read; so a
    file read once stays in it, and its atime is not reset.

    A slot holds an exclusive `flock` on its home until it is closed.
    Making a slot removes every sibling `oracle-*` home whose lock is free,
    so a run that was killed leaves its slot only until the next one.
    """

    def __init__(self, scratch_dir: Path):
        # absolute, so artifact paths still resolve from a build step's or
        # a PoC run's working directory; without symlinks, so it is also
        # the path a step's `pwd` prints, and evidence names it one way
        scratch = os.path.realpath(scratch_dir)
        _reclaim(scratch)
        # made and locked under a name the reclaim skips, then renamed: the
        # lock survives the rename, so no home is ever unlocked
        staged = tempfile.mkdtemp(prefix=".oracle-", dir=scratch)
        fd = os.open(staged, os.O_RDONLY | os.O_DIRECTORY)
        fcntl.flock(fd, fcntl.LOCK_EX)
        home = os.path.join(scratch, os.path.basename(staged)[1:])
        os.rename(staged, home)
        self.home = Path(home)
        self.root = self.home / "tree"
        # removes the slot's directory and then drops its lock when called,
        # or else when the slot is garbage-collected or the interpreter exits
        self.close = weakref.finalize(self, _release, home, fd)
        self.root.mkdir()
        self.traces = _records_reads(self.root)
        self.fresh = True  # nothing built since the last wipe
        self.built_ns = 0  # wall clock when the last build and PoC ended
        self._identity: Optional[Identity] = None
        # rel -> (mode, object id, slot _stat_key)
        self._files: Dict[str, Tuple[str, str, Optional[Tuple[int, ...]]]] = {}
        self._read: Set[str] = set()  # tracked paths read since the last wipe

    def wipe(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True, exist_ok=True)
        self._files.clear()
        self._read.clear()
        self._identity = None
        self.fresh = True

    def sync(self, tree, recipe: BuildRecipe, identity: Identity) -> None:
        """Make the slot hold the files of `tree` (a `gitio.CommitTree`),
        ready for `recipe`, whose `build_identity` is `identity`."""
        if identity != self._identity:
            self.wipe()
            self._identity = identity
        seen = set()
        changed = []
        for rel, mode, oid in tree.entries():
            seen.add(rel)
            known = self._files.get(rel)
            # a path with no record is written, whatever the slot holds there
            st = None if known is None else _lstat(self.root / rel)
            if known != (mode, oid, _stat_key(st)):
                changed.append((rel, mode, oid))
        gone = [rel for rel in self._files if rel not in seen]
        modes = [self._files[rel][0] for rel in gone]
        for rel, mode, _ in changed:
            modes += [mode, self._files.get(rel, ("",))[0]]
        if not self.fresh and MODE_LINK in modes:
            self.wipe()
            return self.sync(tree, recipe, identity)
        dirs: Set[str] = set()  # parents known to be real directories
        for rel in gone:
            if self._real_parents(rel, dirs):
                _remove(self.root / rel)
            del self._files[rel]
        mtime = 0  # the sync's one mtime: its first write's, or later
        with closing(tree.blobs(changed)) as contents:
            for (rel, mode, oid), data in contents:
                dst = self._write(rel, mode, data, dirs)
                mtime = mtime or max(os.lstat(dst).st_mtime_ns, self.built_ns + 1)
                # atime 0: not read yet
                os.utime(dst, ns=(0, mtime), follow_symlinks=False)
                self._files[rel] = (mode, oid, _stat_key(_lstat(dst)))
        for art in recipe.artifact_paths:
            rel = os.path.normpath(art)
            if rel in (".", "..") or os.path.isabs(rel) or rel.startswith("../"):
                continue  # not a path inside the slot
            if rel in seen or any(p.startswith(rel + "/") for p in seen):
                continue
            if self._real_parents(rel, dirs):
                _remove(self.root / rel)

    def place_input(self, input_file: str, data: Optional[bytes]) -> Path:
        """`<home>/poc/<basename of input_file>`, holding `data` in an
        otherwise empty directory; absent when `data` is None, so a PoC
        still meets a missing input.  Written on every run, because a PoC
        may edit its input or leave files beside it."""
        poc_dir = self.home / "poc"
        _remove(poc_dir)
        poc_dir.mkdir()
        path = poc_dir / os.path.basename(input_file)
        if data is not None:
            path.write_bytes(data)
        return path

    def note_reads(self) -> None:
        """Add the tracked files read since the sync to the read set."""
        if self.traces:
            root = str(self.root)  # a string join costs less than a Path's
            self._read.update(
                rel for rel, (mode, _, _) in self._files.items()
                if rel not in self._read and mode != MODE_LINK
                and _atime_ns(f"{root}/{rel}") != 0
            )

    def reads(self, tree) -> Optional[List[Entry]]:
        """The entries of `tree`, which the slot holds, that a build or PoC
        run since the last wipe read, and every symlink, which is read
        through without its own atime moving; None if the slot records no
        reads."""
        if not self.traces:
            return None
        return [e for e in tree.entries() if e[1] == MODE_LINK or e[0] in self._read]

    def _real_parents(self, rel: str, dirs: Set[str], make: bool = False) -> bool:
        """Whether every parent of `rel` is a real directory in the slot, so
        that a path operation stays inside it.  With `make`, replace what
        is in the way by directories."""
        parts = rel.split("/")[:-1]
        for i in range(1, len(parts) + 1):
            sub = "/".join(parts[:i])
            if sub in dirs:
                continue
            path = self.root / sub
            try:
                is_dir = stat.S_ISDIR(os.lstat(path).st_mode)
            except FileNotFoundError:
                is_dir = None
            if not is_dir:
                if not make:
                    return False
                if is_dir is not None:
                    os.unlink(path)
                path.mkdir()
            dirs.add(sub)
        return True

    def _write(self, rel: str, mode: str, data: bytes, dirs: Set[str]) -> Path:
        self._real_parents(rel, dirs, make=True)
        dst = self.root / rel
        _remove(dst)
        if mode == MODE_LINK:
            os.symlink(os.fsdecode(data), dst)
        else:
            dst.write_bytes(data)
            os.chmod(dst, 0o755 if mode == MODE_EXEC else 0o644)
        return dst


class Oracle:
    """Verdict runner with a verdict store, a build slot and call counters.

    Verdicts are kept in the store at `store_dir`.  A `transient` verdict
    (a SandboxFailure, or one a timeout decided) is never kept, so a later
    call retries it.  Oracles that share a store build each key once: a
    miss takes the key's lock and asks the store again under it, so the
    first caller builds while holding the lock, and later ones wait and
    read.

    A verdict is asked for a `gitio.CommitTree` (a commit plus edits held
    in memory).  Its key holds `tree_hash`, so a stored verdict costs no
    git blob read.  A tree whose key is not stored is answered by a stored
    trace when it agrees with the trace's tree on its listing and on every
    file that tree's build and PoC run read (`VerdictStore.match`).  The
    store is asked without a lock, and a hit, exact or traced, takes no
    lock and creates no file.  A verdict never mutates the tree it is given:
    the build and the PoC run happen in the oracle's `BuildSlot`,
    `oracle-<suffix>/tree` under `scratch_dir`, made on the first build
    and removed by `close()`, or, after a killed run, by the next slot
    made there; it is the only place the tree's files are written.  Each
    build there redoes only what the tree's changes affect; a build that
    fails in a slot that built before is retried once from a wiped slot,
    so a stale product never decides a `BuildFailed`.  The PoC input is
    read once per verdict: its bytes go into the key and are what the PoC
    runs on, from a copy in the slot, so a build that rewrites the input
    cannot change them.  Evidence is `_canonical`: it names the slot's
    home `SLOT_TOKEN`, and no PID or address.  A verdict that is not
    transient is kept under its key and, when the slot records reads, as
    a trace.

    `counters` holds `builds`, `cache_hits` (verdicts the store answered)
    and, of those, `trace_hits` (answered by a trace), besides the
    launches and the build-and-run calls (`verdicts`).

    An oracle is meant for one caller at a time.  Concurrent callers are
    safe but take turns: a lock, taken only while the key's lock is held,
    serializes the slot's sync, build and PoC run; a store hit takes only
    the counters' own lock.
    """

    def __init__(self, store_dir: Path, scratch_dir: Path):
        self.counters: Dict[str, int] = {}
        self.store = VerdictStore(store_dir)
        self.scratch_dir = Path(scratch_dir)
        self.scratch_dir.mkdir(parents=True, exist_ok=True)
        self._slot: Optional[BuildSlot] = None
        self._lock = threading.Lock()
        self._count_lock = threading.Lock()

    def close(self) -> None:
        """Remove the build slot; a later verdict makes a new one."""
        with self._lock:
            if self._slot is not None:
                self._slot.close()
                self._slot = None

    def _count(self, *names: str) -> None:
        with self._count_lock:
            for name in names:
                self.counters[name] = self.counters.get(name, 0) + 1

    def verdict(self, tree, recipe: BuildRecipe, poc: PocSpec) -> OracleVerdict:
        env = run_env(recipe.env)
        identity = build_identity(recipe, env)
        data = read_input(poc)
        group = verdict_group(identity, poc, data)
        key = _keyed(group, tree_hash(tree))
        stored = self._stored(key, group, tree)
        if stored is not None:
            return stored
        with self.store.locked(key):
            stored = self._stored(key, group, tree)  # built while this one waited
            if stored is not None:
                return stored
            with self._lock:
                verdict = self._build_and_run(tree, recipe, poc, data, env, identity)
                reads = None if verdict.transient else self._slot.reads(tree)
            if not verdict.transient:
                self.store.put(key, verdict)
                if reads is not None:
                    self.store.put_trace(group, tree.entries(), reads, verdict)
        return verdict

    def _stored(self, key: str, group: str, tree) -> Optional[OracleVerdict]:
        """The store's verdict on the tree, from its entry or a trace,
        counted as a hit; None when it has none."""
        stored = self.store.get(key)
        if stored is not None:
            self._count("cache_hits")
            return stored
        stored = self.store.match(group, tree.entries())
        if stored is not None:
            self._count("cache_hits", "trace_hits")
        return stored

    def _build_and_run(self, tree, recipe: BuildRecipe, poc: PocSpec, data: Optional[bytes],
                       env: Dict[str, str], identity: Identity) -> OracleVerdict:
        self._count("verdicts")
        if self._slot is None:
            self._slot = BuildSlot(self.scratch_dir)
        slot = self._slot
        home = str(slot.home)
        try:
            slot.sync(tree, recipe, identity)
            failed = build(slot.root, recipe, self._count, env, home)
            if failed is not None and not failed.transient and not slot.fresh:
                # a product of an earlier build may be to blame: only a
                # clean build may decide BuildFailed
                slot.wipe()
                slot.sync(tree, recipe, identity)
                failed = build(slot.root, recipe, self._count, env, home)
            slot.fresh = False
            if failed is not None:
                slot.note_reads()
                if failed.transient:
                    slot.wipe()  # a killed build may leave half-written products
                return failed
            copy = slot.place_input(poc.input_file, data)
            verdict = run_poc(
                [str(slot.root / rel) for rel in recipe.artifact_paths],
                replace(poc, input_file=str(copy)),
                cwd=slot.root,
                env=env,
                sanitizer=recipe.sanitizer,
                count=self._count,
                slot_home=home,
            )
            slot.note_reads()
            return verdict
        except BaseException:
            slot.wipe()  # a sync or build cut short leaves the slot unknown
            raise
        finally:
            slot.built_ns = time.time_ns()
