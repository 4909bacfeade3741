"""In-memory spans around revenant's public functions.

`Tracer.install()` replaces each traced function in every `revenant`
module that holds a reference to it (so `porter.checkout_worktree` and
`gitio.checkout_worktree` are both covered) and each traced method on
its class.  Spans stay in memory; `uninstall()` restores the originals.

A span records its name, start, end, parent, case id and thread.  A
thread that opens a span with nothing open on its own stack parents it
under the innermost span open on the main thread, so the cases that
`revive --jobs N` runs in worker threads hang under their `cli.revive`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute or Class.method, span name)
TRACED = (
    ("revenant.gitio", "run_git", "gitio.run_git"),
    ("revenant.gitio", "resolve_ref", "gitio.resolve_ref"),
    ("revenant.gitio", "commit_diff", "gitio.commit_diff"),
    ("revenant.gitio", "commits_between", "gitio.commits_between"),
    ("revenant.gitio", "checkout_worktree", "gitio.checkout_worktree"),
    ("revenant.gitio", "Worktree.remove", "gitio.worktree_remove"),
    ("revenant.gitio", "revert_onto", "gitio.revert_onto"),
    ("revenant.oracle", "tree_hash", "oracle.tree_hash"),
    ("revenant.oracle", "Oracle.verdict", "oracle.verdict"),
    ("revenant.oracle", "build", "oracle.build"),
    ("revenant.oracle", "run_poc", "oracle.run_poc"),
    ("revenant.porter", "Porter.attempt", "porter.attempt"),
    ("revenant.porter", "Porter.revive", "porter.revive"),
    ("revenant.porter", "Porter.evaluate_tiers", "porter.evaluate_tiers"),
    ("revenant.porter", "find_breaking_commit", "porter.bisect"),
    ("revenant.porter", "derive_reverse_patch", "porter.derive_reverse_patch"),
    ("revenant.patchcore.applier", "apply_file_patch", "patchcore.apply_file_patch"),
    ("revenant.patchcore.split", "split_by_granularity", "patchcore.split"),
    ("revenant.categorize", "categorize_commit", "categorize.commit"),
    ("revenant.curation", "detect_conflicts", "curation.detect_conflicts"),
    ("revenant.curation", "emit_manifest", "curation.emit_manifest"),
    ("revenant.cli", "cmd_tiers", "cli.tiers"),
    ("revenant.cli", "cmd_revive", "cli.revive"),
    ("revenant.cli", "cmd_bisect", "cli.bisect"),
    ("revenant.cli", "cmd_categorize", "cli.categorize"),
    ("revenant.cli", "cmd_manifest", "cli.manifest"),
    ("revenant.cli", "cmd_report", "cli.report"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    case: str = ""
    thread: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return asdict(self)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.case = ""  # default case id for spans opened outside a revive
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- span bookkeeping --

    def _stack(self) -> List[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, case: Optional[str] = None) -> int:
        stack = self._stack()
        if stack:
            parent: Optional[int] = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        if case is None:
            case = self.spans[parent].case if parent is not None else self.case
        span = Span(name, time.perf_counter(), parent=parent, case=case,
                    thread=threading.get_ident())
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack().pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    # -- patching --

    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            case = _case_of(name, args)
            index = tracer.open(name, case)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                attrs = hook(args)
                result = fn(*args, **kwargs)
                tracer.spans[index].attrs.update(attrs(result))
                return result
            finally:
                tracer.close(index)

        wrapper.__traced__ = fn
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        homes = {m: importlib.import_module(m) for m, _, _ in TRACED}
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "revenant" or n.startswith("revenant.")) and m is not None]
        for module_name, attr, name in TRACED:
            home = homes[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, self._wrap(original, name))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    # -- analysis --

    def children(self) -> List[List[int]]:
        kids: List[List[int]] = [[] for _ in self.spans]
        for i, span in enumerate(self.spans):
            if span.parent is not None:
                kids[span.parent].append(i)
        return kids

    def self_times(self) -> List[float]:
        """Duration minus the part of it covered by child spans."""
        kids = self.children()
        out = []
        for i, span in enumerate(self.spans):
            covered = 0.0
            cursor = span.start
            for lo, hi in sorted((self.spans[k].start, self.spans[k].end) for k in kids[i]):
                lo, hi = max(lo, cursor), min(hi, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(span.duration - covered)
        return out

    def check(self, attempts: int) -> List[str]:
        """Problems with the recorded spans; empty when they are sound.

        Every span is closed and lies inside its parent; there is one
        attempt span per counted attempt; and the self times of a span's
        subtree sum to no more than its duration times the number of
        threads working in that subtree.
        """
        problems = []
        if any(s.end < s.start or s.end == 0.0 for s in self.spans):
            problems.append("unclosed span")
        for s in self.spans:
            if s.parent is not None:
                p = self.spans[s.parent]
                if s.start < p.start or s.end > p.end:
                    problems.append(f"{s.name} lies outside its parent {p.name}")
                    break
        spans_attempts = sum(1 for s in self.spans if s.name == "porter.attempt")
        if spans_attempts != attempts:
            problems.append(f"{spans_attempts} attempt spans for {attempts} attempts")
        selfs = self.self_times()
        kids = self.children()
        subtree_self = list(selfs)
        threads: List[set] = [{s.thread} for s in self.spans]
        # parents always precede their children, so a reverse sweep sums subtrees
        for i in range(len(self.spans) - 1, -1, -1):
            for k in kids[i]:
                subtree_self[i] += subtree_self[k]
                threads[i] |= threads[k]
            if subtree_self[i] > self.spans[i].duration * len(threads[i]) + 1e-6:
                problems.append(f"self times under {self.spans[i].name} exceed its wall time")
                break
        return problems


def _case_of(name: str, args: tuple) -> Optional[str]:
    # Porter.revive(self, cve, ...) names its case; everything else inherits
    if name == "porter.revive" and len(args) > 1:
        return str(args[1])
    return None


# A hook reads what it needs before the call and returns a function that
# turns the call's result into span attributes.


def _attempt_attrs(args):
    porter, ref, reverts = args[0], args[1], args[2]
    hits = porter.oracle.counters.get("cache_hits", 0)
    return lambda result: {
        "ref": ref,
        "reverts": len(reverts),
        "verdict": result.verdict.kind,
        "cache_hit": porter.oracle.counters.get("cache_hits", 0) > hits,
    }


def _verdict_attrs(args):
    oracle, recipe, poc = args[0], args[2], args[3]
    builds = oracle.counters.get("builds", 0)
    return lambda result: {
        "built": oracle.counters.get("builds", 0) > builds,
        "key": (recipe.stable_hash(), poc.stable_hash()),
        "kind": result.kind,
    }


_HOOKS = {
    "porter.attempt": _attempt_attrs,
    "oracle.verdict": _verdict_attrs,
    "oracle.tree_hash": lambda args: lambda result: {"tree": result},
    "categorize.commit": lambda args: lambda result: {
        "commit": args[1], "category": result.category,
    },
}
