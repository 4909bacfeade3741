"""Tests of the benchmark's own fixtures and tracer.

Run with `python3 -m pytest bench -q` from the repository root.
"""

import random
import subprocess

import pytest

import fixtures
import tracer as tracing
from revenant import gitio, porter
from revenant.forge import ARCHETYPES, BREAKERS, expected_outcome
from revenant.oracle import BuildRecipe, PocSpec
from revenant.porter import Limits, Porter


def _log(repo):
    out = subprocess.run(["git", "-C", str(repo), "log", "--reverse", "--format=%H %s"],
                         check=True, capture_output=True, text=True)
    return out.stdout.splitlines()


def _small_deep(root, seed, archetypes):
    return fixtures.forge_deep(root, seed, archetypes, noise_per_gap=2)


def _small_wide(root, seed, archetypes):
    return fixtures.forge_wide(root, seed, archetypes, jobs=1, noise_files=30, units=2)


@pytest.mark.parametrize("forge", [_small_deep, _small_wide], ids=["deep", "wide"])
def test_same_seed_gives_identical_commits(tmp_path, forge):
    a = forge(tmp_path / "a", 7, ["C2", "C5", "C1"])
    b = forge(tmp_path / "b", 7, ["C2", "C5", "C1"])
    c = forge(tmp_path / "c", 8, ["C2", "C5", "C1"])
    assert a.ledger() == b.ledger()
    assert _log(a.repo) == _log(b.repo)
    # the seed only changes the noise bytes, never the shape of the history
    assert c.target != a.target
    assert c.commit_count == a.commit_count


# deep: init, noise run, fix, (noise run, breaker) per archetype, noise run,
# with two commits a noise run; wide: init, fix and the breakers
@pytest.mark.parametrize("forge,length", [(_small_deep, 21), (_small_wide, 7)], ids=["deep", "wide"])
def test_ledger_matches_history_and_expected_outcome(tmp_path, forge, length):
    archetypes = ["C4", "C1", "C6", "C2", "C5"]
    fx = forge(tmp_path, 3, archetypes)
    log = _log(fx.repo)
    ids = [line.split()[0] for line in log]
    assert fx.commit_count == len(ids) == length
    assert ids[0] == fx.base and ids[-1] == fx.target
    positions = [ids.index(b["id"]) for b in fx.breakers]
    assert positions == sorted(positions) and ids.index(fx.fix) < positions[0]
    assert [b["archetype"] for b in fx.breakers] == archetypes
    for b in fx.breakers:
        message = next(line.split(" ", 1)[1] for line in log if line.startswith(b["id"]))
        assert message == BREAKERS[b["archetype"]][1]
    for budget in (3, 4, 5):
        final, reason, stack = expected_outcome(archetypes, [b["id"] for b in fx.breakers], budget)
        assert fx.expected(budget) == {"final": final, "abort_reason": reason, "revert_stack": stack}


def test_pick_archetypes_is_seeded_and_keeps_the_class_pattern():
    draws = {tuple(fixtures.pick_archetypes(random.Random(seed))) for seed in range(200)}
    assert tuple(fixtures.pick_archetypes(random.Random(5))) in draws
    assert len(draws) == 12  # ordered conflict pairs times the middle build breaker
    for draw in draws:
        assert len(set(draw)) == 4 and set(draw) <= set(ARCHETYPES)
        assert [a in fixtures.CONFLICT_CLASS for a in draw] == [True, False, True, False]
        assert draw[-1] == "C4"


def test_deep_fixture_revives_to_its_ledger(tmp_path):
    fx = _small_deep(tmp_path / "fx", 11, ["C6", "C4"])
    recipe = BuildRecipe.make(fx.steps, [fx.artifact], timeout=120)
    poc = PocSpec("{binary} -i {input}", str(fx.poc_file), "heap-buffer-overflow", 30.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        p = Porter(fx.repo, recipe, poc, limits=Limits(max_reverted_commits=4),
                   scratch_dir=tmp_path / "scratch")
        record = p.revive("CVE-0000-0001", "pack", [fx.fix], fx.target)
    finally:
        tracer.uninstall()
    want = fx.expected(4)
    assert {k: getattr(record, k) for k in want} == want
    assert tracer.check(p.attempt_count) == []
    attempts = [s for s in tracer.spans if s.name == "porter.attempt"]
    assert {"ref", "reverts", "verdict", "cache_hit"} <= set(attempts[0].attrs)
    assert all(s.case == "CVE-0000-0001" for s in tracer.spans)


def test_install_patches_every_reference_and_uninstall_restores():
    originals = (porter.checkout_worktree, gitio.checkout_worktree, porter.Porter.attempt)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert porter.checkout_worktree is gitio.checkout_worktree
        assert porter.checkout_worktree.__traced__ is originals[0]
        assert porter.Porter.attempt.__traced__ is originals[2]
    finally:
        tracer.uninstall()
    assert (porter.checkout_worktree, gitio.checkout_worktree, porter.Porter.attempt) == originals


def test_self_time_subtracts_covered_child_intervals():
    tracer = tracing.Tracer()
    outer = tracing.Span("outer", 0.0, 10.0)
    tracer.spans = [
        outer,
        tracing.Span("a", 1.0, 4.0, parent=0),
        tracing.Span("b", 3.0, 6.0, parent=0, thread=1),  # overlaps a
        tracing.Span("c", 2.0, 3.0, parent=1),
    ]
    assert tracer.self_times() == [5.0, 2.0, 3.0, 1.0]
    assert tracer.check(0) == []
    tracer.spans[3].end = 5.0  # child leaks past its parent
    assert any("outside" in p for p in tracer.check(0))


def test_unreaped_children_flags_a_child_until_it_is_waited_for():
    import run

    child = subprocess.Popen(["sleep", "0.2"])
    assert run.unreaped_children() is not None  # running
    child.wait()
    assert run.unreaped_children() is None
