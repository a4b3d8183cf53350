"""solve's restarts in forked worker processes: the same result as in
process, bit for bit, errors that keep their type, workers that freeze
the objects they inherit, no child left behind, also when the parent is
killed, and small solves that never start a pool."""

import gc
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from privpart import (
    DependencyHypergraph,
    DisclosureModel,
    Instance,
    InstanceError,
    SearchParams,
    SynthConfig,
    build_location_instance,
    generate_instance,
    ingest_checkins,
    random_small_instance,
    solve,
    synthetic_checkin_lines,
    validate_instance,
)
from privpart import heuristics


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(heuristics, "_restart_workers", lambda instance, params: workers)


def _synth(num_entries, k, aggregation="worst"):
    return validate_instance(generate_instance(
        SynthConfig(num_entries=num_entries, num_properties=40, k=k, t=2, seed=7),
        model=DisclosureModel("linear", aggregation)))


def _location():
    lines, friends = synthetic_checkin_lines(num_users=40, num_edges=60, num_entries=300, seed=3)
    return build_location_instance(ingest_checkins(lines).entries, friends, k=4, t=2, seed=3)


def _tied():
    # Equal utility weights and no property: every restart ends with one
    # adversary per entry and the same value, but the draws pick
    # different adversaries.
    return validate_instance(Instance(DependencyHypergraph(250, []), np.full((250, 4), 0.5),
                                      k=4, t=1, model=DisclosureModel("step", "worst")))


def _same(a, b):
    assert np.array_equal(a.assignment.bits, b.assignment.bits)
    assert a.objective == b.objective
    assert a.iterations == b.iterations
    assert a.seed_used == b.seed_used


@pytest.mark.parametrize("make, params", [
    (lambda: _synth(200, 10), SearchParams("grasp", "global", n=5, r=3, seed=11)),
    (lambda: _synth(300, 5, "average"), SearchParams("grasp", "global", n=5, r=5, seed=2)),
    (_location, SearchParams("grasp", "myopic", n=3, r=4, seed=5)),
    (_tied, SearchParams("grasp", "global", n=5, r=4, seed=1)),
], ids=["global-worst", "global-average", "myopic-cosine", "tied"])
def test_forked_restarts_equal_in_process_bitwise(monkeypatch, make, params):
    inst = make()
    assert params.r * inst.num_entries * inst.k >= heuristics.FAN_OUT_CELLS
    _force_workers(monkeypatch, 1)
    here = solve(inst, params)
    _force_workers(monkeypatch, 2)
    forked = solve(inst, params)
    _same(here, forked)
    assert multiprocessing.active_children() == []


def test_tied_restarts_keep_the_first_best():
    inst = _tied()
    params = SearchParams("grasp", "global", n=5, r=4, seed=1)
    streams = np.random.SeedSequence(params.seed).spawn(params.r)
    runs = [heuristics._restart(inst, params, streams, rep) for rep in range(params.r)]
    assert len({value for _, value, _ in runs}) == 1
    assert len({bits.tobytes() for _, _, bits in runs}) > 1
    assert np.array_equal(solve(inst, params).assignment.bits, runs[0][2])


def test_worker_error_keeps_its_type_and_leaves_no_child(monkeypatch):
    def broken(*args, **kwargs):
        raise InstanceError("construction failed in a worker")

    monkeypatch.setattr(heuristics, "construction", broken)
    _force_workers(monkeypatch, 2)
    with pytest.raises(InstanceError, match="construction failed in a worker"):
        solve(_synth(200, 10), SearchParams("grasp", "global", n=5, r=3, seed=1))
    assert multiprocessing.active_children() == []
    assert threading.active_count() == 1


def test_workers_freeze_the_objects_they_inherit(monkeypatch):
    # A worker's full collection must not walk, and so copy, the pages of
    # the parent's heap. Each stub restart reports its worker's frozen
    # object count as its move count.
    def restart(instance, params, streams, rep):
        bits = np.zeros((instance.num_entries, instance.k), dtype=bool)
        return gc.get_freeze_count(), float(rep), bits

    monkeypatch.setattr(heuristics, "_restart", restart)
    _force_workers(monkeypatch, 2)
    inst = _synth(200, 10)
    assert solve(inst, SearchParams("grasp", "global", n=5, r=2, seed=1)).iterations > 1000
    _force_workers(monkeypatch, 1)
    assert solve(inst, SearchParams("grasp", "global", n=5, r=2, seed=1)).iterations == 0
    assert gc.get_freeze_count() == 0


def test_worker_count_is_bounded_by_restarts_and_usable_cpus():
    cpus = len(os.sched_getaffinity(0))
    inst = _synth(200, 10)
    for r in (1, 2, 3, 10**6):  # the helper alone: no pool is started here
        assert heuristics._restart_workers(inst, SearchParams("grasp", r=r)) == min(r, cpus)


def test_a_threaded_process_does_not_fork():
    inst = _synth(200, 10)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert heuristics._restart_workers(inst, SearchParams("grasp", r=4)) == 1
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()


@pytest.mark.parametrize("inst, params", [
    (_synth(200, 10), SearchParams("grasp", "global", n=5, r=1, seed=3)),
    (random_small_instance(31), SearchParams("grasp", "myopic", n=2, r=2, seed=3)),
    (random_small_instance(32), SearchParams("grasp", "global", n=2, r=2, seed=3)),
], ids=["r1", "desk-myopic-r2", "desk-global-r2"])
def test_small_solves_stay_in_process(monkeypatch, inst, params):
    def no_pool(*args, **kwargs):
        raise AssertionError("a small solve started a process pool")

    monkeypatch.setattr(heuristics, "ProcessPoolExecutor", no_pool)
    assert inst.num_entries <= 6 or params.r == 1
    assert heuristics._restart_workers(inst, params) == 1
    solve(inst, params)


_KILLED_PARENT = """
import os, sys, time
from privpart import SearchParams, SynthConfig, generate_instance, heuristics, solve

def restart(*args):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(30)

heuristics._restart_workers = lambda instance, params: 2
heuristics._restart = restart
solve(generate_instance(SynthConfig(num_entries=200, num_properties=40, k=10, t=2, seed=7)),
      SearchParams("grasp", "global", n=5, r=2, seed=1))
"""
# The directory privpart imports from, for the subprocess.
_SRC = os.path.dirname(os.path.dirname(heuristics.__file__))


def _alive(pid):
    """Whether pid runs and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


def _wait_until(condition, seconds):
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.05)
    return condition()


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_workers_die_with_a_killed_parent(tmp_path):
    # Both workers write a file named by their pid and sleep; the parent
    # is then killed mid-solve, and the kernel must kill them well before
    # they wake.
    parent = subprocess.Popen([sys.executable, "-c", _KILLED_PARENT, str(tmp_path)],
                              env=dict(os.environ, PYTHONPATH=_SRC))
    workers = []
    try:
        assert _wait_until(lambda: len(os.listdir(tmp_path)) == 2, 60)
        workers = [int(name) for name in os.listdir(tmp_path)]
        assert parent.pid not in workers
        parent.kill()
        parent.wait(timeout=10)
        assert _wait_until(lambda: not any(map(_alive, workers)), 10)
    finally:
        parent.kill()
        parent.wait(timeout=10)
        for pid in filter(_alive, workers):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
