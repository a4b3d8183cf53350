"""Self-tests of the benchmark, on inputs small enough to run in seconds.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import privpart.geodata as geodata  # noqa: E402
import privpart.heuristics as heuristics  # noqa: E402
import privpart.synth as synth  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from privpart.instance import DisclosureModel  # noqa: E402
from spans import DETERMINISTIC, LAYER_METRICS, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _small_workloads():
    """Each workload's own setup, calls and checks, on smaller inputs."""
    w = workloads.WORKLOADS

    def location_inputs(seed):
        lines, edges = geodata.synthetic_checkin_lines(
            num_users=50, num_edges=40, num_entries=300, seed=seed)
        return lines, [f"{u} {v}" for u, v in edges], seed

    return {
        "location-cosine": (w["location-cosine"], location_inputs(3)),
        "synth-avg-grasp": (w["synth-avg-grasp"],
                            workloads._synth_inputs(60, 10, 5, 1, "average")(3)),
        "synth-worst-k10": (w["synth-worst-k10"],
                            workloads._synth_inputs(40, 30, 10, 2, "worst")(3)),
        "desk-exact": (w["desk-exact"], workloads._desk_inputs(3)[:16]),
    }


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_counts_repeat_and_tracing_changes_no_assignment(name):
    wl, inputs = _small_workloads()[name]
    tracer = Tracer()
    plain = run.run_pass(wl, inputs, 3, 0)
    first = run.run_pass(wl, inputs, 3, 1, tracer)
    second = run.run_pass(wl, inputs, 3, 2, tracer)
    assert not [op for p in (plain, first, second) for op in p.ops if op.error or op.failures]
    assert plain.digests == first.digests == second.digests
    assert {n: first.layers[n] for n in DETERMINISTIC} == \
        {n: second.layers[n] for n in DETERMINISTIC}
    assert run.cross_pass_checks([plain, first, second]) == (3, [])
    assert first.layers["evaluator.candidates_scored"] > 0
    # The wrappers are gone once a pass ends.
    assert heuristics.construction.__module__ == "privpart.heuristics"


def _construction_candidates(num_entries: int, scope: str) -> int:
    inst = synth.generate_instance(
        synth.SynthConfig(num_entries, 20, k=3, t=1, seed=11),
        model=DisclosureModel("linear", "worst"))
    tracer = Tracer()
    tracer.begin_pass(0)
    with tracer:
        heuristics.construction(inst, heuristics.SearchParams("greedy", scope),
                                np.random.default_rng(0))
    return tracer.counts["evaluator.candidates_scored"]


def test_candidates_scored_grow_quadratically_global_linearly_myopic():
    """Doubling |D| multiplies the candidates scored by about 4 for
    global construction (O(|D|^2)) and about 2 for myopic (O(|D|))."""
    glob = _construction_candidates(200, "global") / _construction_candidates(100, "global")
    myop = _construction_candidates(200, "myopic") / _construction_candidates(100, "myopic")
    assert 3.6 <= glob <= 4.4, glob
    assert 1.8 <= myop <= 2.2, myop


def test_desk_inputs_cover_every_family_and_aggregation():
    insts = workloads._desk_setup(workloads._desk_inputs(5))
    assert len(insts) == workloads.DESK_INSTANCES
    seen = {(i.model.family, i.model.aggregation) for i in insts}
    assert seen == {(f, a) for f in ("step", "linear", "quadratic", "cosine")
                    for a in ("worst", "average")}


def test_benchmark_json_names_match_the_command():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    layer = [m["name"] for m in BENCHMARK["per_layer"]]
    assert layer == [n for n, _, _ in LAYER_METRICS] + ["trace.overhead_s"]


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_metric_as_last_line(trace, section):
    out = _bench("--workload", "synth-avg-grasp", "--seed", "4", "--seconds", "0",
                 "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK[section]]
    for m in BENCHMARK[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"metric {m['name']} " in out.stdout


def test_command_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _bench("--workload", "desk-exact", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert "{" not in out.stdout
