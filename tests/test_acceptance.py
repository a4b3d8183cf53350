"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them live). Criteria and tolerances
are pinned here; nothing is deferred to later calibration.

Criterion 3's randomized-construction clause is asserted exactly as
specified. Analysis and measurements of why the uniform candidate draw
cannot reach exact zero there live in the project notes; the assert is
kept faithful rather than weakened.
"""

import time

import numpy as np
import pytest

from privpart import (
    DependencyHypergraph,
    DisclosureModel,
    Instance,
    SearchParams,
    SensitiveProperty,
    SynthConfig,
    build_location_instance,
    construction,
    count_fully_disclosed,
    disclosure_vector,
    enumerate_optimum,
    generate_instance,
    ingest_checkins,
    rand_plus,
    random_small_instance,
    rounding_mean_objective,
    run_experiment,
    solve,
    solve_exact,
    solve_lp_relaxation,
    synthetic_checkin_lines,
    validate_instance,
)
from privpart.evaluator import IncrementalEvaluator
from privpart.experiments import ExperimentConfig
from privpart.instance import Assignment


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


# -- 1. oracle equivalence ----------------------------------------------------

def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    lp_checked = 0
    for trial in range(200):
        inst = random_small_instance(1000 + trial)
        ref = enumerate_optimum(inst)
        bnb = solve_exact(inst)
        assert abs(ref.objective.value - bnb.objective.value) <= 1e-12, trial
        heur = solve(inst, SearchParams("greedy", "global", seed=trial))
        assert heur.objective.value <= bnb.objective.value + 1e-9, trial
        if inst.model.family in ("step", "linear"):
            frac = solve_lp_relaxation(inst)
            assert frac.lp_objective >= bnb.objective.value - 1e-9, trial
            lp_checked += 1
    elapsed = time.perf_counter() - started
    report(1, "exact == enumeration, heuristic <= exact <= LP bound",
           elapsed < 60.0, f"200 instances, {lp_checked} LP bounds, {elapsed:.1f}s")


# -- 2. correctness theorem ----------------------------------------------------

def test_criterion_2_cardinality_theorem():
    runs = 0
    violations = 0
    for base in range(250):
        proto = random_small_instance(2000 + base)
        for lam in (0.5, 1.0):
            inst = validate_instance(Instance(
                proto.hypergraph, proto.utility_weights, proto.k, proto.t,
                lam, proto.tau, proto.model, proto.entries,
            ))
            for params in (
                SearchParams("greedy", "global", seed=base),
                SearchParams("grasp", "myopic", n=2, r=2, seed=base),
            ):
                res = solve(inst, params)
                runs += 1
                if not res.assignment.is_cardinality_feasible(inst.t):
                    violations += 1
    report(2, "every entry gets 1..t adversaries across seeded runs",
           runs == 1000 and violations == 0, f"{runs} runs, {violations} violations")


# -- 3. zero-disclosure location partitioning ------------------------------------

K_SWEEP = (2, 3, 5, 7, 10)


@pytest.fixture(scope="module")
def location_instances():
    lines, friends = synthetic_checkin_lines(
        num_users=500, num_edges=800, num_entries=5000, seed=7
    )
    entries = ingest_checkins(lines).entries
    assert len(entries) == 5000 and len(friends) == 800
    return {
        k: build_location_instance(entries, friends, k=k, t=2, seed=17)
        for k in K_SWEEP
    }


def test_criterion_3a_greedyl_zero_disclosure(location_instances):
    worst = {}
    for k, inst in location_instances.items():
        res = solve(inst, SearchParams("greedy", "myopic", seed=5))
        worst[k] = res.objective.disclosure
    report(3, "GREEDYL discloses exactly 0 at every k",
           all(v == 0.0 for v in worst.values()), f"disclosures {worst}")


def test_criterion_3b_graspl_zero_disclosure(location_instances):
    worst = {}
    for k, inst in location_instances.items():
        res = solve(inst, SearchParams("grasp", "myopic", n=min(k, 3), r=10, seed=5))
        worst[k] = res.objective.disclosure
    report(3, "GRASPL discloses exactly 0 at every k",
           all(v == 0.0 for v in worst.values()), f"disclosures {worst}")


def test_criterion_3c_rand_plus_discloses_over_half(location_instances):
    inst = location_instances[2]
    values = [rand_plus(inst, runs=100, seed=s).objective.disclosure for s in range(10)]
    mean = float(np.mean(values))
    report(3, "RAND+ mean disclosure at k=2 exceeds 0.5", mean > 0.5, f"mean {mean:.4f}")


# -- 4. step-function trend -------------------------------------------------------

def uniform_step_instance(num_entries, num_props, seed):
    rng = np.random.default_rng(seed)
    props = []
    for pid in range(num_props):
        members = None
        while members is None or not members:
            members = tuple(int(d) for d in np.nonzero(rng.random(num_entries) < 0.3)[0])
        props.append(SensitiveProperty(pid, members))
    return validate_instance(Instance(
        DependencyHypergraph(num_entries, props),
        np.full((num_entries, 2), 0.5),
        k=2, t=2, model=DisclosureModel("step", "worst"),
    ))


def test_criterion_4_step_trend():
    started = time.perf_counter()
    sizes = (100, 200, 300, 500)
    means = []
    zeros_at_500 = 0
    for size in sizes:
        counts = []
        for seed in range(10):
            inst = uniform_step_instance(size, 50, seed=9000 + seed)
            res = solve(inst, SearchParams("greedy", "global", seed=seed))
            counts.append(count_fully_disclosed(res))
            if size == 500 and counts[-1] == 0:
                zeros_at_500 += 1
        means.append(float(np.mean(counts)))
    elapsed = time.perf_counter() - started
    monotone = all(means[i + 1] <= means[i] + 1e-9 for i in range(len(means) - 1))
    report(4, "fully-disclosed count non-increasing in |D|, zero at 500",
           monotone and zeros_at_500 >= 8 and elapsed < 300.0,
           f"means {means}, zeros at 500: {zeros_at_500}/10, {elapsed:.0f}s")


# -- 5. heuristics beat RAND+ ------------------------------------------------------

def test_criterion_5_heuristics_beat_rand_plus():
    # Cap t=1: with t=k=2 the baseline is forced into the full assignment
    # and its objective degenerates, inverting the endpoint comparison.
    gaps = {"greedy": {}, "grasp": {}}
    for k in (2, 5, 10):
        rand_vals, greedy_vals, grasp_vals = [], [], []
        for seed in range(10):
            inst = generate_instance(
                SynthConfig(500, 50, k, 1, seed=7000 + seed),
                model=DisclosureModel("linear", "average"),
            )
            rand_vals.append(rand_plus(inst, runs=100, seed=seed).objective.value)
            greedy_vals.append(
                solve(inst, SearchParams("greedy", "global", seed=seed)).objective.value
            )
            grasp_vals.append(
                solve(inst, SearchParams("grasp", "global", n=5, r=10, seed=seed)).objective.value
            )
        rand_mean = float(np.mean(rand_vals))
        gaps["greedy"][k] = float(np.mean(greedy_vals)) - rand_mean
        gaps["grasp"][k] = float(np.mean(grasp_vals)) - rand_mean
    ok = all(g > 0 for by_k in gaps.values() for g in by_k.values())
    widening = gaps["greedy"][10] >= gaps["greedy"][2] and gaps["grasp"][10] >= gaps["grasp"][2]
    report(5, "mean GREEDY/GRASP objective beats RAND+ with widening endpoint gap",
           ok and widening, f"gaps {gaps}")


# -- 6. rounding expectation --------------------------------------------------------

def rounding_test_instance():
    props = [
        SensitiveProperty(0, (0, 1), (0.5, 0.5)),
        SensitiveProperty(1, (2, 3), (0.5, 0.5)),
    ]
    w = np.array([
        [0.45, 0.0], [0.45, 0.0],
        [0.0, 0.5], [0.0, 0.5],
        [0.3, 0.3],
    ])
    return validate_instance(Instance(
        DependencyHypergraph(5, props), w, k=2, t=2, lam=0.5, tau=0.3,
        model=DisclosureModel("linear", "average"),
    ))


def test_criterion_6_rounding_expectation():
    inst = rounding_test_instance()
    frac = solve_lp_relaxation(inst)
    mean, stderr = rounding_mean_objective(inst, frac, draws=10_000, seed=21)
    gap = abs(mean - frac.lp_objective)
    report(6, "mean un-repaired rounded objective matches the relaxation value",
           gap <= 3.0 * stderr + 1e-9,
           f"mean {mean:.6f} vs lp {frac.lp_objective:.6f}, stderr {stderr:.2e}")


# -- 7. complexity scaling ------------------------------------------------------------

def _construction_time(scope, num_entries):
    # Dense enough (|P| = 300, k = 10, worst aggregation) that the
    # per-iteration candidate scan, not fixed call overhead, dominates
    # in the measured size range.
    inst = generate_instance(
        SynthConfig(num_entries, 500, 10, 2, seed=31),
        model=DisclosureModel("linear", "worst"),
    )
    best = np.inf
    for rep in range(3):
        ev = IncrementalEvaluator(inst)
        rng = np.random.default_rng(rep)
        t0 = time.perf_counter()
        construction(inst, SearchParams("greedy", scope), rng, evaluator=ev)
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_7_construction_scaling():
    sizes = np.array([100, 200, 400])
    slopes = {}
    for scope, expected in (("global", 2.0), ("myopic", 1.0)):
        times = np.array([_construction_time(scope, int(n)) for n in sizes])
        slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
        slopes[scope] = (slope, expected)
    ok = all(abs(slope - expected) <= 0.5 for slope, expected in slopes.values())
    report(7, "construction wall time scales ~|D|^2 global, ~|D| myopic", ok,
           ", ".join(f"{s}: {v[0]:.2f} (target {v[1]})" for s, v in slopes.items()))


# -- 8. cross-family identities ---------------------------------------------------------

def test_criterion_8_cross_family_identities():
    rng = np.random.default_rng(3)
    checked = 0
    for trial in range(100):
        base = random_small_instance(4000 + trial, family="linear")
        uniform = [
            SensitiveProperty(p.id, p.members, tuple(1 / len(p.members) for _ in p.members))
            for p in base.hypergraph.properties
        ]

        def variant(family, aggregation="worst"):
            return validate_instance(Instance(
                DependencyHypergraph(base.num_entries, uniform),
                base.utility_weights, base.k, base.t,
                model=DisclosureModel(family, aggregation),
            ))

        lin, quad, step = variant("linear"), variant("quadratic"), variant("step")
        bits = np.zeros((base.num_entries, base.k), dtype=bool)
        for d in range(base.num_entries):
            size = rng.integers(0, base.t + 1)
            if size:
                bits[d, rng.choice(base.k, size=size, replace=False)] = True
        a = Assignment(bits)
        lv = disclosure_vector(lin, a)
        qv = disclosure_vector(quad, a)
        sv = disclosure_vector(step, a)
        if lv.size:
            assert np.abs(qv - lv**2).max() <= 1e-12
            assert np.array_equal(sv, (np.abs(lv - 1.0) < 1e-12).astype(float))
            worst = lv.max()
            average = lv.mean(axis=1).max()
            assert worst >= average - 1e-15
        checked += 1
    report(8, "quadratic == linear^2, step == [linear == 1], worst >= average",
           checked == 100, f"{checked} assignments")


# -- 9. determinism ---------------------------------------------------------------------

def test_criterion_9_bench_determinism(tmp_path):
    def run(tag):
        cfg = ExperimentConfig(
            source={"synth": {"num_entries": 60, "num_properties": 10, "k": 2, "t": 2,
                              "seed": 5, "family": "linear", "aggregation": "average"}},
            algorithms=["rand+", "lp", "greedy", "graspl"],
            seeds=[0, 1, 2],
            params={"rand+": {"restarts": 20}, "lp": {"restarts": 20}, "graspl": {"r": 3}},
            output_dir=str(tmp_path / tag),
            k_values=[2, 3],
        )
        out = run_experiment(cfg)
        with open(out["results_csv"], "rb") as fh:
            return fh.read()

    first = run("a")
    second = run("b")
    report(9, "repeated bench produces byte-identical results.csv", first == second,
           f"{len(first)} bytes")
