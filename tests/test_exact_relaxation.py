import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from privpart import (
    Assignment,
    DependencyHypergraph,
    DisclosureModel,
    FractionalSolution,
    InfeasibleError,
    Instance,
    InstanceError,
    LpInfeasibleError,
    SearchParams,
    SensitiveProperty,
    SizeGuardError,
    SynthConfig,
    enumerate_optimum,
    generate_instance,
    random_small_instance,
    round_and_repair,
    rounding_mean_objective,
    solve,
    solve_exact,
    solve_lp_relaxation,
    validate_instance,
)
from privpart.evaluator import IncrementalEvaluator
from privpart.exact import FORMULATIONS, _adversary_subsets, _batch_values
from privpart.heuristics import finalize_result
from privpart import relaxation
from privpart.relaxation import _lp_model, repair


def pair_instance(lam=1.0, tau=0.0, family="step", weights=None, t=1, k=2):
    props = [SensitiveProperty(0, (0, 1), weights)]
    hg = DependencyHypergraph(2, props)
    w = np.array([[0.9, 0.1], [0.1, 0.8]])
    return validate_instance(
        Instance(hg, w, k=k, t=t, lam=lam, tau=tau, model=DisclosureModel(family, "worst"))
    )


def test_exact_splits_the_step_pair():
    inst = pair_instance()
    res = solve_exact(inst)
    assert res.objective.value == pytest.approx(1.0)
    assert res.objective.disclosure == 0.0
    adv = res.assignment.bits.argmax(axis=1)
    assert adv[0] != adv[1]


def test_exact_discbudget_infeasible_when_everything_leaks():
    # single-member property: any assignment of its entry discloses fully
    props = [SensitiveProperty(0, (0,))]
    hg = DependencyHypergraph(1, props)
    inst = validate_instance(Instance(hg, np.array([[0.5, 0.5]]), 2, 1, tau=0.0,
                                      model=DisclosureModel("step", "worst")))
    with pytest.raises(InfeasibleError):
        solve_exact(inst, formulation="discbudget")
    with pytest.raises(InfeasibleError):
        enumerate_optimum(inst, formulation="discbudget")


def test_exact_matches_greedy_without_properties():
    rng = np.random.default_rng(4)
    w = rng.random((5, 3))
    inst = validate_instance(Instance(DependencyHypergraph(5, []), w, 3, 2))
    exact = solve_exact(inst)
    greedy = solve(inst, SearchParams("greedy", "global", seed=0))
    assert exact.objective.value == pytest.approx(greedy.objective.value)
    assert exact.objective.utility == pytest.approx(1.0)


def test_exact_agrees_with_enumeration_and_brackets_heuristic():
    for trial in range(40):
        inst = random_small_instance(800 + trial)
        ref = enumerate_optimum(inst)
        bnb = solve_exact(inst)
        assert bnb.objective.value == pytest.approx(ref.objective.value, abs=1e-12)
        heur = solve(inst, SearchParams("grasp", "global", n=2, r=2, seed=trial))
        assert heur.objective.value <= bnb.objective.value + 1e-9


def test_maxmin_formulation_equals_tradeoff_value():
    for trial in range(15):
        inst = random_small_instance(300 + trial)
        a = solve_exact(inst, formulation="tradeoff")
        b = solve_exact(inst, formulation="maxmin")
        assert a.objective.value == pytest.approx(b.objective.value, abs=1e-12)


def test_size_guard_refuses_large_instances():
    inst = validate_instance(
        Instance(DependencyHypergraph(500, []), np.ones((500, 2)), 2, 1)
    )
    with pytest.raises(SizeGuardError):
        solve_exact(inst)


def test_discbudget_exact_maximizes_utility_under_budget():
    weights = (0.5, 0.5)
    inst = pair_instance(family="linear", weights=weights, tau=0.6, t=1)
    res = solve_exact(inst, formulation="discbudget")
    ref = enumerate_optimum(inst, formulation="discbudget")
    assert res.objective.utility == pytest.approx(ref.objective.utility, abs=1e-12)
    assert res.objective.disclosure < 0.6


# -- LP relaxation ------------------------------------------------------------

# -- leaf scoring and chunked enumeration against per-subset references -------

def _reference_solve_exact(instance, formulation):
    """Branch-and-bound that flips at every node and scores each leaf from
    the evaluator's state after its flips: the per-node route that
    ``solve_exact`` replaces with memoized per-adversary cells."""
    subsets = _adversary_subsets(instance.k, instance.t)
    ev = IncrementalEvaluator(instance)
    z = instance._normalizer
    suffix = np.zeros(instance.num_entries + 1)
    suffix[:-1] = np.cumsum(instance._top_t_sum[::-1])[::-1]
    lam, tau = instance.lam, instance.tau
    budget = formulation == "discbudget"
    monotone = instance.model.family != "cosine"
    best = {"value": -np.inf, "bits": None, "nodes": 0}

    def node_value():
        if budget:
            return ev.util_raw / z
        if formulation == "maxmin":
            return float(min(ev.util_raw / z + lam * (tau - fp) for fp in ev.fprime))
        return ev.util_raw / z + lam * (tau - ev.f)

    def bound(d):
        util = (ev.util_raw + suffix[d]) / z
        if budget:
            return util
        return util + lam * (tau - (ev.f if monotone else 0.0))

    def dfs(d):
        best["nodes"] += 1
        if budget and monotone and ev.f >= tau:
            return
        if d == instance.num_entries:
            if budget and not (ev.f < tau):
                return
            value = node_value()
            if value > best["value"]:
                best["value"] = value
                best["bits"] = ev.bits.copy()
            return
        if bound(d) <= best["value"]:
            return
        for sub in subsets:
            log = []
            for a in sub:
                ev._flip(d, a, True, log)
            dfs(d + 1)
            ev._undo(log)

    dfs(0)
    if best["bits"] is None:
        raise InfeasibleError("no assignment meets the disclosure budget")
    return finalize_result(instance, Assignment(best["bits"]), best["nodes"], 0.0, 0)


def _reference_enumerate(instance, formulation):
    """Enumeration that buffers ``itertools.product`` tuples into chunks."""
    subsets = _adversary_subsets(instance.k, instance.t)
    masks = np.zeros((len(subsets), instance.k), dtype=bool)
    for i, sub in enumerate(subsets):
        masks[i, list(sub)] = True
    best_value, best_bits, feasible_seen, count, buf = -np.inf, None, False, 0, []

    def flush():
        nonlocal best_value, best_bits, feasible_seen
        if not buf:
            return
        bits = masks[np.array(buf, dtype=np.int64)]
        values, feas = _batch_values(instance, bits, formulation)
        if formulation == "discbudget":
            feasible_seen = feasible_seen or bool(feas.any())
            values = np.where(feas, values, -np.inf)
        i = int(np.argmax(values))
        if values[i] > best_value:
            best_value, best_bits = float(values[i]), bits[i].copy()
        buf.clear()

    for combo in product(range(len(subsets)), repeat=instance.num_entries):
        buf.append(combo)
        count += 1
        if len(buf) >= 1 << 14:
            flush()
    flush()
    if formulation == "discbudget" and not feasible_seen:
        raise InfeasibleError("no assignment meets the disclosure budget")
    return finalize_result(instance, Assignment(best_bits), count, 0.0, 0)


def _tied(inst):
    """Same instance with utility weights on a 0.1 grid: many assignments
    tie in exact arithmetic, so their float values differ only by the
    order of the additions, and that order decides which one wins."""
    w = np.round(inst.utility_weights * 4.0) / 10.0 + 0.1
    return validate_instance(Instance(
        inst.hypergraph, w, inst.k, inst.t, lam=inst.lam, tau=inst.tau,
        model=inst.model, entries=inst.entries,
    ))


def _outcome(solver, inst, formulation):
    try:
        res = solver(inst, formulation)
    except InfeasibleError as exc:
        return ("infeasible", str(exc))
    return (res.iterations, res.assignment.bits.tobytes(), res.objective.value)


def test_leaf_scoring_matches_per_subset_branch_and_bound():
    # The first 150 seeds whose search space has at most 6**4 leaves: the
    # larger ones run the same leaf code but cost seconds each here.
    seen, infeasible, checked, seed = set(), 0, 0, 0
    while checked < 150:
        inst = random_small_instance(seed)
        seed += 1
        if len(_adversary_subsets(inst.k, inst.t)) ** inst.num_entries > 6**4:
            continue
        seen.add((inst.model.family, inst.model.aggregation))
        cases = [inst, _tied(inst)] if checked < 60 else [inst]
        checked += 1
        for case in cases:
            for formulation in FORMULATIONS:
                ours = _outcome(solve_exact, case, formulation)
                assert ours == _outcome(_reference_solve_exact, case, formulation), (
                    seed, formulation)
                infeasible += ours[0] == "infeasible"
    assert len(seen) == 8
    assert infeasible > 0


def _assert_matches_reference(cases):
    for case in cases:
        for formulation in FORMULATIONS:
            assert _outcome(solve_exact, case, formulation) == _outcome(
                _reference_solve_exact, case, formulation), (case.num_entries, formulation)


def _deeper_instances():
    """8-12 entries at (k, t) = (2, 1) and (3, 1), every family and
    aggregation."""
    cases = []
    for i, (family, aggregation) in enumerate(product(
            ("step", "linear", "quadratic"), ("worst", "average"))):
        for num_d, k in ((10 + 2 * (i % 2), 2), (8 + i % 2, 3)):
            inst = generate_instance(
                SynthConfig(num_d, 4, k, 1, seed=i), DisclosureModel(family, aggregation),
                lam=0.8, tau=0.3)
            cases += [inst, _tied(inst)]
    return cases


def test_tail_tables_match_per_subset_branch_and_bound_beyond_desk_scale():
    _assert_matches_reference(_deeper_instances())


def _count_flips(monkeypatch):
    calls = [0]
    flip = IncrementalEvaluator._flip

    def counted(self, *args):
        calls[0] += 1
        return flip(self, *args)

    monkeypatch.setattr(IncrementalEvaluator, "_flip", counted)
    return calls


def test_branch_and_bound_flip_count(monkeypatch):
    calls = _count_flips(monkeypatch)
    # Strongly pruned (k, t) = (3, 1) instances: cells are filled only where
    # the search goes, so it flips no more than a search that flips at every
    # node.
    for family, aggregation in product(("step", "linear", "quadratic"),
                                       ("worst", "average")):
        inst = generate_instance(SynthConfig(8, 4, 3, 1, seed=8),
                                 DisclosureModel(family, aggregation))
        calls[0] = 0
        solve_exact(inst)
        ours = calls[0]
        calls[0] = 0
        _reference_solve_exact(inst, "tradeoff")
        assert ours <= calls[0], (family, aggregation)
    # Criterion 1's desk set: 9350 flips; the bound is the 11276 of eager
    # tables (with a flip per node above the last entry for (2, 1)).
    calls[0] = 0
    for trial in range(200):
        solve_exact(random_small_instance(1000 + trial))
    assert calls[0] <= 11276


def test_chunked_enumeration_matches_product_loop():
    for seed in (3, 11, 17, 42):
        inst = random_small_instance(seed)
        for case in (inst, _tied(inst)):
            for formulation in FORMULATIONS:
                assert _outcome(enumerate_optimum, case, formulation) == _outcome(
                    _reference_enumerate, case, formulation), (seed, formulation)
    # Several chunks: 10 subsets, 10**5 assignments.
    big = validate_instance(Instance(
        DependencyHypergraph(5, [SensitiveProperty(0, (0, 2, 4), (0.5, 0.3, 0.2))]),
        np.random.default_rng(0).random((5, 4)), 4, 2,
        model=DisclosureModel("linear", "average"),
    ))
    for formulation in FORMULATIONS:
        assert _outcome(enumerate_optimum, big, formulation) == _outcome(
            _reference_enumerate, big, formulation)


def test_lp_step_pair_is_integral_and_tight():
    inst = pair_instance()
    frac = solve_lp_relaxation(inst)
    assert np.allclose(np.sort(frac.x_hat.ravel()), [0, 0, 1, 1], atol=1e-8)
    assert frac.lp_objective == pytest.approx(1.0, abs=1e-8)


def test_lp_without_properties_uses_top_t():
    rng = np.random.default_rng(8)
    w = rng.random((4, 3))
    inst = validate_instance(Instance(DependencyHypergraph(4, []), w, 3, 2))
    frac = solve_lp_relaxation(inst)
    top2 = np.argsort(w, axis=1)[:, ::-1][:, :2]
    for d in range(4):
        assert frac.x_hat[d].sum() == pytest.approx(2.0, abs=1e-6)
        assert frac.x_hat[d, top2[d]].sum() == pytest.approx(2.0, abs=1e-6)


def test_lp_step_infeasible_with_singleton_property():
    props = [SensitiveProperty(0, (0,))]
    hg = DependencyHypergraph(1, props)
    inst = validate_instance(Instance(hg, np.array([[0.5, 0.5]]), 2, 1,
                                      model=DisclosureModel("step", "worst")))
    with pytest.raises(LpInfeasibleError):
        solve_lp_relaxation(inst)


def test_lp_bounds_exact_for_linear_any_lambda():
    for trial in range(30):
        inst = random_small_instance(600 + trial, family="linear")
        try:
            frac = solve_lp_relaxation(inst)
        except LpInfeasibleError:
            continue
        exact = solve_exact(inst)
        assert frac.lp_objective >= exact.objective.value - 1e-9


def _reference_lp_model(instance):
    """The relaxation built row by row with Python lists: the loops that
    ``_lp_model`` replaces with numpy."""
    num_d, k = instance.num_entries, instance.k
    nx = num_d * k
    family = instance.model.family
    rows, cols, data, b_ub = [], [], [], []

    def add_row(col_idx, col_val, rhs):
        r = len(b_ub)
        rows.extend([r] * len(col_idx))
        cols.extend(col_idx)
        data.extend(col_val)
        b_ub.append(rhs)

    for d in range(num_d):
        idx = [d * k + a for a in range(k)]
        add_row(idx, [-1.0] * k, -1.0)
        add_row(idx, [1.0] * k, float(instance.t))
    n_vars = nx + (1 if family == "linear" else 0)
    if family == "step":
        for p in instance.hypergraph.properties:
            for a in range(k):
                idx = [d * k + a for d in p.members]
                add_row(idx, [1.0] * len(idx), float(len(p.members) - 1))
    elif instance.num_properties > 0:
        y = nx
        if instance.model.aggregation == "worst":
            for p in instance.hypergraph.properties:
                for a in range(k):
                    idx = [d * k + a for d in p.members] + [y]
                    add_row(idx, list(p.weights) + [-1.0], 0.0)
        else:
            per_entry = np.zeros(num_d)
            for p in instance.hypergraph.properties:
                for d, w in zip(p.members, p.weights):
                    per_entry[d] += w / instance.num_properties
            for a in range(k):
                idx = [d * k + a for d in range(num_d) if per_entry[d] > 0] + [y]
                vals = [per_entry[d] for d in range(num_d) if per_entry[d] > 0] + [-1.0]
                add_row(idx, vals, 0.0)
    c = np.zeros(n_vars)
    c[:nx] = -(instance.utility_weights / instance._normalizer).ravel()
    if family == "linear":
        c[nx] = instance.lam
    a_ub = sp.csr_matrix((data, (rows, cols)), shape=(len(b_ub), n_vars), dtype=np.float64)
    return c, a_ub, np.array(b_ub), nx


def _lp_instances():
    """Criterion 1's step and linear desk instances, 500x50 synthetic
    instances (linear/average, linear/worst, step) and two without
    properties."""
    cases = [random_small_instance(1000 + trial) for trial in range(200)]
    cases = [inst for inst in cases if inst.model.family in ("step", "linear")]
    for family, aggregation in (("linear", "average"), ("linear", "worst"), ("step", "worst")):
        cases.append(generate_instance(SynthConfig(500, 50, 5, 1, seed=3),
                                       DisclosureModel(family, aggregation)))
    w = np.random.default_rng(8).random((4, 3))
    for family in ("step", "linear"):
        cases.append(validate_instance(Instance(DependencyHypergraph(4, []), w, 3, 2,
                                                model=DisclosureModel(family, "worst"))))
    return cases


def test_lp_model_equals_row_by_row_build():
    for inst in _lp_instances():
        c, a_ub, b_ub, nx = _lp_model(inst)
        ref_c, ref_a, ref_b, ref_nx = _reference_lp_model(inst)
        assert nx == ref_nx
        assert np.array_equal(c, ref_c)
        assert np.array_equal(b_ub, ref_b)
        assert a_ub.shape == ref_a.shape
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a_ub.tocsr(), attr), getattr(ref_a, attr)), attr


def _lp_outcome(inst):
    try:
        frac = solve_lp_relaxation(inst)
    except LpInfeasibleError:
        return "infeasible"
    return frac.x_hat.tobytes(), frac.lp_objective


def test_lp_solve_matches_linprog_highs_bitwise(monkeypatch):
    from scipy.optimize import linprog

    def highs(c, a_ub, b_ub):
        return linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, 1.0), method="highs")

    cases = _lp_instances()
    ours = [_lp_outcome(inst) for inst in cases]
    monkeypatch.setattr(relaxation, "linprog", highs)
    assert ours == [_lp_outcome(inst) for inst in cases]
    assert "infeasible" in ours


def test_lp_solver_is_imported_on_the_first_lp_only():
    script = """
import sys
from privpart import (DisclosureModel, SearchParams, SynthConfig, enumerate_optimum,
                      generate_instance, rand_plus, random_small_instance, solve,
                      solve_exact, solve_lp_relaxation)
inst = generate_instance(SynthConfig(30, 5, 3, 1, seed=0), DisclosureModel("linear", "average"))
rand_plus(inst, runs=5)
solve(inst, SearchParams("greedy", "global"))
solve(inst, SearchParams("grasp", "myopic", n=2, r=2))
small = random_small_instance(1000, family="linear")
solve_exact(small)
enumerate_optimum(small)
assert "scipy.optimize" not in sys.modules, "loaded before any LP"
solve_lp_relaxation(small)
assert "scipy.optimize" in sys.modules, "not loaded by an LP"
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_fractional_row_sums_are_checked_against_k():
    with pytest.raises(InstanceError, match=r"row sums must lie in \[1, k\]"):
        FractionalSolution(np.array([[0.3, 0.3]]), 0.0)
    # A row may hold up to k: the relaxation's cardinality rows enforce t.
    assert FractionalSolution(np.array([[1.0, 1.0]]), 0.0).x_hat.sum() == 2.0


# -- rounding -----------------------------------------------------------------

def test_rounding_integral_solution_is_identity():
    inst = pair_instance()
    frac = solve_lp_relaxation(inst)
    res = round_and_repair(inst, frac, runs=5, seed=0)
    assert res.objective.value == pytest.approx(frac.lp_objective, abs=1e-8)
    assert res.assignment.is_cardinality_feasible(inst.t)


def test_repair_assigns_orphans_to_highest_fraction():
    inst = pair_instance()
    frac = FractionalSolution(np.array([[0.5, 0.5], [0.2, 0.8]]), 0.0)
    bits = np.zeros((2, 2), dtype=bool)
    fixed = repair(inst, bits, frac)
    assert fixed[0].tolist() == [True, False]  # tie broken toward lower id
    assert fixed[1].tolist() == [False, True]


def test_repair_trims_overfull_rows_keeping_high_fractions():
    inst = pair_instance(t=1)
    frac = FractionalSolution(np.array([[0.1, 0.9], [1.0, 0.0]]), 0.0)
    bits = np.ones((2, 2), dtype=bool)
    fixed = repair(inst, bits, frac)
    assert fixed.sum(axis=1).tolist() == [1, 1]
    assert fixed[0].tolist() == [False, True]
    assert fixed[1].tolist() == [True, False]


def random_feasible_bits(inst, rng):
    b = np.zeros((inst.num_entries, inst.k), dtype=bool)
    for d in range(inst.num_entries):
        size = int(rng.integers(1, inst.t + 1))
        b[d, rng.choice(inst.k, size=size, replace=False)] = True
    return b


def test_round_and_repair_is_always_cardinality_feasible():
    rng = np.random.default_rng(31)
    for trial in range(20):
        inst = random_small_instance(900 + trial, family="linear")
        # blend of two feasible assignments: rows stay in [1, t]
        x = 0.5 * random_feasible_bits(inst, rng) + 0.5 * random_feasible_bits(inst, rng)
        frac = FractionalSolution(x, 0.0)
        res = round_and_repair(inst, frac, runs=3, seed=trial)
        assert res.assignment.is_cardinality_feasible(inst.t)


def dominant_instance():
    """Linear instance whose relaxation concentrates all disclosure on one
    adversary, making the rounded objective's expectation exact."""
    props = [
        SensitiveProperty(0, (0, 1), (0.5, 0.5)),
        SensitiveProperty(1, (2, 3), (0.5, 0.5)),
    ]
    hg = DependencyHypergraph(5, props)
    w = np.array([
        [0.45, 0.0],   # members of p0, pulled to adversary 0
        [0.45, 0.0],
        [0.0, 0.5],    # members of p1, pinned on adversary 1
        [0.0, 0.5],
        [0.3, 0.3],
    ])
    return validate_instance(Instance(
        hg, w, k=2, t=2, lam=0.5, tau=0.3,
        model=DisclosureModel("linear", "average"),
    ))


def test_unrepaired_rounding_matches_lp_objective_in_expectation():
    inst = dominant_instance()
    frac = solve_lp_relaxation(inst)
    mean, stderr = rounding_mean_objective(inst, frac, draws=4000, seed=7)
    assert abs(mean - frac.lp_objective) <= 3.0 * stderr + 1e-9


def test_unrepaired_rounding_matches_fractional_value_with_true_randomness():
    # Hand-built fractional point with adversary-1 disclosure dominant in
    # every realization: the expected rounded objective equals the
    # fractional objective exactly, and the draw really is random.
    inst = dominant_instance()
    x = np.array([
        [1.0, 0.0],
        [1.0, 0.0],
        [0.0, 1.0],
        [0.0, 1.0],
        [0.7, 0.4],
    ])
    util = float((inst.utility_weights * x).sum()) / inst._normalizer
    # adversary 1 discloses everything of p1; fractional overall f' is its mean
    f_frac = (0.0 + 1.0) / 2.0
    frac = FractionalSolution(x, util + inst.lam * (inst.tau - f_frac))
    mean, stderr = rounding_mean_objective(inst, frac, draws=6000, seed=11)
    assert stderr > 0.0
    assert abs(mean - frac.lp_objective) <= 3.0 * stderr + 1e-9
