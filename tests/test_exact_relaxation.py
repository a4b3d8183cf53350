import os
import subprocess
import sys
import tracemalloc
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
    aggregate_disclosure,
    batch_disclosure,
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
from privpart import exact
from privpart.exact import (FORMULATIONS, MARGIN, _adversary_subsets, _approximate_values,
                            _entry_set_table)
from privpart.heuristics import finalize_result
from privpart.objective import batch_objective, draw_chunks, tradeoff_objective
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

def _scratch_aggregates(instance, batch):
    """(n, k): each adversary's clipped f' in each assignment of the
    (n, |D|, k) batch, from a full-k ``batch_disclosure``: the row max or
    mean of its clipped values, 0 without properties."""
    vec = np.clip(batch_disclosure(instance, batch)[1], 0.0, 1.0)
    if vec.shape[-1] == 0:
        return np.zeros(vec.shape[:2])
    return vec.max(axis=2) if instance.model.aggregation == "worst" else vec.mean(axis=2)


def _brute_superset_minimum(instance):
    """(table, low): each mask's clipped f' from ``_scratch_aggregates``
    with adversary 0 holding exactly the mask, and low[mask] the min of
    table over its supersets, taken over all 3^|D| (mask, superset)
    pairs: per entry, out of both, in the superset only, or in both."""
    num_d = instance.num_entries
    masks = np.arange(1 << num_d)
    bits = np.zeros((len(masks), num_d, instance.k), dtype=bool)
    bits[:, :, 0] = (masks[:, None] >> np.arange(num_d)) & 1 == 1
    table = _scratch_aggregates(instance, bits)[:, 0]
    mask, sup = np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp)
    for e in range(num_d):
        mask = (mask[:, None] + (np.array([0, 0, 1]) << e)).ravel()
        sup = (sup[:, None] + (np.array([0, 1, 1]) << e)).ravel()
    low = np.full(len(masks), np.inf)
    np.minimum.at(low, mask, table[sup])
    return table, low


def _reference_solve_exact(instance, formulation, forced_bound=True):
    """Branch-and-bound that scores every node from scratch: it keeps its
    own bits and the utility summed in path order, and reads a leaf's f
    as the max of ``_scratch_aggregates`` of its bits. Its disclosure
    bound is the same: the max over adversaries of ``low`` at the held
    set and the forced bound, from ``_brute_superset_minimum``, or with
    ``forced_bound`` False the first term alone."""
    subsets = _adversary_subsets(instance.k, instance.t)
    num_d, k = instance.num_entries, instance.k
    bits = np.zeros((num_d, k), dtype=bool)
    w = instance.utility_weights.tolist()
    z = instance._normalizer
    suffix = np.zeros(num_d + 1)
    suffix[:-1] = np.cumsum(instance._top_t_sum[::-1])[::-1]
    lam, tau = instance.lam, instance.tau
    budget = formulation == "discbudget"
    low = _brute_superset_minimum(instance)[1]
    entry_bits = 1 << np.arange(num_d)
    best = {"value": -np.inf, "bits": None, "nodes": 0}

    def dfs(d, util_raw):
        best["nodes"] += 1
        if d == num_d:
            node_f = _scratch_aggregates(instance, bits[None])[0].max()
            if budget and not (node_f < tau):
                return
            value = util_raw / z if budget else util_raw / z + lam * (tau - node_f)
            if value > best["value"]:
                best["value"] = value
                best["bits"] = bits.copy()
            return
        held = entry_bits @ bits
        f = low[held].max()
        if forced_bound:
            # Entry e >= d joins some adversary's held set.
            f = max(f, low[held | entry_bits[d:, None]].min(axis=1).max())
        if budget and f >= tau:
            return
        util = (util_raw + suffix[d]) / z
        if (util if budget else util + lam * (tau - f)) <= best["value"]:
            return
        for sub in subsets:
            util = util_raw
            for a in sub:
                bits[d, a] = True
                util += w[d][a]
            dfs(d + 1, util)
            bits[d] = False

    dfs(0, 0.0)
    if best["bits"] is None:
        raise InfeasibleError("no assignment meets the disclosure budget")
    return finalize_result(instance, Assignment(best["bits"]), best["nodes"], 0.0, 0)


def _reference_enumerate(instance, formulation):
    """Enumeration that buffers ``itertools.product`` tuples into chunks
    and scores each chunk with ``batch_objective``."""
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
        obj = batch_objective(instance, bits)[0]
        values = obj.value
        if formulation == "discbudget":
            feas = obj.disclosure < instance.tau
            feasible_seen = feasible_seen or bool(feas.any())
            values = np.where(feas, obj.utility, -np.inf)
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


def test_branch_and_bound_matches_enumeration_on_linear_average_shapes():
    # Linear/average 9x3 shapes, plain and tied: with f' accumulated by
    # incremental flips the best differed from enumeration's in the last
    # bit of the value, and so in its bits.
    for case in _deeper_instances()[14:16]:
        ours, oracle = solve_exact(case), enumerate_optimum(case)
        assert (case.model.family, case.model.aggregation, case.k) == ("linear", "average", 3)
        assert ours.objective.value == oracle.objective.value
        assert np.array_equal(ours.assignment.bits, oracle.assignment.bits)


def test_branch_and_bound_scores_each_mask_once(monkeypatch):
    # Every mask branch-and-bound scores goes through one
    # ``_set_disclosure`` call, none twice in a solve, and its value is
    # bitwise enumeration's table entry. Each solve scores its whole
    # table, so criterion 1's desk set scores the sum of its 2^|D|, 5380
    # masks.
    scored = []
    original = exact._set_disclosure

    def recorded(instance, masks):
        values = original(instance, masks)
        scored.append((masks.copy(), values.copy()))
        return values

    monkeypatch.setattr(exact, "_set_disclosure", recorded)
    total = 0
    for trial in range(200):
        inst = random_small_instance(1000 + trial)
        scored.clear()
        solve_exact(inst)
        masks = np.concatenate([m for m, _ in scored])
        values = np.concatenate([v for _, v in scored])
        table = _entry_set_table(inst)
        assert len(set(masks.tolist())) == masks.size, trial
        assert values.tobytes() == table[masks].tobytes(), trial
        total += masks.size
    assert total == 5380


def _aggregate_after(inst, a, entries):
    """a's clipped aggregate f' once it holds exactly ``entries`` and no
    other adversary holds any, from scratch."""
    bits = np.zeros((1, inst.num_entries, inst.k), dtype=bool)
    bits[0, list(entries), a] = True
    return float(_scratch_aggregates(inst, bits)[0, a])


def test_forced_bound_cells_are_admissible():
    # Under the monotone families no superset of M and e gives a a lower
    # aggregate than M and e do, in float. So there the superset minimum
    # is the table itself, and the bounds read the table's own cells.
    rng = np.random.default_rng(23)
    seen, trials = set(), 0
    for seed, family in product(range(40), ("step", "linear", "quadratic")):
        aggregation = ("worst", "average")[seed % 2]
        for inst in (random_small_instance(seed, family), generate_instance(
                SynthConfig(10, 4, 3, 2, seed=seed), DisclosureModel(family, aggregation))):
            seen.add((family, inst.model.aggregation))
            num_d = inst.num_entries
            for _ in range(6):
                a = int(rng.integers(inst.k))
                held = set(np.flatnonzero(rng.random(num_d) < 0.4).tolist())
                e = int(rng.integers(num_d))
                low = _aggregate_after(inst, a, held | {e})
                extra = set(np.flatnonzero(rng.random(num_d) < 0.5).tolist())
                assert _aggregate_after(inst, a, held | {e} | extra) >= low, (seed, family)
                trials += 1
    assert len(seen) == 6
    assert trials == 1440


def test_forced_bound_halves_desk_nodes():
    # Criterion 1's desk set: 122392 nodes under the partial-disclosure
    # bound alone.
    assert sum(solve_exact(random_small_instance(1000 + trial)).iterations
               for trial in range(200)) <= 122392 // 2


def test_forced_bound_prunes_an_eight_entry_shape():
    inst = generate_instance(SynthConfig(8, 3, 3, 2, seed=17),
                             DisclosureModel("linear", "average"))
    ours = solve_exact(inst)
    plain = _reference_solve_exact(inst, "tradeoff", forced_bound=False)
    assert np.array_equal(ours.assignment.bits, plain.assignment.bits)
    assert 3 * ours.iterations <= plain.iterations


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


def _table_instances():
    """Desk instances of every family x aggregation pair, and generated
    step, linear and quadratic instances with 0, 8 and 130 properties
    under both aggregations: average's pairwise summation changes its
    blocking past 8 and past 128 elements."""
    insts, seen, seed = [], set(), 0
    while len(seen) < 8:
        inst = random_small_instance(seed)
        seed += 1
        if (inst.model.family, inst.model.aggregation) not in seen:
            seen.add((inst.model.family, inst.model.aggregation))
            insts.append(inst)
    for family in ("step", "linear", "quadratic"):
        for aggregation in ("worst", "average"):
            for num_props in (0, 8, 130):
                insts.append(generate_instance(SynthConfig(7, num_props, 3, 2, seed=num_props),
                                               DisclosureModel(family, aggregation)))
    return insts


def test_entry_set_table_equals_batch_scoring_bitwise():
    # Each mask is held by adversary a inside a k-adversary batch whose
    # other adversaries hold random entries: table[mask] is a's reduced
    # row, and the max over adversaries of table[M_a] is the batch's
    # aggregate.
    rng = np.random.default_rng(5)
    for inst in _table_instances():
        table = _entry_set_table(inst)
        num_d, k, mode = inst.num_entries, inst.k, inst.model.aggregation
        masks = np.arange(1 << num_d)
        assert table.shape == masks.shape
        for a in range(k):
            bits = rng.random((len(masks), num_d, k)) < 0.5
            bits[:, :, a] = (masks[:, None] >> np.arange(num_d)) & 1 == 1
            vec = np.clip(batch_disclosure(inst, bits)[1], 0.0, 1.0)
            rows = [aggregate_disclosure(vec[i, a][None], mode) for i in masks]
            assert np.array_equal(table, rows), (inst.model, inst.num_properties, a)
            held = np.matmul(1 << np.arange(num_d), bits)
            assert np.array_equal(table[held].max(axis=1), aggregate_disclosure(vec, mode))


def test_superset_minimum_matches_brute_force():
    # Bitwise the min over all (mask, superset) pairs for every family x
    # aggregation pair, and bitwise the table itself under the monotone
    # families, whose tables never fall when an entry joins.
    seen, lowered = set(), 0
    for inst in _table_instances():
        table = _entry_set_table(inst)
        low = exact._superset_minimum(table)
        brute_table, brute_low = _brute_superset_minimum(inst)
        assert table.tobytes() == brute_table.tobytes()
        assert low.tobytes() == brute_low.tobytes(), inst.model
        if inst.model.family == "cosine":
            lowered += bool((low < table).any())
        else:
            assert low.tobytes() == table.tobytes(), inst.model
        seen.add((inst.model.family, inst.model.aggregation))
    assert len(seen) == 8
    assert lowered > 0


def test_entry_set_table_built_in_several_chunks():
    inst = generate_instance(SynthConfig(14, 6, 2, 1, seed=3),
                             DisclosureModel("linear", "average"), tau=0.6)
    assert len(draw_chunks(inst, 1 << inst.num_entries)) > 1
    for formulation in FORMULATIONS:
        expected = _outcome(_reference_enumerate, inst, formulation)
        assert expected[0] != "infeasible"
        assert _outcome(enumerate_optimum, inst, formulation) == expected


def test_nineteen_entry_enumeration_stays_in_chunks():
    # 2**19 assignments: one float column per mask for the whole table
    # at once would alone take 19 * 2**19 * 8 bytes = 76 MiB.
    inst = generate_instance(SynthConfig(19, 8, 2, 1, seed=1),
                             DisclosureModel("quadratic", "worst"))
    tracemalloc.start()
    try:
        res = enumerate_optimum(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.iterations == 2**19
    assert peak < 64 << 20


def test_enumeration_at_the_cap_stays_in_blocks():
    # 10**6 assignments of 6 entries to 10 subsets: scoring them in one
    # block instead of chunk-sized ones peaks at about 320 MiB.
    inst = generate_instance(SynthConfig(6, 8, 10, 1, seed=1),
                             DisclosureModel("linear", "worst"))
    tracemalloc.start()
    try:
        res = enumerate_optimum(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.iterations == 10**6
    assert peak < 16 << 20


def test_branch_and_bound_at_the_size_guard(monkeypatch):
    # 20 entries at k=2, t=1 is the largest |D| the guard admits: the
    # table and its superset minimum are 2**20 floats, 8 MiB each.
    inst = generate_instance(SynthConfig(20, 12, 2, 1, seed=1),
                             DisclosureModel("linear", "worst"))
    tracemalloc.start()
    try:
        ours = solve_exact(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 << 20
    # 2**20 assignments, just past enumeration's cap, which bounds its
    # time, not what it returns.
    monkeypatch.setattr(exact, "ENUMERATION_CAP", 1 << 20)
    oracle = enumerate_optimum(inst)
    assert ours.objective.value == oracle.objective.value
    assert np.array_equal(ours.assignment.bits, oracle.assignment.bits)
    past = generate_instance(SynthConfig(21, 12, 2, 1, seed=1),
                             DisclosureModel("linear", "worst"))
    with pytest.raises(SizeGuardError):
        solve_exact(past)


def _approximate_and_exact(inst, budget):
    """Every assignment's approximate value from ``_approximate_values``
    and its value from ``batch_objective``, in product order: the
    tradeoff value, or with budget the utility below tau and -inf
    elsewhere."""
    subsets = _adversary_subsets(inst.k, inst.t)
    masks = np.array([[a in sub for a in range(inst.k)] for sub in subsets])
    approx = []
    for start, values in _approximate_values(inst, masks, _entry_set_table(inst), budget):
        assert start == sum(map(len, approx))
        approx.append(values)
    exact = []
    for bits in _product_chunks(inst):
        obj = batch_objective(inst, bits)[0]
        exact.append(np.where(obj.disclosure < inst.tau, obj.utility, -np.inf) if budget
                     else obj.value)
    return np.concatenate(approx), np.concatenate(exact)


def _product_chunks(inst, chunk=1 << 14):
    """All assignments as (c, |D|, k) bits, in ``itertools.product``
    order."""
    subsets = _adversary_subsets(inst.k, inst.t)
    masks = np.zeros((len(subsets), inst.k), dtype=bool)
    for i, sub in enumerate(subsets):
        masks[i, list(sub)] = True
    combos = list(product(range(len(subsets)), repeat=inst.num_entries))
    for start in range(0, len(combos), chunk):
        yield masks[np.array(combos[start:start + chunk])]


def test_approximate_values_lie_within_delta_of_the_exact_ones():
    # delta = 2 (n + 2) 2^-53 with n = |D| t, the module docstring's
    # bound; the margin is far above it.
    insts, seen = [], set()
    for seed in range(60):
        inst = random_small_instance(seed)
        seen.add((inst.model.family, inst.model.aggregation))
        insts += [inst, _tied(inst)]
    assert len(seen) == 8
    insts.append(validate_instance(Instance(  # 10 subsets, 10**5 assignments
        DependencyHypergraph(5, [SensitiveProperty(0, (0, 2, 4), (0.5, 0.3, 0.2))]),
        np.random.default_rng(0).random((5, 4)), 4, 2,
        model=DisclosureModel("linear", "average"),
    )))
    for inst in insts:
        delta = 2 * (inst.num_entries * inst.t + 2) * 2.0**-53
        assert 1000 * delta <= MARGIN
        for budget in (False, True):
            approx, exact = _approximate_and_exact(inst, budget)
            assert np.array_equal(approx == -np.inf, exact == -np.inf)
            finite = exact > -np.inf
            assert np.all(np.abs(approx[finite] - exact[finite]) <= delta), (inst.model, budget)


def test_enumeration_matches_product_loop_on_200_seeds():
    for seed in range(200):
        inst = random_small_instance(seed)
        for case in (inst, _tied(inst)):
            for formulation in FORMULATIONS:
                assert _outcome(enumerate_optimum, case, formulation) == _outcome(
                    _reference_enumerate, case, formulation), (seed, formulation)


def _first_best_scored_alone(instance, formulation):
    """The first assignment in ``itertools.product`` order whose
    ``tradeoff_objective``, taken one assignment at a time, is maximal:
    by value for tradeoff, by utility among those with disclosure below
    tau for discbudget (None if there is none)."""
    best_bits, best = None, -np.inf
    for combo in product(_adversary_subsets(instance.k, instance.t),
                         repeat=instance.num_entries):
        bits = np.zeros((instance.num_entries, instance.k), dtype=bool)
        for d, sub in enumerate(combo):
            bits[d, list(sub)] = True
        obj = tradeoff_objective(instance, Assignment(bits))
        if formulation == "discbudget":
            if not obj.disclosure < instance.tau:
                continue
            value = obj.utility
        else:
            value = obj.value
        if value > best:
            best_bits, best = bits, value
    return best_bits


def test_enumeration_returns_the_first_best_assignment_scored_alone():
    # Tied weights make assignments equal in exact arithmetic; the oracle
    # must still pick the one whose reported objective is largest. Seeds
    # 10 (tradeoff) and 82 (discbudget), tied, once returned an assignment
    # reported 1 ulp below another one.
    cases, infeasible, seed = [], 0, 0
    while len(cases) < 120:
        inst = random_small_instance(seed)
        seed += 1
        if len(_adversary_subsets(inst.k, inst.t)) ** inst.num_entries <= 6**4:
            cases += [(inst, f) for f in FORMULATIONS]
            cases += [(_tied(inst), f) for f in FORMULATIONS]
    cases += [(_tied(random_small_instance(10)), "tradeoff"),
              (_tied(random_small_instance(82)), "discbudget")]
    for case, formulation in cases:
        expected = _first_best_scored_alone(case, formulation)
        if expected is None:
            infeasible += 1
            with pytest.raises(InfeasibleError):
                enumerate_optimum(case, formulation)
            continue
        res = enumerate_optimum(case, formulation)
        assert np.array_equal(res.assignment.bits, expected), (case.num_entries, formulation)
    assert infeasible > 0


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


def test_fractional_components_are_checked_against_0_and_1():
    # NaN compares False with every bound, so it passed a check for
    # components below 0 or above 1.
    for x in (np.full((3, 2), np.nan), np.array([[np.inf, 0.0]]), np.array([[1.5, -0.5]])):
        with pytest.raises(InstanceError, match=r"components must lie in \[0, 1\]"):
            FractionalSolution(x, np.nan)


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


@pytest.mark.parametrize("draws", [0, -3])
def test_rounding_mean_objective_rejects_fewer_than_one_draw(draws):
    inst = dominant_instance()
    with pytest.raises(InstanceError, match="draws must be >= 1"):
        rounding_mean_objective(inst, solve_lp_relaxation(inst), draws=draws)


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
