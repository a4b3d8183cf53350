"""The batched from-scratch scorer: equal to single calls bitwise, in
agreement with the incremental evaluator, and the chunked draw loops of
RAND+ and LP rounding equal to scoring one draw at a time."""

import numpy as np
import pytest

from privpart import (
    Assignment,
    DisclosureModel,
    Move,
    SynthConfig,
    batch_disclosure,
    build_location_instance,
    disclosure_vector,
    generate_instance,
    ingest_checkins,
    rand_plus,
    random_small_instance,
    round_and_repair,
    rounding_mean_objective,
    solve_lp_relaxation,
    synthetic_checkin_lines,
    tradeoff_objective,
)
from privpart.evaluator import IncrementalEvaluator
from privpart.objective import draw_chunks
from privpart.relaxation import repair


def _location_instance():
    lines, edges = synthetic_checkin_lines(num_users=60, num_edges=80, num_entries=300, seed=1)
    return build_location_instance(ingest_checkins(lines).entries, edges, k=4, t=2, seed=1)


def _scorer_instances():
    """random_small_instance seeds covering every family x aggregation
    pair, plus a 300-entry location instance."""
    insts, seen, seed = [], set(), 0
    while len(seen) < 8:
        inst = random_small_instance(seed)
        seed += 1
        key = (inst.model.family, inst.model.aggregation)
        if key not in seen:
            seen.add(key)
            insts.append(inst)
    return insts + [_location_instance()]


def _random_bits(inst, rng, n):
    return rng.random((n, inst.num_entries, inst.k)) < 0.4


def _states(state):
    return state if isinstance(state, tuple) else (state,)


def test_batched_scorer_equals_single_calls_bitwise():
    rng = np.random.default_rng(0)
    for inst in _scorer_instances():
        bits = _random_bits(inst, rng, 7)
        state, f_ap = batch_disclosure(inst, bits)
        assert f_ap.shape == (7, inst.k, inst.num_properties)
        for i in range(7):
            one_state, one_f = batch_disclosure(inst, bits[i:i + 1])
            assert np.array_equal(one_f[0], f_ap[i])
            for batched, single in zip(_states(state), _states(one_state)):
                assert np.array_equal(single[0], batched[i])
            assert np.array_equal(disclosure_vector(inst, Assignment(bits[i])),
                                  np.clip(f_ap[i], 0.0, 1.0))


def test_batched_scorer_agrees_with_evaluator_after_random_walks():
    rng = np.random.default_rng(1)
    for inst in _scorer_instances():
        ev = IncrementalEvaluator(inst, Assignment(_random_bits(inst, rng, 1)[0]))
        for _ in range(max(30, inst.num_entries // 2)):
            d = int(rng.integers(inst.num_entries))
            setbits = np.nonzero(ev.bits[d])[0]
            unset = np.nonzero(~ev.bits[d])[0]
            if setbits.size and rng.random() < 0.35:
                ev.apply(Move("remove", d, from_adversary=int(rng.choice(setbits))))
            elif setbits.size and unset.size and rng.random() < 0.5:
                ev.apply(Move("swap", d, from_adversary=int(rng.choice(setbits)),
                              to_adversary=int(rng.choice(unset))))
            elif unset.size:
                ev.apply(Move("add", d, to_adversary=int(rng.choice(unset))))
        state, f_ap = batch_disclosure(inst, ev.bits[None])
        kernel = ev.kernel
        ours = (kernel.norms, kernel.dots) if inst.model.family == "cosine" else (kernel.s,)
        for batched, incremental in zip(_states(state), ours):
            assert np.abs(batched[0] - incremental).max(initial=0.0) <= 1e-9
        assert np.abs(f_ap[0] - ev.f_ap).max(initial=0.0) <= 1e-9


# -- the chunked draw loops against one draw at a time ------------------------------

def _best_per_draw(instance, runs, draw_one):
    best_bits, best_value = None, -np.inf
    for _ in range(runs):
        bits = draw_one()
        value = tradeoff_objective(instance, Assignment(bits)).value
        if value > best_value:
            best_value, best_bits = value, bits
    return best_bits


def _rand_plus_per_draw(instance, runs, seed):
    rng = np.random.default_rng(seed)
    w = instance.utility_weights.copy()
    w[w.sum(axis=1) == 0.0] = 1.0
    t = instance.t

    def draw_one():
        keys = rng.exponential(1.0, size=w.shape) / w
        chosen = np.argpartition(keys, t - 1, axis=1)[:, :t]
        bits = np.zeros_like(instance.utility_weights, dtype=bool)
        np.put_along_axis(bits, chosen, True, axis=1)
        return bits

    return _best_per_draw(instance, runs, draw_one)


def _round_and_repair_per_draw(instance, frac, runs, seed):
    rng = np.random.default_rng(seed)
    return _best_per_draw(
        instance, runs, lambda: repair(instance, rng.random(frac.x_hat.shape) < frac.x_hat, frac))


def _rounding_values_per_draw(instance, frac, draws, seed, apply_repair, penalize):
    rng = np.random.default_rng(seed)
    values = np.empty(draws)
    for i in range(draws):
        bits = rng.random(frac.x_hat.shape) < frac.x_hat
        if apply_repair:
            bits = repair(instance, bits, frac)
        obj = tradeoff_objective(instance, Assignment(bits))
        values[i] = obj.value if penalize else obj.value + obj.unassigned_count
    stderr = float(values.std(ddof=1) / np.sqrt(draws)) if draws > 1 else 0.0
    return float(values.mean()), stderr


def _same_result(res, bits, instance):
    assert np.array_equal(res.assignment.bits, bits)
    assert res.objective == tradeoff_objective(instance, Assignment(bits))


@pytest.mark.parametrize("make", [
    lambda: generate_instance(SynthConfig(300, 30, k=5, t=2, seed=4),
                              model=DisclosureModel("linear", "average")),
    _location_instance,
])
def test_rand_plus_chunks_match_per_draw_loop(make):
    inst, runs = make(), 250
    assert len(draw_chunks(inst, runs)) > 1
    for seed in (0, 7):
        _same_result(rand_plus(inst, runs=runs, seed=seed),
                     _rand_plus_per_draw(inst, runs, seed), inst)


@pytest.mark.parametrize("family,aggregation", [("linear", "average"), ("linear", "worst"),
                                                ("step", "worst")])
def test_lp_rounding_chunks_match_per_draw_loop(family, aggregation):
    inst = generate_instance(SynthConfig(300, 30, k=5, t=2, seed=5),
                             model=DisclosureModel(family, aggregation))
    frac = solve_lp_relaxation(inst)
    runs = 250
    assert len(draw_chunks(inst, runs)) > 1
    for seed in (0, 3):
        _same_result(round_and_repair(inst, frac, runs=runs, seed=seed),
                     _round_and_repair_per_draw(inst, frac, runs, seed), inst)
        for apply_repair, penalize in ((False, False), (True, True)):
            assert rounding_mean_objective(
                inst, frac, runs, seed=seed, apply_repair=apply_repair,
                penalize_unassigned=penalize,
            ) == _rounding_values_per_draw(inst, frac, runs, seed, apply_repair, penalize)
