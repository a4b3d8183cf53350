from itertools import combinations, product

import numpy as np
import pytest

from privpart import (
    Assignment,
    DependencyHypergraph,
    DisclosureModel,
    Instance,
    random_small_instance,
    tradeoff_objective,
    validate_instance,
)


def plain_instance(w, k=2, t=1, props=(), lam=1.0, tau=0.0,
                   model=DisclosureModel("step", "worst")):
    w = np.asarray(w, dtype=float)
    hg = DependencyHypergraph(w.shape[0], list(props))
    return validate_instance(Instance(hg, w, k=k, t=t, lam=lam, tau=tau, model=model))


def assign(inst, pairs):
    b = np.zeros((inst.num_entries, inst.k), dtype=bool)
    for d, a in pairs:
        b[d, a] = True
    return Assignment(b)


W = [[0.9, 0.1], [0.1, 0.8]]


def test_total_utility_top_t_normalization():
    inst = plain_instance(W, t=1)
    split = tradeoff_objective(inst, assign(inst, [(0, 0), (1, 1)]))
    assert split.utility == pytest.approx(1.0)
    crossed = tradeoff_objective(inst, assign(inst, [(0, 1), (1, 0)]))
    assert crossed.utility == pytest.approx(0.2 / 1.7)
    inst2 = plain_instance(W, t=2)
    full = assign(inst2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert tradeoff_objective(inst2, full).utility == pytest.approx(1.0)


def test_total_utility_never_exceeds_one_exhaustively():
    rng = np.random.default_rng(5)
    for _ in range(20):
        num_d = int(rng.integers(1, 5))
        k = int(rng.integers(2, 4))
        t = int(rng.integers(1, k + 1))
        inst = plain_instance(rng.random((num_d, k)), k=k, t=t)
        options = [c for size in range(1, t + 1) for c in combinations(range(k), size)]
        for combo in product(range(len(options)), repeat=num_d):
            b = np.zeros((num_d, k), dtype=bool)
            for d, ci in enumerate(combo):
                b[d, list(options[ci])] = True
            assert tradeoff_objective(inst, Assignment(b)).utility <= 1.0 + 1e-12


def test_additive_marginals_are_constant():
    rng = np.random.default_rng(9)
    inst = plain_instance(rng.random((4, 3)), k=3, t=2)
    small = assign(inst, [(0, 0)])
    large = assign(inst, [(0, 0), (1, 2), (3, 1)])

    def marginal(a):
        bits = a.bits.copy()
        bits[2, 1] = True
        return (tradeoff_objective(inst, Assignment(bits)).utility
                - tradeoff_objective(inst, a).utility)

    assert marginal(small) == pytest.approx(marginal(large))
    assert marginal(small) == pytest.approx(inst.utility_weights[2, 1] / inst._normalizer)
    assert marginal(small) >= 0.0


def test_tradeoff_objective_examples():
    inst = plain_instance(W, t=1)
    split = assign(inst, [(0, 0), (1, 1)])
    obj = tradeoff_objective(inst, split)
    assert obj.value == pytest.approx(1.0)
    assert obj.unassigned_count == 0

    partial = assign(inst, [(0, 0)])
    obj2 = tradeoff_objective(inst, partial)
    assert obj2.unassigned_count == 1
    assert obj2.value == pytest.approx(0.9 / 1.7 - 1.0)

    inst3 = plain_instance(W, t=1, lam=1.0, tau=0.0)
    assert tradeoff_objective(inst3, split).value == pytest.approx(
        tradeoff_objective(inst3, split).utility
    )


def test_objective_recomposes_from_components():
    for trial in range(25):
        inst = random_small_instance(trial)
        rng = np.random.default_rng(trial)
        b = rng.random((inst.num_entries, inst.k)) < 0.5
        over = b.sum(axis=1) > inst.t
        b[over] = False
        obj = tradeoff_objective(inst, Assignment(b))
        assert obj.value == pytest.approx(
            obj.utility + inst.lam * (inst.tau - obj.disclosure) - obj.unassigned_count
        )


def test_removing_last_assignment_never_improves():
    rng = np.random.default_rng(13)
    for trial in range(40):
        inst = random_small_instance(trial)
        b = np.zeros((inst.num_entries, inst.k), dtype=bool)
        for d in range(inst.num_entries):
            b[d, rng.integers(inst.k)] = True
        a = Assignment(b)
        before = tradeoff_objective(inst, a).value
        d = int(rng.integers(inst.num_entries))
        adv = int(np.nonzero(a.bits[d])[0][0])
        bits = a.bits.copy()
        bits[d, adv] = False
        after = tradeoff_objective(inst, Assignment(bits)).value
        assert after <= before + 1e-12
