import numpy as np
import pytest

from privpart import (
    Assignment,
    DataEntry,
    DependencyHypergraph,
    DisclosureModel,
    Instance,
    InstanceError,
    Move,
    SensitiveProperty,
    SynthConfig,
    aggregate_disclosure,
    build_location_instance,
    disclosure_vector,
    generate_instance,
    ingest_checkins,
    random_small_instance,
    synthetic_checkin_lines,
    validate_instance,
)
from privpart.evaluator import IncrementalEvaluator


def build(members_list, num_entries, k=2, t=1, family="step", aggregation="worst",
          weights_list=None, entries=None):
    props = []
    for i, members in enumerate(members_list):
        w = None if weights_list is None else weights_list[i]
        props.append(SensitiveProperty(i, tuple(members), w))
    inst = Instance(
        DependencyHypergraph(num_entries, props),
        np.ones((num_entries, k)),
        k=k, t=t, model=DisclosureModel(family, aggregation), entries=entries,
    )
    return validate_instance(inst)


def bits(num_entries, k, pairs):
    b = np.zeros((num_entries, k), dtype=bool)
    for d, a in pairs:
        b[d, a] = True
    return Assignment(b)


def test_step_full_subset_discloses():
    inst = build([(0, 1)], 2, t=2)
    assert disclosure_vector(inst, bits(2, 2, [(0, 0), (1, 0)]))[0, 0] == 1.0


def test_step_split_does_not_disclose():
    inst = build([(0, 1)], 2)
    vec = disclosure_vector(inst, bits(2, 2, [(0, 0), (1, 1)]))
    assert vec.max() == 0.0


def test_step_empty_assignment_all_zero():
    inst = build([(0, 1)], 2)
    assert disclosure_vector(inst, bits(2, 2, [])).max() == 0.0


def test_linear_weighted_coverage():
    w = (1 / 3, 1 / 3, 1 / 3)
    inst = build([(0, 1, 2)], 3, family="linear", weights_list=[w], t=2)
    vec = disclosure_vector(inst, bits(3, 2, [(0, 0), (1, 0)]))
    assert vec[0, 0] == pytest.approx(2 / 3)
    full = disclosure_vector(inst, bits(3, 2, [(0, 0), (1, 0), (2, 0)]))
    assert full[0, 0] == pytest.approx(1.0)
    assert full[1, 0] == 0.0


def test_quadratic_is_square_of_linear():
    w = (1 / 3, 1 / 3, 1 / 3)
    inst = build([(0, 1, 2)], 3, family="quadratic", weights_list=[w], t=2)
    vec = disclosure_vector(inst, bits(3, 2, [(0, 0), (1, 0)]))
    assert vec[0, 0] == pytest.approx(4 / 9)
    full = disclosure_vector(inst, bits(3, 2, [(0, 0), (1, 0), (2, 0)]))
    assert full[0, 0] == pytest.approx(1.0)
    assert disclosure_vector(inst, bits(3, 2, [])).max() == 0.0


def cosine_instance():
    # two users, three locations; u1 counts (2, 0, 1), u2 counts (1, 1, 0)
    entries = [
        DataEntry(0, ("u1", "A", 2)),
        DataEntry(1, ("u1", "C", 1)),
        DataEntry(2, ("u2", "A", 1)),
        DataEntry(3, ("u2", "B", 1)),
    ]
    return build([(0, 1, 2, 3)], 4, family="cosine", aggregation="average",
                 entries=entries, t=2)


def test_cosine_matches_direct_formula():
    inst = cosine_instance()
    vec = disclosure_vector(inst, bits(4, 2, [(0, 0), (1, 0), (2, 0), (3, 0)]))
    assert vec[0, 0] == pytest.approx(2 / (np.sqrt(5) * np.sqrt(2)))


def test_cosine_disjoint_supports_are_orthogonal():
    entries = [
        DataEntry(0, ("u1", "A", 2)),
        DataEntry(1, ("u2", "B", 3)),
    ]
    inst = build([(0, 1)], 2, family="cosine", aggregation="average", entries=entries)
    vec = disclosure_vector(inst, bits(2, 2, [(0, 0), (1, 0)]))
    assert vec.max() == 0.0


def test_cosine_empty_restriction_is_zero():
    inst = cosine_instance()
    vec = disclosure_vector(inst, bits(4, 2, [(0, 0), (1, 0), (2, 1), (3, 1)]))
    assert vec.max() == 0.0


def test_cosine_requires_exactly_two_users():
    entries = [DataEntry(0, ("u1", "A", 1)), DataEntry(1, ("u1", "B", 1))]
    with pytest.raises(InstanceError, match="exactly 2"):
        build([(0, 1)], 2, family="cosine", entries=entries)


def test_aggregate_worst_and_average():
    vec = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert aggregate_disclosure(vec, "worst") == 1.0
    assert aggregate_disclosure(vec, "average") == 0.5
    zeros = np.zeros((2, 3))
    assert aggregate_disclosure(zeros, "worst") == 0.0
    assert aggregate_disclosure(zeros, "average") == 0.0


def test_worst_dominates_average_on_random_vectors():
    rng = np.random.default_rng(1)
    for _ in range(50):
        vec = rng.random((rng.integers(1, 5), rng.integers(1, 7)))
        assert aggregate_disclosure(vec, "worst") >= aggregate_disclosure(vec, "average")


def random_assignment(inst, rng):
    b = np.zeros((inst.num_entries, inst.k), dtype=bool)
    for d in range(inst.num_entries):
        size = rng.integers(0, inst.t + 1)
        if size:
            b[d, rng.choice(inst.k, size=size, replace=False)] = True
    return Assignment(b)


def test_monotone_families_never_decrease_on_additions():
    rng = np.random.default_rng(7)
    for trial in range(60):
        fam = ("step", "linear", "quadratic")[trial % 3]
        inst = random_small_instance(trial, family=fam)
        a = random_assignment(inst, rng)
        before = disclosure_vector(inst, a)
        free = np.argwhere(~a.bits)
        if free.size == 0:
            continue
        d, adv = free[rng.integers(len(free))]
        a.set_bit(int(d), int(adv))
        after = disclosure_vector(inst, a)
        assert np.all(after >= before - 1e-12)


def test_cosine_can_decrease_on_addition():
    # Adding off-overlap mass inflates one norm and shrinks the cosine, so
    # monotonicity genuinely fails for this family.
    entries = [
        DataEntry(0, ("u1", "A", 1)),
        DataEntry(1, ("u1", "B", 100)),
        DataEntry(2, ("u2", "A", 1)),
    ]
    inst = build([(0, 1, 2)], 3, family="cosine", aggregation="average",
                 entries=entries, t=2)
    partial = disclosure_vector(inst, bits(3, 2, [(0, 0), (2, 0)]))
    fuller = disclosure_vector(inst, bits(3, 2, [(0, 0), (1, 0), (2, 0)]))
    assert fuller[0, 0] < partial[0, 0]


def test_step_equals_linear_indicator_under_uniform_weights():
    rng = np.random.default_rng(3)
    for trial in range(40):
        base = random_small_instance(trial, family="step")
        uniform = [
            SensitiveProperty(p.id, p.members, tuple(1 / len(p.members) for _ in p.members))
            for p in base.hypergraph.properties
        ]
        lin = validate_instance(Instance(
            DependencyHypergraph(base.num_entries, uniform), base.utility_weights,
            base.k, base.t, model=DisclosureModel("linear", "worst"),
        ))
        stepi = validate_instance(Instance(
            DependencyHypergraph(base.num_entries, uniform), base.utility_weights,
            base.k, base.t, model=DisclosureModel("step", "worst"),
        ))
        a = random_assignment(stepi, rng)
        sv = disclosure_vector(stepi, a)
        lv = disclosure_vector(lin, a)
        assert np.array_equal(sv, (np.abs(lv - 1.0) < 1e-12).astype(float))


def test_incremental_matches_scratch_on_random_walks():
    rng = np.random.default_rng(11)
    for trial in range(40):
        inst = random_small_instance(trial)
        ev = IncrementalEvaluator(inst, cross_check=True)
        for _ in range(20):
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


def _realistic_instance(shape):
    if shape == "location":
        lines, friends = synthetic_checkin_lines(
            num_users=500, num_edges=800, num_entries=5000, seed=7)
        return build_location_instance(ingest_checkins(lines).entries, friends,
                                       k=5, t=2, seed=17)
    return generate_instance(SynthConfig(400, 500, k=10, t=2, seed=1),
                             DisclosureModel("linear", "worst"))


@pytest.mark.parametrize("shape", ["location", "linear-worst"])
def test_incremental_matches_scratch_on_long_walks_at_scale(shape):
    # 5000-entry cosine/average (k=5, t=2) and 400x500 linear/worst
    # (k=10, t=2); cross_check compares every move with a fresh evaluator.
    inst = _realistic_instance(shape)
    rng = np.random.default_rng(5)
    ev = IncrementalEvaluator(inst, random_assignment(inst, rng), cross_check=True)
    moves = 0
    while moves < 300:
        d = int(rng.integers(inst.num_entries))
        held, free = np.flatnonzero(ev.bits[d]), np.flatnonzero(~ev.bits[d])
        r = rng.random()
        if held.size and r < 0.3:
            ev.apply(Move("remove", d, from_adversary=int(rng.choice(held))))
        elif held.size and r < 0.7:
            ev.apply(Move("swap", d, from_adversary=int(rng.choice(held)),
                          to_adversary=int(rng.choice(free))))
        elif held.size < inst.t:
            ev.apply(Move("add", d, to_adversary=int(rng.choice(free))))
        else:
            continue
        moves += 1
    fresh = IncrementalEvaluator(inst, ev.assignment())
    if ev.worst:
        assert np.abs(ev.fprime - fresh.fprime).max() <= 1e-9
    else:
        assert np.abs(ev.f_row_sum - fresh.f_row_sum).max() <= 1e-9


@pytest.mark.parametrize("aggregation", ["worst", "average"])
@pytest.mark.parametrize("family", ["step", "linear", "quadratic"])
def test_add_gain_matrix_matches_add_gain_row_on_random_walks(family, aggregation):
    rng = np.random.default_rng(7)
    num_d, k, t = 9, 3, 2
    for _ in range(5):
        props = []
        for pid in range(5):
            # Entry num_d - 1 is in no property: an empty segment.
            members = tuple(sorted(rng.choice(num_d - 1, int(rng.integers(1, 5)), replace=False)))
            w = None if family == "step" else tuple(rng.dirichlet(np.ones(len(members))))
            props.append(SensitiveProperty(pid, tuple(int(d) for d in members), w))
        inst = validate_instance(Instance(
            DependencyHypergraph(num_d, props), rng.random((num_d, k)), k=k, t=t,
            lam=0.8, tau=0.2, model=DisclosureModel(family, aggregation),
        ))
        ev = IncrementalEvaluator(inst)
        for _ in range(40):
            gains = ev.add_gain_matrix()
            eligible = ~ev.bits & (ev.counts < t)[:, None]
            assert np.all(gains[~eligible] == -np.inf)
            for d, a in zip(*np.nonzero(eligible)):
                assert abs(gains[d, a] - ev.add_gain_row(int(d))[a]) <= 1e-12
            d = int(rng.integers(num_d))
            setbits = np.nonzero(ev.bits[d])[0]
            unset = np.nonzero(~ev.bits[d])[0]
            if setbits.size and rng.random() < 0.35:
                ev.apply(Move("remove", d, from_adversary=int(rng.choice(setbits))))
            elif setbits.size and unset.size and rng.random() < 0.5:
                ev.apply(Move("swap", d, from_adversary=int(rng.choice(setbits)),
                              to_adversary=int(rng.choice(unset))))
            elif ev.counts[d] < t:
                ev.apply(Move("add", d, to_adversary=int(rng.choice(unset))))


def test_cosine_add_gain_matrix_equals_add_gain_row_bitwise():
    # Cosine columns are read off add_rows, so each gain must be the bits
    # of the row path, with every ineligible cell at -inf.
    rng = np.random.default_rng(9)
    lines, friends = synthetic_checkin_lines(num_users=20, num_edges=25, num_entries=100, seed=2)
    loc = build_location_instance(ingest_checkins(lines).entries, friends, k=3, t=2, seed=2)
    desk = [random_small_instance(600 + s, "cosine") for s in range(10)]
    for inst in [loc, _with_aggregation(loc, "worst")] + desk + [
            _with_aggregation(i, "worst" if i.model.aggregation == "average" else "average")
            for i in desk]:
        ev = IncrementalEvaluator(inst, random_assignment(inst, rng))
        for _ in range(8):
            gains = ev.add_gain_matrix()
            eligible = ~ev.bits & (ev.counts < inst.t)[:, None]
            assert np.all(gains[~eligible] == -np.inf)
            for d in np.flatnonzero(eligible.any(axis=1)):
                row = ev.add_gain_row(int(d))
                assert np.array_equal(gains[d][eligible[d]], row[eligible[d]])
            d = int(rng.integers(inst.num_entries))
            held, free = np.flatnonzero(ev.bits[d]), np.flatnonzero(~ev.bits[d])
            if held.size and rng.random() < 0.4:
                ev.apply(Move("remove", d, from_adversary=int(rng.choice(held))))
            elif free.size and held.size < inst.t:
                ev.apply(Move("add", d, to_adversary=int(rng.choice(free))))


def _with_aggregation(inst, aggregation):
    return validate_instance(Instance(
        inst.hypergraph, inst.utility_weights, inst.k, inst.t, inst.lam, inst.tau,
        DisclosureModel(inst.model.family, aggregation), inst.entries,
    ))


def _evaluator_state(ev):
    """Copies of the arrays and scalars of an evaluator and its kernel,
    leaving out the kept cosine rows and the column scan's dirty flags."""
    state = {}
    for owner, attrs in (("ev", vars(ev)), ("kernel", vars(ev.kernel))):
        for name, value in attrs.items():
            if name in ("kept", "_col_dirty"):
                continue
            if isinstance(value, np.ndarray):
                state[owner, name] = value.copy()
            elif isinstance(value, (bool, int, float, np.number)):
                state[owner, name] = value
    return state


def _undo_cases():
    lines, friends = synthetic_checkin_lines(num_users=40, num_edges=50, num_entries=300, seed=4)
    loc = build_location_instance(ingest_checkins(lines).entries, friends, k=5, t=2, seed=4)
    cases = [loc, _with_aggregation(loc, "worst")]
    for family in ("step", "linear", "quadratic", "cosine"):
        for seed in range(6):
            inst = random_small_instance(700 + seed, family)
            cases += [_with_aggregation(inst, agg) for agg in ("worst", "average")]
    return cases


def test_undo_restores_the_evaluator_bitwise():
    # Batches of 1-3 logged flips on one entry, as branch-and-bound makes
    # them, from random states; for cosine an add may commit the rows a
    # preceding add_gain_row kept. After _undo every array and scalar is
    # bitwise the one before the batch, and no kept row remains.
    rng = np.random.default_rng(13)
    cases = _undo_cases()
    seen, committed = set(), 0
    for inst in cases:
        seen.add((inst.model.family, inst.model.aggregation))
        ev = IncrementalEvaluator(inst, random_assignment(inst, rng))
        for _ in range(25):
            d = int(rng.integers(inst.num_entries))
            if inst.model.family == "cosine" and rng.random() < 0.6:
                ev.add_gain_row(d)
            before = _evaluator_state(ev)
            kept = getattr(ev.kernel, "kept", None)
            log = []
            for a in rng.permutation(inst.k)[:int(rng.integers(1, min(3, inst.k) + 1))]:
                on = not ev.bits[d, a]
                committed += bool(on and kept is not None and kept[0] == d and not log)
                ev._flip(d, int(a), on, log)
            ev._undo(log)
            after = _evaluator_state(ev)
            assert after.keys() == before.keys()
            for key, value in before.items():
                if isinstance(value, np.ndarray):
                    assert np.array_equal(after[key], value), key
                else:
                    assert after[key] == value, key
            assert getattr(ev.kernel, "kept", None) is None
            # Walk on, so the next batch starts from another state.
            held, free = np.flatnonzero(ev.bits[d]), np.flatnonzero(~ev.bits[d])
            if held.size and rng.random() < 0.4:
                ev.apply(Move("remove", d, from_adversary=int(rng.choice(held))))
            elif free.size and held.size < inst.t:
                ev.apply(Move("add", d, to_adversary=int(rng.choice(free))))
    assert len(seen) == 8
    assert committed > 50, committed
