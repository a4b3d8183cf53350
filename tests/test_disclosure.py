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
from privpart.evaluator import IncrementalEvaluator, _Block

from checked_evaluator import CheckedEvaluator


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


def _aggregate_reference(vector, mode):
    """``aggregate_disclosure`` as one numpy reduction over the trailing
    (k, |P|) axes."""
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape[-1] == 0:
        out = np.zeros(vector.shape[:-2])
    elif mode == "worst":
        out = vector.max(axis=(-2, -1))
    else:
        out = vector.mean(axis=-1).max(axis=-1)
    return out if out.ndim else float(out)


def test_aggregate_equals_one_reduction_bitwise():
    rng = np.random.default_rng(2)
    for mode in ("worst", "average"):
        for k in (2, 3, 5, 10):
            for num_p in (0, 1, 4):
                for lead in ((), (1,), (40,)):
                    # Values on a coarse grid, so maxima tie across adversaries.
                    vec = rng.integers(0, 5, size=lead + (k, num_p)) / 4.0
                    ours, ref = aggregate_disclosure(vec, mode), _aggregate_reference(vec, mode)
                    assert type(ours) is type(ref)
                    assert np.shape(ours) == np.shape(ref)
                    assert np.asarray(ours).tobytes() == np.asarray(ref).tobytes()


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
        bits = a.bits.copy()
        bits[d, adv] = True
        after = disclosure_vector(inst, Assignment(bits))
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
        ev = CheckedEvaluator(inst)
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
    # (k=10, t=2); CheckedEvaluator compares every move with a fresh evaluator.
    inst = _realistic_instance(shape)
    rng = np.random.default_rng(5)
    ev = CheckedEvaluator(inst, random_assignment(inst, rng))
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
        assert np.abs(np.asarray(ev.fprime) - fresh.fprime).max() <= 1e-9
    else:
        assert np.abs(np.asarray(ev.f_row_sum) - fresh.f_row_sum).max() <= 1e-9


@pytest.mark.parametrize("aggregation", ["worst", "average"])
@pytest.mark.parametrize("family", ["step", "linear", "quadratic"])
def test_add_gain_matrix_matches_add_gain_row_on_random_walks(family, aggregation):
    # The gain screen floors additions and swaps at the cached column,
    # and local search scores its additions from it, which needs every
    # column entry to be the row's bits.
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
                row = ev.add_gain_row(int(d))[a]
                assert gains[d, a] == row
                assert ev._columns()[d, a] == ev._add_aggregates(int(d))[a]
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
    # Cosine columns are read off one block of every entry, so each gain
    # must be the bits of the row path, with every ineligible cell at -inf.
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
                row = np.array(ev.add_gain_row(int(d)))
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


def _window_cases():
    """Cosine on a location instance under both aggregations, and every
    sums family and aggregation on instances sparse enough that most
    windows hold several entries, some of them in no property. Many
    entries are in eight or more properties, where numpy sums in blocks
    of eight rather than one by one, and users without friends have
    several entries in no property, which share only their user's norm."""
    cases = []
    for users, edges in ((40, 120), (60, 20)):
        lines, friends = synthetic_checkin_lines(num_users=users, num_edges=edges,
                                                 num_entries=300, seed=5)
        loc = build_location_instance(ingest_checkins(lines).entries, friends, k=4, t=2, seed=5)
        cases += [loc, _with_aggregation(loc, "worst")]
    for i, family in enumerate(("step", "linear", "quadratic")):
        for aggregation in ("worst", "average"):
            cases.append(generate_instance(SynthConfig(120, 30, k=3, t=2, p_f=0.03, seed=80 + i),
                                           model=DisclosureModel(family, aggregation)))
            cases.append(generate_instance(SynthConfig(60, 40, k=3, t=2, p_f=0.25, seed=90 + i),
                                           model=DisclosureModel(family, aggregation)))
    return cases


def _kernel_state(ev):
    return [ev.kernel.norms, ev.kernel.dots] if hasattr(ev.kernel, "norms") else [ev.kernel.s]


def _windows_reference(inst, seq):
    """Greedy maximal runs without a shared conflict key, on Python sets."""
    ptr, keys = inst._conflict_keys
    runs, used = [], set()
    for d in seq.tolist():
        own = set(keys[ptr[d]:ptr[d + 1]].tolist())
        if runs and not own & used:
            runs[-1].append(d)
            used |= own
        else:
            runs.append([d])
            used = own
    return runs


def test_windows_are_maximal_runs_without_a_shared_key():
    # A location instance and a dense one, each with over 16384 keys, so
    # that the key set of a run is rebuilt many times; whole permutations
    # and second-pass subsets.
    lines, friends = synthetic_checkin_lines(seed=1)
    loc = build_location_instance(ingest_checkins(lines).entries, friends, k=5, t=2, seed=1)
    dense = generate_instance(SynthConfig(600, 100, k=3, t=2, p_f=0.3, seed=4),
                              model=DisclosureModel("step", "worst"))
    rng = np.random.default_rng(5)
    for inst in (loc, dense):
        assert inst._conflict_keys[1].size > 4 * 4096
        ev = IncrementalEvaluator(inst)
        for share in (1.0, 0.3):
            seq = rng.permutation(inst.num_entries)
            seq = seq[rng.random(seq.size) < share]
            assert ev.windows(seq) == _windows_reference(inst, seq)
    assert ev.windows(np.array([], dtype=np.intp)) == []


def _same_state(ev, other):
    """ev's disclosure and kernel state equal other's, bit for bit."""
    for name in ("f_ap", "fprime", "f_row_sum"):
        got, want = np.asarray(getattr(ev, name)), np.asarray(getattr(other, name))
        assert got.tobytes() == want.tobytes(), name
    for x, y in zip(_kernel_state(ev), _kernel_state(other)):
        assert x.tobytes() == y.tobytes()
    assert ev.f == other.f


def test_window_rows_equal_one_entry_rows_bitwise():
    # Myopic passes over random walks: every add_gain_row read from a
    # window equals, in float.hex, the row a twin evaluator scores in a
    # window of that entry alone, and after every addition the state
    # equals, bit for bit, that of an evaluator that makes the same moves
    # without scoring any (and at the end of each pass also the twin's).
    rng = np.random.default_rng(21)
    longer = wide = 0
    seen = {"empty": 0, "falls": 0}
    for inst in _window_cases():
        ev = IncrementalEvaluator(inst, random_assignment(inst, rng))
        twin = IncrementalEvaluator(inst, ev.assignment())
        plain = IncrementalEvaluator(inst, ev.assignment())
        for _ in range(4):
            order = rng.permutation(inst.num_entries)
            for window, layout in ev.window_layouts(order[ev.counts[order] < inst.t]):
                ev.open_window(layout)
                longer += len(window) > 1
                for d in window:
                    i = ev._window.row[d]
                    if len(window) > 1:
                        seen["empty"] += ev._window.score[i] is None
                        seen["falls"] += bool(ev._window.falls[i])
                    row, alone = ev.add_gain_row(d), twin.add_gain_row(d)
                    assert [float(g).hex() for g in row] == [float(g).hex() for g in alone]
                    free = np.flatnonzero(~ev.bits[d])
                    if free.size and rng.random() < 0.6:
                        move = Move("add", d, to_adversary=int(rng.choice(free)))
                        wide += ev._props(d).size >= 8
                        for other in (ev, twin, plain):
                            other.apply(move)
                        _same_state(ev, plain)
                        # The addition keeps the window, whose other rows
                        # are still those a fresh score of them gives.
                        assert ev._window is not None and d not in ev._window.row
                        rest = _Block(ev, list(ev._window.row))
                        _same_window(ev._window, ev._score_block(rest))
            # Removals free capacity for the next pass.
            for d in rng.choice(inst.num_entries, inst.num_entries // 3, replace=False):
                held = np.flatnonzero(ev.bits[d])
                if held.size:
                    move = Move("remove", int(d), from_adversary=int(rng.choice(held)))
                    for other in (ev, twin, plain):
                        other.apply(move)
            for other in (twin, plain):
                _same_state(ev, other)
    assert longer > 200 and wide > 200, (longer, wide)
    assert seen["empty"] > 50 and seen["falls"] > 5, seen


def _same_window(win, fresh):
    """Each entry of win holds the rows that fresh holds for it, bit for
    bit."""
    assert win.row.keys() == fresh.row.keys()
    for d, i in win.row.items():
        j = fresh.row[d]
        a, b = win.falls[i], fresh.falls[j]  # None for an entry in no property
        assert (a is None) == (b is None) and (a is None or list(a) == list(b))
        for a, b in ((win.score[i], fresh.score[j]), (win.shift[i], fresh.shift[j])):
            assert (a is None) == (b is None)
            assert a is None or [float(x).hex() for x in a] == [float(x).hex() for x in b]
        (lo, hi), (lo2, hi2) = win.blk.spans[i], fresh.blk.spans[j]
        cols = [(win.new_f[:, lo:hi], fresh.new_f[:, lo2:hi2])]
        if isinstance(win.state, tuple):  # cosine: users, their new norms, new dots
            cols += [(win.state[0][i], fresh.state[0][j]),
                     (win.state[1][:, i], fresh.state[1][:, j]),
                     (win.state[2][:, lo:hi], fresh.state[2][:, lo2:hi2])]
        else:
            cols.append((win.state[:, lo:hi], fresh.state[:, lo2:hi2]))
        for x, y in cols:
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), d
