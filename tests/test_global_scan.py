"""The global construction scan and the gain bounds read a kept
addition table and each kernel's columns in closed form; each must give
the bits of a reference written here: the table's formula, and for the
columns the aggregate each entry's addition reads from one window of
every entry."""

import warnings

import numpy as np

from privpart import (
    Assignment,
    DependencyHypergraph,
    DisclosureModel,
    Instance,
    Move,
    SearchParams,
    SensitiveProperty,
    SynthConfig,
    build_location_instance,
    generate_instance,
    ingest_checkins,
    rand_plus,
    random_small_instance,
    synthetic_checkin_lines,
    validate_instance,
)
from privpart.evaluator import IncrementalEvaluator, _Block
from privpart.exact import solve_exact
from privpart.heuristics import construction

_NEG_INF = -np.inf
_AGGREGATIONS = ("worst", "average")


def _random_instance(rng, family, aggregation, lam, num_d=10, k=3, t=2, full=False):
    """Random properties over all entries but the last, which is in none
    unless ``full`` adds a property over every entry."""
    groups = [rng.choice(num_d - 1, int(rng.integers(1, 6)), replace=False) for _ in range(5)]
    props = []
    for pid, members in enumerate(groups + [np.arange(num_d)] * full):
        members = sorted(members.tolist())
        w = None if family == "step" else tuple(rng.dirichlet(np.ones(len(members))))
        props.append(SensitiveProperty(pid, tuple(members), w))
    return validate_instance(Instance(
        DependencyHypergraph(num_d, props), rng.random((num_d, k)), k=k, t=t,
        lam=lam, tau=0.2, model=DisclosureModel(family, aggregation),
    ))


def _with(inst, aggregation, lam):
    return validate_instance(Instance(
        inst.hypergraph, inst.utility_weights, inst.k, inst.t, lam, inst.tau,
        DisclosureModel(inst.model.family, aggregation), inst.entries,
    ))


def _location_instance():
    lines, friends = synthetic_checkin_lines(num_users=30, num_edges=40, num_entries=150, seed=3)
    return build_location_instance(ingest_checkins(lines).entries, friends, k=3, t=2, seed=3)


def _cases():
    rng = np.random.default_rng(21)
    cosine = [_location_instance()] + [random_small_instance(900 + s, "cosine") for s in range(4)]
    cases = []
    for lam in (0.0, 0.7):
        for aggregation in _AGGREGATIONS:
            for family in ("step", "linear", "quadratic"):
                cases += [_random_instance(rng, family, aggregation, lam, full=full)
                          for full in (False, True)]
            cases += [_with(inst, aggregation, lam) for inst in cosine]
    # Entries in a dozen properties each, where pairwise, sequential and
    # BLAS sums part ways.
    cfg = SynthConfig(num_entries=200, num_properties=40, k=4, t=2, p_f=0.3, seed=5)
    cases += [generate_instance(cfg, DisclosureModel(family, "average"), lam=0.7)
              for family in ("quadratic", "linear")]
    return cases


def _reference_columns(ev):
    """Reference columns: each entry's ``_aggregates`` over one window of
    every entry, the value an addition of it reads."""
    inst = ev.inst
    if not ev.num_p:
        return np.tile(ev.fprime, (inst.num_entries, 1))
    win = ev._score_block(_Block(ev, range(inst.num_entries)))
    return np.array([ev._aggregates(win, win.row[d]) for d in range(inst.num_entries)])


def _reference_gain(ev, u, low, bonus):
    if ev.inst.lam == 0.0:
        gain = np.where(low == _NEG_INF, np.inf, 0.0)[()]
    else:
        gain = ev.f - low
        gain *= ev.inst.lam
    gain += u
    gain += bonus
    return gain


def _reference_gain_matrix(ev, cols):
    low = np.maximum(cols, ev._excluded_max()[0])
    gains = _reference_gain(ev, ev._uz, low, (ev.counts == 0).astype(np.float64)[:, None])
    np.copyto(gains, _NEG_INF, where=ev.bits | (ev.counts >= ev.inst.t)[:, None])
    return gains


def _reference_bounds(ev, cols):
    inst, bits, counts = ev.inst, ev.bits, ev.counts
    diag, excl = ev._excluded_max()
    add = _reference_gain(ev, ev._uz, np.maximum(diag, cols),
                          (counts == 0).astype(np.float64)[:, None])
    best = np.where(~bits & (counts < inst.t)[:, None], add, _NEG_INF).max(axis=1)
    rem = _reference_gain(ev, -ev._uz, np.broadcast_to(diag, bits.shape),
                          -(counts == 1).astype(np.float64)[:, None])
    np.maximum(best, np.where(bits, rem, _NEG_INF).max(axis=1), out=best)
    w = inst.utility_weights
    for a in range(ev.k):
        rows = np.flatnonzero(bits[:, a])
        if rows.size == 0:
            continue
        swap = _reference_gain(ev, (w[rows] - w[rows, a][:, None]) / ev.z,
                               np.maximum(excl[a], cols[rows]), 0.0)
        swap[bits[rows]] = _NEG_INF
        best[rows] = np.maximum(best[rows], swap.max(axis=1))
    return best


def _check(ev):
    cols = _reference_columns(ev)
    assert ev._columns().tobytes() == cols.tobytes()
    assert ev.add_gain_matrix().tobytes() == _reference_gain_matrix(ev, cols).tobytes()
    assert ev.neighborhood_gain_bounds().tobytes() == _reference_bounds(ev, cols).tobytes()


def _step(ev, rng):
    """One random legal flip: an add (sometimes scored first, so that it
    goes through the scoring window), a removal down to no adversary, or
    a swap."""
    inst = ev.inst
    d = int(rng.integers(inst.num_entries))
    held, free = np.flatnonzero(ev.bits[d]), np.flatnonzero(~ev.bits[d])
    kind = int(rng.integers(3))
    if kind == 0 and free.size and held.size < inst.t:
        if rng.random() < 0.5:
            ev.add_gain_row(d)
        ev.apply(Move("add", d, to_adversary=int(rng.choice(free))))
    elif kind == 1 and held.size:
        ev.apply(Move("remove", d, from_adversary=int(rng.choice(held))))
    elif held.size and free.size:
        ev.apply(Move("swap", d, from_adversary=int(rng.choice(held)),
                      to_adversary=int(rng.choice(free))))


def test_scan_matches_reference_formulas_bitwise_on_walks_and_reset():
    rng = np.random.default_rng(4)
    seen, empty = set(), 0
    for inst in _cases():
        no_prop = int(np.count_nonzero(np.diff(inst._entry_weights.indptr) == 0))
        seen.add((inst.model.family, inst.model.aggregation, inst.lam == 0.0, no_prop > 0))
        empty += no_prop
        ev = IncrementalEvaluator(inst)
        _check(ev)
        for i in range(30):
            _step(ev, rng)
            _check(ev)
            if i == 14:
                bits = rng.random((inst.num_entries, inst.k)) < 0.3
                bits[np.cumsum(bits, axis=1) > inst.t] = False
                ev.reset(Assignment(bits))
                assert ev._add_tab is None
                _check(ev)
    assert len(seen) == 32 and empty > 20, (len(seen), empty)


def test_exact_and_myopic_evaluators_never_build_the_table(monkeypatch):
    # solve_exact builds no evaluator at all; a myopic one never builds
    # the global addition table.
    inits, built = [], []
    original_init, original_additions = IncrementalEvaluator.__init__, IncrementalEvaluator._additions

    def init_spy(ev, *args, **kwargs):
        inits.append(ev)
        original_init(ev, *args, **kwargs)

    def spy(ev):
        built.append(ev)
        return original_additions(ev)

    monkeypatch.setattr(IncrementalEvaluator, "__init__", init_spy)
    monkeypatch.setattr(IncrementalEvaluator, "_additions", spy)
    for seed in range(12):
        inst = random_small_instance(950 + seed)
        solve_exact(inst)
        assert inits == [], seed
        for params in (SearchParams("greedy", "myopic"), SearchParams("grasp", "myopic", n=2)):
            ev = IncrementalEvaluator(inst)
            construction(inst, params, np.random.default_rng(seed), evaluator=ev)
            assert ev._add_tab is None and ev._add_stale == []
        inits.clear()
    assert built == []


def _list_block(ev, entries):
    """_Block's order and positions, built on lists for every size."""
    ptr = ev._indptr
    rows = sorted([(ptr[d + 1] - ptr[d], d) for d in entries])
    at = np.array([j for _, d in rows for j in range(ptr[d], ptr[d + 1])], dtype=np.intp)
    return [n for n, _ in rows], np.array([d for _, d in rows], dtype=np.intp), at


def test_block_positions_match_the_list_build():
    rng = np.random.default_rng(8)
    insts = [_random_instance(rng, "linear", "worst", 0.5, num_d=30) for _ in range(4)]
    degrees = set()
    for inst in insts + [_location_instance()]:
        ev = IncrementalEvaluator(inst)
        degrees |= set(np.diff(inst._entry_weights.indptr).tolist())
        for _ in range(40):
            size = int(rng.integers(0, 12)) if rng.random() < 0.9 else inst.num_entries
            entries = rng.choice(inst.num_entries, size, replace=False).tolist()
            blk = _Block(ev, entries)
            deg, ents, at = _list_block(ev, entries)
            assert blk.deg == deg
            assert blk.entries.dtype == ents.dtype and np.array_equal(blk.entries, ents)
            assert blk.at.dtype == at.dtype and np.array_equal(blk.at, at)
            assert np.array_equal(blk.props, ev._pcols[at])
            assert blk.empty == deg.count(0)
    assert 0 in degrees and len(degrees) > 4, degrees


def _zero_weight_instance(weights, t):
    weights = np.asarray(weights, dtype=float)
    members = tuple(range(weights.shape[0]))
    props = [SensitiveProperty(0, members, tuple(np.full(len(members), 1.0 / len(members))))]
    return validate_instance(Instance(
        DependencyHypergraph(weights.shape[0], props), weights, k=weights.shape[1], t=t,
        model=DisclosureModel("linear", "worst"),
    ))


def test_rand_plus_draws_zero_weight_adversaries_last_without_warning():
    rng = np.random.default_rng(2)
    w = rng.random((30, 5))
    for row in w:
        row[rng.choice(5, 2, replace=False)] = 0.0  # three positive weights >= t
    cases = [(_zero_weight_instance([[0.9, 0.0, 0.1], [0.2, 0.8, 0.0]], 1), 1),
             (_zero_weight_instance(w, 2), 2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for inst, t in cases:
            zero = inst.utility_weights == 0.0
            for seed in range(20):
                res = rand_plus(inst, runs=5, seed=seed)
                assert not res.assignment.bits[zero].any()
                assert (res.assignment.bits.sum(axis=1) == t).all()
