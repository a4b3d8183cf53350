from itertools import product
from operator import attrgetter
from types import SimpleNamespace

import numpy as np
import pytest

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
    construction,
    generate_instance,
    ingest_checkins,
    local_search,
    rand_plus,
    random_small_instance,
    solve,
    synthetic_checkin_lines,
    tradeoff_objective,
    validate_instance,
)
from privpart.evaluator import IncrementalEvaluator, _Block
from privpart.heuristics import RCL_ALPHA, _select_from_gain_matrix, _select_from_gain_row

from checked_evaluator import CheckedEvaluator


def plain(w, k=2, t=1, props=(), model=DisclosureModel("step", "worst")):
    w = np.asarray(w, dtype=float)
    hg = DependencyHypergraph(w.shape[0], list(props))
    return validate_instance(Instance(hg, w, k=k, t=t, model=model))


# -- RAND+ -------------------------------------------------------------------

def test_rand_plus_sampling_is_weight_proportional():
    inst = plain([[0.9, 0.1]], t=1)
    hits = sum(
        rand_plus(inst, runs=1, seed=s).assignment.bits[0, 0] for s in range(2000)
    )
    assert 0.87 <= hits / 2000 <= 0.93


def test_rand_plus_t_equals_k_is_forced_full():
    inst = plain([[0.9, 0.1], [0.1, 0.8]], t=2)
    res = rand_plus(inst, runs=3, seed=1)
    assert res.assignment.bits.all()


def test_rand_plus_handles_zero_weight_row():
    inst = plain([[0.0, 0.0], [0.5, 0.5]], t=1)
    res = rand_plus(inst, runs=5, seed=0)
    assert res.assignment.is_cardinality_feasible(1)


def test_rand_plus_keeps_best_run():
    inst = plain([[0.9, 0.1], [0.1, 0.8]], t=1)
    many = rand_plus(inst, runs=200, seed=3)
    assert many.objective.value == pytest.approx(1.0)  # optimum found among runs


# -- construction -------------------------------------------------------------

def test_construction_fills_when_additions_keep_improving():
    inst = plain([[0.9, 0.1]], t=2)
    a, g, _ = construction(inst, SearchParams("greedy", "global"), np.random.default_rng(0))
    assert a.bits.all()  # second addition still raises the objective
    assert g == pytest.approx(1.0)


def test_construction_never_colocates_step_pair():
    # Enumerating the four one-assignment-each outcomes shows splits are
    # strictly better, and the builder must find one of them.
    prop = [SensitiveProperty(0, (0, 1))]
    inst = plain([[0.9, 0.1], [0.1, 0.8]], t=1, props=prop)
    values = {}
    for a0, a1 in product(range(2), repeat=2):
        b = np.zeros((2, 2), dtype=bool)
        b[0, a0] = True
        b[1, a1] = True
        values[(a0, a1)] = tradeoff_objective(inst, Assignment(b)).value
    assert max(values, key=values.get) in {(0, 1), (1, 0)}
    # The greedy argmax never takes the completing move; GRASP's uniform
    # draw may, but local search then undoes it, so the solved result is
    # always a split either way.
    for seed in range(5):
        a, _, _ = construction(
            inst, SearchParams("greedy", "global"), np.random.default_rng(seed)
        )
        assert np.nonzero(a.bits[0])[0][0] != np.nonzero(a.bits[1])[0][0]
    for seed in range(8):
        res = solve(inst, SearchParams("grasp", "global", n=2, seed=seed))
        adv = res.assignment.bits.argmax(axis=1)
        assert adv[0] != adv[1]


def test_construction_stops_when_nothing_improves():
    inst = plain([[0.9, 0.0]], t=2)
    a, _, applied = construction(
        inst, SearchParams("greedy", "global"), np.random.default_rng(0)
    )
    # the zero-weight addition does not strictly improve, so it is skipped
    assert applied == 1
    assert a.bits.tolist() == [[True, False]]


def test_myopic_construction_respects_cap_and_assigns_everyone():
    for trial in range(20):
        inst = random_small_instance(trial)
        a, _, _ = construction(
            inst, SearchParams("greedy", "myopic"), np.random.default_rng(trial)
        )
        assert np.all(a.per_entry_count <= inst.t)
        assert np.all(a.per_entry_count >= 1)


# -- global selection from the gain matrix -------------------------------------

def _select(inst, assignment, params, seed):
    gains = IncrementalEvaluator(inst, assignment).add_gain_matrix()
    return _select_from_gain_matrix(gains, params, np.random.default_rng(seed))


def test_global_selection_greedy_takes_argmax():
    inst = plain([[0.9, 0.1], [0.1, 0.8]], t=1)
    move = _select(inst, Assignment.empty(inst), SearchParams("greedy", "global"), 0)
    assert (move.entry, move.to_adversary) == (0, 0)


def test_global_selection_returns_none_without_strict_improvement():
    inst = plain([[0.9, 0.0]], t=2)
    a = Assignment(np.array([[True, False]]))
    assert _select(inst, a, SearchParams("greedy", "global"), 0) is None
    assert _select(inst, a, SearchParams("grasp", "global", n=2), 0) is None


def test_global_selection_grasp_draws_uniformly_from_top_n():
    inst = plain([[0.5, 0.3, 0.1]], k=3, t=1)
    empty = Assignment.empty(inst)
    params = SearchParams("grasp", "global", n=2)
    picks = [_select(inst, empty, params, seed).to_adversary for seed in range(400)]
    assert set(picks) == {0, 1}
    share = picks.count(0) / len(picks)
    assert 0.4 <= share <= 0.6


# -- global GRASP selection ------------------------------------------------------

def _select_full_lexsort(gains, n, rng):
    """Reference GRASP selection: order every strictly improving candidate
    by (-gain, flat index), keep the first n, draw one uniformly."""
    k = gains.shape[1]
    flat_gains = gains.ravel()
    improving = np.nonzero(flat_gains > 0.0)[0]
    if improving.size == 0:
        return None
    order = improving[np.lexsort((improving, -flat_gains[improving]))]
    top = order[:n]
    flat = int(top[rng.integers(top.size)])
    return Move("add", flat // k, to_adversary=flat % k)


def test_grasp_global_selection_matches_full_lexsort_reference():
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(150):
        num_d, k = int(rng.integers(1, 30)), int(rng.integers(2, 6))
        # Rounding to one or two decimals makes ties, also at the cut.
        gains = np.round(rng.normal(0.2, 0.4, (num_d, k)), int(rng.integers(1, 3)))
        gains[rng.random((num_d, k)) < 0.3] = -np.inf
        cases.append(gains)
    cases.append(np.full((7, 3), 0.5))
    cases.append(np.repeat([[0.3], [0.1], [0.3], [-0.2]], 4, axis=1))  # all-equal rows
    cases.append(np.full((4, 2), -np.inf))
    for gains in cases:
        improving = int(np.count_nonzero(gains > 0.0))
        for n in sorted({1, 2, 5, improving + 1}):
            params = SearchParams("grasp", "global", n=n)
            for seed in range(3):
                ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                assert _select_from_gain_matrix(gains, params, ours) == \
                    _select_full_lexsort(gains, n, ref)
                assert ours.bit_generator.state == ref.bit_generator.state


# -- myopic GRASP selection -------------------------------------------------------

def test_grasp_myopic_selection_cuts_candidate_list_by_value():
    # Improving gains span [0.2, 1.0]; with RCL_ALPHA = 0.5 the value cut
    # is 0.6, so adversary 2 must never be drawn although n = 3 would
    # keep it by rank alone.
    assert RCL_ALPHA == 0.5
    gains = np.array([1.0, 0.95, 0.2])
    params = SearchParams("grasp", "myopic", n=3)
    picks = [
        _select_from_gain_row(gains.tolist(), params, np.random.default_rng(seed))
        for seed in range(200)
    ]
    assert set(picks) == {0, 1}


def _select_row_numpy(d, gains, params, rng):
    """The numpy myopic selection the scalar one replaced."""
    if params.strategy == "greedy":
        a = int(np.argmax(gains))
        if not gains[a] > 0.0:
            return None
        return Move("add", d, to_adversary=a)
    improving = np.nonzero(gains > 0.0)[0]
    if improving.size == 0:
        return None
    vals = gains[improving]
    g_max, g_min = vals.max(), vals.min()
    keep = vals >= g_max - RCL_ALPHA * (g_max - g_min)
    improving, vals = improving[keep], vals[keep]
    order = improving[np.lexsort((improving, -vals))]
    top = order[: params.n]
    return Move("add", d, to_adversary=int(top[rng.integers(top.size)]))


def _other_max_numpy(fprime):
    """For each adversary, the largest aggregate among the others, in
    numpy."""
    order = np.sort(fprime)
    m1, m2 = order[-1], order[-2]
    return np.where(fprime == m1, m2, m1)


def _selection_rows():
    """Gain rows on a grid of eighths, so ties at the max and at the value
    cut are common (RCL_ALPHA = 0.5 keeps the cut on the grid), with -inf
    cells, plus all-nonpositive rows."""
    rng = np.random.default_rng(11)
    rows = []
    for _ in range(400):
        k = int(rng.integers(2, 11))
        gains = rng.integers(-4, 9, k) / 8.0
        gains[rng.random(k) < 0.2] = -np.inf
        rows.append(gains)
    rows += [np.full(5, -np.inf), np.array([0.0, -0.0, -1.0]), np.full(4, 0.5),
             np.array([1.0, 0.625, 0.25, 0.625, -np.inf])]
    return rows


def test_scalar_myopic_selection_matches_numpy_reference():
    cut_ties = 0
    for i, gains in enumerate(_selection_rows()):
        k = gains.size
        vals = gains[gains > 0.0]
        if vals.size and (vals == vals.max() - RCL_ALPHA * (vals.max() - vals.min())).any():
            cut_ties += 1
        for strategy, n in [("greedy", 1)] + [("grasp", n) for n in sorted({1, 2, 3, k})]:
            params = SearchParams(strategy, "myopic", n=n)
            for seed in range(3):
                ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                move = _select_row_numpy(i, gains, params, ref)
                assert _select_from_gain_row(gains.tolist(), params, ours) == \
                    (None if move is None else move.to_adversary)
                assert ours.bit_generator.state == ref.bit_generator.state
    assert cut_ties > 50


def test_scalar_other_max_matches_numpy_reference():
    # The excluded-max table's diagonal is the other-adversary max; every
    # other cell is the max outside its pair, -inf when none is left.
    for gains in _selection_rows():
        fprime = np.where(np.isinf(gains), 0.0, np.abs(gains))  # aggregates are finite, >= 0
        k = fprime.size
        ev = SimpleNamespace(fprime=fprime.tolist(), k=k)  # the evaluator keeps a list
        diag, excl = IncrementalEvaluator._excluded_max(ev)
        assert np.array_equal(diag, _other_max_numpy(fprime))
        for a, b in product(range(k), repeat=2):
            rest = [fprime[c] for c in range(k) if c not in (a, b)]
            assert excl[a][b] == max(rest, default=-np.inf), (fprime, a, b)
        assert [excl[a][a] for a in range(k)] == list(diag)


# -- myopic construction scores windows and commits the rows it scored ---------------

def _with_model(inst, aggregation):
    return validate_instance(Instance(
        inst.hypergraph, inst.utility_weights, inst.k, inst.t, inst.lam, inst.tau,
        DisclosureModel(inst.model.family, aggregation), inst.entries,
    ))


def _recorded_construction(inst, params, seed, evaluator=IncrementalEvaluator):
    """Myopic construction that records its moves (additions, made
    through ``add``), the length of every block it scores and every row
    the kernel computes on its own."""
    ev = evaluator(inst)
    moves, blocks, alone = [], [], []
    add, score, row = ev.add, ev._score_block, ev.kernel.row
    ev.add = lambda d, a: moves.append(Move("add", d, to_adversary=a)) or add(d, a)
    ev._score_block = lambda blk: blocks.append(len(blk.order)) or score(blk)
    ev.kernel.row = lambda ev_, d, a, on: alone.append((d, a, on)) or row(ev_, d, a, on)
    construction(inst, params, np.random.default_rng(seed), evaluator=ev)
    return ev, moves, blocks, alone


def _entry_pair_lists(inst):
    """Per entry d, over d's pairs in pair order: the other entry, the
    count product and the property, from ``pair_e1``/``pair_e2`` and
    the pair matrix."""
    tables = inst._cosine
    pm = tables.pair_matrix
    pair_prop = np.repeat(np.arange(pm.shape[0]), np.diff(pm.indptr))
    by_entry = [[] for _ in range(inst.num_entries)]
    for i, (e1, e2) in enumerate(zip(tables.pair_e1.tolist(), tables.pair_e2.tolist())):
        by_entry[e1].append((e2, i))
        by_entry[e2].append((e1, i))
    lists = []
    for pairs in by_entry:
        at = np.array([i for _, i in pairs], dtype=np.intp)
        lists.append((np.array([o for o, _ in pairs], dtype=np.int64), pm.data[at], pair_prop[at]))
    return lists


def _flip_cosine_reference(ev, d, a, on, lists):
    """The cosine ``row`` as flips once computed it from per-entry pair
    lists (``_entry_pair_lists``): a masked ``np.add.at`` of plus or minus
    the count products on a copy of a's dots, then the cosine of d's
    properties."""
    kn = ev.kernel
    others, prods, pprops = lists[d]
    u = int(kn.e_user[d])
    sq = kn.e_sq[d]
    norm_u = kn.norms[a, u] + sq if on else kn.norms[a, u] - sq
    dots = kn.dots[a].copy()
    mask = ev.bits[others, a]
    if mask.any():
        np.add.at(dots, pprops[mask], prods[mask] if on else -prods[mask])
    props = ev._pcols[ev._indptr[d]:ev._indptr[d + 1]]
    partner = kn.partner[ev._indptr[d]:ev._indptr[d + 1]]
    denom = float(norm_u) * kn.norms[a][partner]
    new_f = np.where(denom > 0.0,
                     dots[props] / np.sqrt(np.where(denom > 0.0, denom, 1.0)), 0.0)
    return (u, norm_u, dots[props]), new_f


def _reference_evaluator(inst, assignment=None):
    """An evaluator whose kernel rows come from ``_flip_cosine_reference``."""
    ev, lists = IncrementalEvaluator(inst, assignment), _entry_pair_lists(inst)
    ev.kernel.row = lambda ev_, d, a, on: _flip_cosine_reference(ev_, d, a, on, lists)
    return ev


def _sparse_sums_cases():
    """Each entry in about one of 40 properties, so most windows hold
    several entries, and some entries in none."""
    return [generate_instance(SynthConfig(150, 40, k=3, t=2, p_f=0.02, seed=60 + i),
                              model=DisclosureModel(family, aggregation))
            for i, (family, aggregation) in enumerate(product(
                ("step", "linear", "quadratic"), ("worst", "average")))]


def _replay_cases():
    loc = _small_location_instance()
    desk = [random_small_instance(400 + s, "cosine") for s in range(12)]
    return [loc, _with_model(loc, "worst")] + desk + _sparse_sums_cases()


def test_myopic_construction_state_equals_replayed_flips_bitwise():
    checked = longer = 0
    for i, inst in enumerate(_replay_cases()):
        cosine = inst.model.family == "cosine"
        state = ("kernel.norms", "kernel.dots") if cosine else ("kernel.s",)
        for params in (SearchParams("greedy", "myopic"), SearchParams("grasp", "myopic", n=3)):
            ev, moves, blocks, alone = _recorded_construction(inst, params, i)
            # Every add wrote a row its window scored: no kernel recompute.
            assert alone == []
            longer += sum(n > 1 for n in blocks)
            # Replays that never score: through apply, and for cosine
            # through the earlier flip arithmetic.
            replays = [IncrementalEvaluator(inst)]
            if cosine:
                replays.append(_reference_evaluator(inst))
            for move in moves:
                for other in replays:
                    other.apply(move)
            for other in replays:
                for name in ("bits", "f_ap", "fprime") + state:
                    assert np.array_equal(attrgetter(name)(ev), attrgetter(name)(other)), (i, name)
                if not ev.worst:
                    assert np.array_equal(ev.f_row_sum, other.f_row_sum)
                assert ev.f == other.f
            fresh = IncrementalEvaluator(inst, ev.assignment())
            assert np.allclose(ev.f_ap, fresh.f_ap, rtol=0.0, atol=1e-12)
            checked += len(moves)
    assert checked > 1000
    assert longer > 100, longer


def test_window_is_dropped_by_any_flip_outside_it():
    inst = _small_location_instance()
    ev = CheckedEvaluator(inst)
    indptr, other = ev._indptr, inst._cosine.member_other
    d = next(d for d in range(inst.num_entries) if (other[indptr[d]:indptr[d + 1]] != d).any())
    j = indptr[d] + int(np.argmax(other[indptr[d]:indptr[d + 1]] != d))
    e, p = int(other[j]), int(ev._pcols[j])  # e shares a location with d on property p
    assert len(ev.windows(np.array([d, e]))) == 2  # friends never share a window
    ev.add_gain_row(e)
    ev.apply(Move("add", e, to_adversary=1))  # writes the row the window scored
    assert ev._window is not None and e not in ev._window.row
    ev.add_gain_row(d)  # a window of d alone replaces e's
    assert list(ev._window.row) == [d]
    ev.apply(Move("add", e, to_adversary=0))
    assert ev._window is None
    # Rows scored before e joined adversary 0 lack the pair's dot product;
    # CheckedEvaluator compares the state after this add with a fresh one.
    ev.apply(Move("add", d, to_adversary=0))
    assert ev.kernel.dots[0, p] > 0.0


def test_myopic_construction_passes_cross_check_on_location_instance():
    inst = _small_location_instance(k=3)
    for params in (SearchParams("greedy", "myopic"), SearchParams("grasp", "myopic", n=3)):
        _, moves, _, _ = _recorded_construction(inst, params, 7, CheckedEvaluator)
        assert len(moves) >= inst.num_entries


def _t3_instance():
    """t=3 over sparse properties, so that windows hold several entries."""
    return generate_instance(SynthConfig(150, 40, k=4, t=3, p_f=0.02, seed=66),
                             model=DisclosureModel("linear", "average"))


def test_myopic_construction_lays_windows_out_once_from_an_empty_evaluator(monkeypatch):
    # From an empty evaluator every pass visits every entry, so one
    # windows() call and one layout per window serve all t passes.
    built = []
    init = _Block.__init__

    def spy(blk, ev, entries):
        built.append(len(entries))
        init(blk, ev, entries)

    monkeypatch.setattr(_Block, "__init__", spy)
    for inst in (_small_location_instance(), _t3_instance()):
        for seed, params in enumerate((SearchParams("greedy", "myopic"),
                                       SearchParams("grasp", "myopic", n=3))):
            ev, runs, opened = IncrementalEvaluator(inst), [], []
            windows, score = ev.windows, ev._score_block
            ev.windows = lambda entries: runs.append(windows(entries)) or runs[-1]
            ev._score_block = lambda blk: opened.append(blk) or score(blk)
            built.clear()
            construction(inst, params, np.random.default_rng(seed), evaluator=ev)
            assert len(runs) == 1
            assert built == [len(run) for run in runs[0]]
            assert sum(built) == inst.num_entries and max(built) > 1
            assert opened == opened[:len(built)] * inst.t  # each pass opens the same layouts


def _per_pass_myopic(ev, params, rng):
    """Myopic construction that cuts and lays out its windows anew in
    every pass."""
    inst = ev.inst
    order = rng.permutation(inst.num_entries)
    for _ in range(inst.t):
        for window in ev.windows(order[ev.counts[order] < inst.t]):
            ev.open_window(_Block(ev, window))
            for d in window:
                a = _select_from_gain_row(ev.add_gain_row(d), params, rng)
                if a is not None:
                    ev.add(d, a)


def test_myopic_construction_from_a_partial_assignment_equals_per_pass_layouts():
    # Entries one addition below the cap leave the visiting list once they
    # get it, so the list changes between passes and the layouts are
    # built again.
    rng = np.random.default_rng(9)
    rebuilt = 0
    for inst in (_small_location_instance(k=3), _t3_instance()):
        for seed, params in enumerate((SearchParams("greedy", "myopic"),
                                       SearchParams("grasp", "myopic", n=3))):
            bits = np.zeros((inst.num_entries, inst.k), dtype=bool)
            for d in range(inst.num_entries):
                bits[d, rng.choice(inst.k, int(rng.integers(inst.t)), replace=False)] = True
            ev, calls = IncrementalEvaluator(inst, Assignment(bits)), []
            ours = np.random.default_rng(seed)
            windows = ev.windows
            ev.windows = lambda entries: calls.append(entries.size) or windows(entries)
            construction(inst, params, ours, evaluator=ev)
            ref, theirs = IncrementalEvaluator(inst, Assignment(bits)), np.random.default_rng(seed)
            _per_pass_myopic(ref, params, theirs)
            assert np.array_equal(ev.bits, ref.bits), (inst.model, params)
            assert np.asarray(ev.fprime).tobytes() == np.asarray(ref.fprime).tobytes()
            assert ours.bit_generator.state == theirs.bit_generator.state
            assert calls[0] > calls[-1]
            rebuilt += len(calls) - 1
    assert rebuilt >= 4


def _in_lockstep(ev, ref, lists, paired):
    """Make ``ev.apply`` apply each move to ref too and compare the two
    states bitwise after it, and the kernel rows of a removal before it;
    ``paired`` records whether each removal drops an active pair."""
    apply = ev.apply

    def both(move):
        if move.kind != "add":
            d, a = move.entry, move.from_adversary
            ((u, norm_u, dots), new_f), ((ru, rnorm_u, rdots), rnew_f) = (
                ev.kernel.row(ev, d, a, False), ref.kernel.row(ref, d, a, False))
            assert (u, norm_u) == (ru, rnorm_u)
            assert dots.tobytes() == rdots.tobytes() and new_f.tobytes() == rnew_f.tobytes()
            paired.append(bool(ev.bits[lists[d][0], a].any()))
        apply(move)
        ref.apply(move)
        for name in ("kernel.norms", "kernel.dots", "f_ap", "fprime", "f_row_sum"):
            got, want = attrgetter(name)(ev), attrgetter(name)(ref)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (move, name)
        assert ev.f == ref.f

    ev.apply = both


def test_cosine_walks_equal_pair_list_flips_bitwise():
    # Add, remove and swap walks outside any window, from a random
    # assignment, against the flips of the per-entry pair lists.
    loc = _small_location_instance(k=3)
    desk = [random_small_instance(400 + s, "cosine") for s in range(12)]
    rng = np.random.default_rng(17)
    paired = []
    for base, steps in [(loc, 400)] + [(inst, 60) for inst in desk]:
        lists = _entry_pair_lists(base)
        for aggregation in ("average", "worst"):
            inst = _with_model(base, aggregation)
            bits = np.zeros((inst.num_entries, inst.k), dtype=bool)
            for d in range(inst.num_entries):
                bits[d, rng.choice(inst.k, int(rng.integers(1, inst.t + 1)), replace=False)] = True
            ev = IncrementalEvaluator(inst, Assignment(bits))
            _in_lockstep(ev, _reference_evaluator(inst, Assignment(bits)), lists, paired)
            _random_walk(ev, rng, steps)
    assert sum(paired) > 200, sum(paired)


# -- local search ----------------------------------------------------------------

def test_local_search_takes_improving_swap():
    inst = plain([[0.1, 0.9]], t=1)
    start = Assignment(np.array([[True, False]]))
    a, g, moved = local_search(inst, start, np.random.default_rng(0))
    assert moved == 1
    assert a.bits.tolist() == [[False, True]]
    assert g == pytest.approx(1.0)


def test_local_search_keeps_local_optimum():
    inst = plain([[0.9, 0.1], [0.1, 0.8]], t=1)
    start = Assignment(np.array([[True, False], [False, True]]))
    a, _, moved = local_search(inst, start, np.random.default_rng(1))
    assert moved == 0
    assert a == start


def test_local_search_never_decreases_objective():
    for trial in range(30):
        inst = random_small_instance(trial)
        rng = np.random.default_rng(trial)
        ev = IncrementalEvaluator(inst)
        _, g_con, _ = construction(inst, SearchParams("grasp", "myopic", n=2), rng, evaluator=ev)
        _, g_ls, _ = local_search(inst, None, rng, evaluator=ev)
        assert g_ls >= g_con - 1e-12


# -- local-search gain screen -------------------------------------------------------

def _random_walk(ev, rng, steps):
    """Random legal adds, removes and swaps, down to entries with no
    adversary, so the states are not local optima."""
    inst = ev.inst
    for _ in range(steps):
        d = int(rng.integers(inst.num_entries))
        held, free = np.flatnonzero(ev.bits[d]), np.flatnonzero(~ev.bits[d])
        kind = int(rng.integers(3))
        if kind == 0 and free.size and held.size < inst.t:
            ev.apply(Move("add", d, to_adversary=int(rng.choice(free))))
        elif kind == 1 and held.size:
            ev.apply(Move("remove", d, from_adversary=int(rng.choice(held))))
        elif held.size and free.size:
            ev.apply(Move("swap", d, from_adversary=int(rng.choice(held)),
                          to_adversary=int(rng.choice(free))))


def _with_lam(inst, lam):
    return validate_instance(Instance(
        inst.hypergraph, inst.utility_weights, inst.k, inst.t, lam, inst.tau,
        inst.model, inst.entries,
    ))


def _small_location_instance(k=5):
    lines, friends = synthetic_checkin_lines(num_users=40, num_edges=50, num_entries=300, seed=4)
    return build_location_instance(ingest_checkins(lines).entries, friends, k=k, t=2, seed=4)


# Realistic shapes, reached by global greedy construction: its column
# cache is current when it stops, and the walk that follows flips
# adversaries after the columns were computed.
_WORST_SHAPE = (SynthConfig(400, 500, k=10, t=2, seed=1), DisclosureModel("linear", "worst"))
_AVERAGE_SHAPE = (SynthConfig(500, 50, k=5, t=1, seed=1), DisclosureModel("linear", "average"))


def _screen_cases():
    """(instance, construction scope) pairs: every family x aggregation at
    desk scale (also with lam = 0, where an unbounded disclosure term must
    not turn into 0 * inf), a mid-size linear/worst instance and cosine
    location instances (k=2 has swaps whose other-adversary max is empty),
    all built myopically, and the 400x500 linear/worst k=10 t=2 and
    500x50 linear/average k=5 t=1 shapes built globally."""
    seen, insts = set(), []
    for family in ("step", "linear", "quadratic", "cosine"):
        for seed in range(12):
            inst = random_small_instance(300 + seed, family)
            seen.add((family, inst.model.aggregation))
            insts += [inst, _with_lam(inst, 0.0)]
    assert len(seen) == 8
    cfg = SynthConfig(num_entries=150, num_properties=30, k=5, t=2, seed=3)
    insts.append(generate_instance(cfg, model=DisclosureModel("linear", "worst")))
    insts += [_small_location_instance(), _small_location_instance(k=2)]
    return ([(inst, "myopic") for inst in insts]
            + [(generate_instance(*shape), "global") for shape in (_WORST_SHAPE, _AVERAGE_SHAPE)])


def _walked_evaluator(inst, seed, scope):
    rng = np.random.default_rng(seed)
    ev = IncrementalEvaluator(inst)
    construction(inst, SearchParams("greedy", scope), rng, evaluator=ev)
    _random_walk(ev, rng, max(4, inst.num_entries // 10))
    return ev


def test_gain_bounds_cover_every_neighbor_gain():
    for i, (inst, scope) in enumerate(_screen_cases()):
        ev = _walked_evaluator(inst, i, scope)
        rng = np.random.default_rng(i)
        for _ in range(3):
            bound = ev.neighborhood_gain_bounds()
            for d in range(inst.num_entries):
                best = max((g for _, g in ev.neighborhood_gains(d)), default=-np.inf)
                assert bound[d] >= best, (i, d)  # exact: the skip must be safe in float
            _random_walk(ev, rng, 3)


def test_addition_gains_are_one_expression_on_every_path():
    # neighborhood_gains scores its additions from the cached columns,
    # add_gain_row from a window and the bound on the (|D|, k) matrix; all
    # three must evaluate the same expression to the same bits.
    rows = tight = 0
    for i, (inst, scope) in enumerate(_screen_cases()):
        ev = _walked_evaluator(inst, i, scope)
        bound = ev.neighborhood_gain_bounds()
        for d in range(inst.num_entries):
            moves = ev.neighborhood_gains(d)
            adds = [(m.to_adversary, g) for m, g in moves if m.kind == "add"]
            if adds:
                row = ev.add_gain_row(d)
                assert [float(g).hex() for _, g in adds] == \
                    [float(row[b]).hex() for b, _ in adds], (i, d)
                rows += 1
            if moves and len(adds) == len(moves):
                # An entry with no adversary: its bound is its best gain.
                assert bound[d] == max(g for _, g in adds), (i, d)
                tight += 1
    assert rows > 500 and tight > 40


def test_gain_bound_keeps_quadratic_floor_as_removed_sums_clamp_at_zero():
    # Weights 1 and 2**-53 on one property: adding both to adversary 0 and
    # removing them again would leave its running sum at -2**-53 in plain
    # float arithmetic. Weights are nonnegative, so removal clamps the sum
    # at 0; the bound, which floors at the columns, still covers every gain.
    props = [SensitiveProperty(0, (0, 1), (1.0, 2.0**-53)),
             SensitiveProperty(1, (2, 3), (2.0**-40, 1.0 - 2.0**-40))]
    w = np.array([[0.5, 0.5], [0.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
    inst = validate_instance(Instance(DependencyHypergraph(4, props), w, k=2, t=2,
                                      model=DisclosureModel("quadratic", "average")))
    ev = CheckedEvaluator(inst)
    for move in (Move("add", 1, to_adversary=0), Move("add", 0, to_adversary=0),
                 Move("remove", 1, from_adversary=0), Move("remove", 0, from_adversary=0),
                 Move("add", 2, to_adversary=0), Move("add", 1, to_adversary=1)):
        ev.apply(move)
    assert ev.kernel.s.min() >= 0.0
    bound = ev.neighborhood_gain_bounds()
    for d in range(inst.num_entries):
        best = max((g for _, g in ev.neighborhood_gains(d)), default=-np.inf)
        assert bound[d] >= best, d


def _reference_local_search(ev, rng):
    """The unscreened pass: score every entry's neighbors."""
    applied = 0
    for d in rng.permutation(ev.inst.num_entries):
        best_move, best_gain = None, 0.0
        for move, gain in ev.neighborhood_gains(int(d)):
            if gain > best_gain:
                best_gain, best_move = gain, move
        if best_move is not None:
            ev.apply(best_move)
            applied += 1
    return applied


def test_screened_local_search_matches_unscreened_reference():
    total = 0
    for i, (inst, scope) in enumerate(_screen_cases()):
        ours, ref = _walked_evaluator(inst, i, scope), _walked_evaluator(inst, i, scope)
        ours_rng, ref_rng = np.random.default_rng(i), np.random.default_rng(i)
        _, value, moved = local_search(inst, None, ours_rng, evaluator=ours)
        assert moved == _reference_local_search(ref, ref_rng)
        assert np.array_equal(ours.bits, ref.bits)
        assert value == ref.objective
        assert ours_rng.bit_generator.state == ref_rng.bit_generator.state
        total += moved
    assert total > 0


def test_local_search_skips_entries_on_location_instance():
    # Cosine average floors additions and swaps at the entry's own column
    # entry, so after either construction no entry needs scoring.
    for k in (5, 2):
        inst = _small_location_instance(k=k)
        for scope in ("myopic", "global"):
            rng = np.random.default_rng(0)
            ev = IncrementalEvaluator(inst)
            construction(inst, SearchParams("greedy", scope), rng, evaluator=ev)
            scored = []
            scan = ev.neighborhood_gains
            ev.neighborhood_gains = lambda d: scored.append(d) or scan(d)
            local_search(inst, None, rng, evaluator=ev)
            assert scored == [], (k, scope, len(scored))


def test_screen_skips_most_entries_after_global_construction_at_scale():
    # Worst aggregation with t=2: without the column floor every entry
    # holding one recipient has a positive addition bound.
    inst = generate_instance(*_WORST_SHAPE)
    rng = np.random.default_rng(1)
    ev = IncrementalEvaluator(inst)
    construction(inst, SearchParams("greedy", "global"), rng, evaluator=ev)
    scored = []
    scan = ev.neighborhood_gains
    ev.neighborhood_gains = lambda d: scored.append(d) or scan(d)
    local_search(inst, None, rng, evaluator=ev)
    assert len(scored) <= inst.num_entries // 10


# -- outer loop -------------------------------------------------------------------

def test_solve_unconstrained_greedy_hits_top_t():
    rng = np.random.default_rng(2)
    w = rng.random((6, 3))
    inst = plain(w, k=3, t=2)
    res = solve(inst, SearchParams("greedy", "global", seed=0))
    assert res.objective.utility == pytest.approx(1.0)
    assert res.objective.disclosure == 0.0


def test_solve_is_deterministic():
    inst = random_small_instance(23)
    a = solve(inst, SearchParams("grasp", "myopic", n=3, r=4, seed=99))
    b = solve(inst, SearchParams("grasp", "myopic", n=3, r=4, seed=99))
    assert np.array_equal(a.assignment.bits, b.assignment.bits)
    assert a.objective == b.objective
    assert a.iterations == b.iterations


def test_grasp_n1_matches_greedy_bitwise():
    for seed in range(10):
        inst = random_small_instance(100 + seed)
        for scope in ("global", "myopic"):
            g = solve(inst, SearchParams("greedy", scope, seed=seed))
            r = solve(inst, SearchParams("grasp", scope, n=1, seed=seed))
            assert np.array_equal(g.assignment.bits, r.assignment.bits)
            assert g.objective.value == pytest.approx(r.objective.value, abs=1e-15)


def test_solve_result_is_recomputable():
    inst = random_small_instance(55)
    res = solve(inst, SearchParams("grasp", "global", n=2, r=3, seed=5))
    again = tradeoff_objective(inst, res.assignment)
    assert res.objective.value == pytest.approx(again.value, abs=1e-9)
    assert res.per_property_disclosure.shape == (inst.num_properties,)
