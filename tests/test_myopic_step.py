"""The myopic construction step on Python floats: ``add_gain_row``'s list
of gains, selection by adversary, ``IncrementalEvaluator.add`` and the
skipped draw of a one-candidate list, each against the loop it replaced,
kept here: an ndarray row from ``_gain`` and the excluded-max table,
selection into a ``Move`` with a draw for every list, and ``apply``."""

from itertools import product

import numpy as np

from privpart import (
    Assignment,
    DisclosureModel,
    Instance,
    Move,
    SearchParams,
    SynthConfig,
    build_location_instance,
    construction,
    generate_instance,
    ingest_checkins,
    synthetic_checkin_lines,
    validate_instance,
)
from privpart.evaluator import IncrementalEvaluator
from privpart.heuristics import RCL_ALPHA


def _variant(inst, aggregation, lam):
    return validate_instance(Instance(
        inst.hypergraph, inst.utility_weights, inst.k, inst.t, lam, inst.tau,
        DisclosureModel(inst.model.family, aggregation), inst.entries,
    ))


def _location_instance():
    lines, friends = synthetic_checkin_lines(num_users=40, num_edges=50, num_entries=300, seed=4)
    return build_location_instance(ingest_checkins(lines).entries, friends, k=4, t=2, seed=4)


def _sums_instance(family, seed=70):
    """Sparse enough that most windows hold several entries, some of them
    in no property."""
    return generate_instance(SynthConfig(120, 30, k=3, t=2, p_f=0.03, seed=seed),
                             model=DisclosureModel(family, "average"))


def _bases():
    return [_location_instance()] + [_sums_instance(f, 71 + i)
                                     for i, f in enumerate(("step", "linear", "quadratic"))]


def _reference_gain_row(ev, d):
    """The ndarray row: ``_gain`` per adversary at the max of the
    excluded-max table's diagonal and the adversary's new aggregate."""
    agg, gain = ev._add_aggregates(d), ev._gain
    bonus = 1.0 if ev.counts[d] == 0 else 0.0
    return np.array([-np.inf if held else gain(u, max(x, y), bonus) for u, x, y, held in
                     zip(ev._uz[d].tolist(), ev._excluded_max()[0], agg, ev.bits[d].tolist())])


def _reference_select_row(d, gains, params, rng, sizes):
    """Selection into a Move, drawing ``rng.integers(len(list))`` for
    every list; ``sizes`` records the list lengths."""
    row = gains.tolist()
    if params.strategy == "greedy":
        g_best = max(row)
        if not g_best > 0.0:
            return None
        return Move("add", d, to_adversary=row.index(g_best))
    ranked = sorted([(-g, a) for a, g in enumerate(row) if g > 0.0])
    if not ranked:
        return None
    g_max, g_min = -ranked[0][0], -ranked[-1][0]
    cut = g_max - RCL_ALPHA * (g_max - g_min)
    top = [a for neg, a in ranked[: params.n] if -neg >= cut]
    sizes.append(len(top))
    return Move("add", d, to_adversary=top[rng.integers(len(top))])


def _reference_myopic(ev, params, rng, sizes):
    """The myopic construction loop with the reference row, selection and
    ``apply``; returns every row it scored."""
    inst, rows = ev.inst, []
    order = rng.permutation(inst.num_entries)
    for _ in range(inst.t):
        for window, layout in ev.window_layouts(order[ev.counts[order] < inst.t]):
            ev.open_window(layout)
            for d in window:
                rows.append(_reference_gain_row(ev, d))
                move = _reference_select_row(d, rows[-1], params, rng, sizes)
                if move is not None:
                    ev.apply(move)
    return rows


def _reference_global(ev, params, rng, sizes):
    """Global GRASP: every improving candidate ordered by (-gain, flat
    index), the first n kept and one drawn, also from a list of one."""
    inst = ev.inst
    for _ in range(inst.t * inst.num_entries):
        gains = ev.add_gain_matrix()
        flat_gains = gains.ravel()
        improving = np.flatnonzero(flat_gains > 0.0)
        if improving.size == 0:
            break
        top = improving[np.lexsort((improving, -flat_gains[improving]))][: params.n]
        sizes.append(top.size)
        flat = int(top[rng.integers(top.size)])
        ev.apply(Move("add", flat // inst.k, to_adversary=flat % inst.k))


def _recorded_myopic(inst, params, seed):
    """Myopic construction, recording every ``add_gain_row`` result."""
    ev, rows = IncrementalEvaluator(inst), []
    gain_row = ev.add_gain_row
    ev.add_gain_row = lambda d: rows.append(gain_row(d)) or rows[-1]
    rng = np.random.default_rng(seed)
    construction(inst, params, rng, evaluator=ev)
    return ev, rng, rows


def test_integers_of_one_leaves_the_generator_unchanged():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        assert rng.integers(1) == 0
        assert rng.bit_generator.state == state


def test_constructions_equal_loops_that_always_draw():
    # One-candidate lists draw nothing, so the bits and the generator's
    # final state equal those of loops that draw for every list.
    for inst in (_location_instance(), _sums_instance("linear")):
        singles = 0
        for params, reference in ((SearchParams("grasp", "myopic", n=3), _reference_myopic),
                                  (SearchParams("grasp", "global", n=5), _reference_global)):
            for seed in range(2):
                ev, ours = IncrementalEvaluator(inst), np.random.default_rng(seed)
                construction(inst, params, ours, evaluator=ev)
                ref, theirs, sizes = IncrementalEvaluator(inst), np.random.default_rng(seed), []
                reference(ref, params, theirs, sizes)
                assert np.array_equal(ev.bits, ref.bits), (params, seed)
                assert ours.bit_generator.state == theirs.bit_generator.state
                singles += sizes.count(1)
                assert any(size > 1 for size in sizes)
        assert singles > 0


def test_myopic_gains_and_state_equal_the_ndarray_loop_bitwise():
    for base, aggregation, lam in product(_bases(), ("worst", "average"), (0.0, 0.7)):
        inst = _variant(base, aggregation, lam)
        for seed, params in enumerate((SearchParams("greedy", "myopic"),
                                       SearchParams("grasp", "myopic", n=3))):
            ev, ours, rows = _recorded_myopic(inst, params, seed)
            ref, theirs = IncrementalEvaluator(inst), np.random.default_rng(seed)
            ref_rows = _reference_myopic(ref, params, theirs, [])
            case = (inst.model, lam, params.strategy)
            assert len(rows) == len(ref_rows) > inst.num_entries, case
            assert all(type(g) is float for row in rows for g in row)
            for row, want in zip(rows, ref_rows):
                assert np.array(row).tobytes() == want.tobytes(), case
            for name in ("bits", "fprime", "f_row_sum"):
                got, want = np.asarray(getattr(ev, name)), np.asarray(getattr(ref, name))
                assert got.tobytes() == want.tobytes(), (case, name)
            assert float(ev.f).hex() == float(ref.f).hex()
            assert ours.bit_generator.state == theirs.bit_generator.state


def test_gain_rows_equal_the_ndarray_rows_from_random_states():
    # From random assignments the adversary of the largest aggregate is
    # often free, and under cosine an addition can lower its aggregate
    # below the largest one, so both excluded values are read.
    rng = np.random.default_rng(3)
    for base, aggregation, lam in product(_bases(), ("worst", "average"), (0.0, 0.7)):
        inst = _variant(base, aggregation, lam)
        bits = np.zeros((inst.num_entries, inst.k), dtype=bool)
        for d in range(inst.num_entries):
            bits[d, rng.choice(inst.k, int(rng.integers(inst.t + 1)), replace=False)] = True
        ev = IncrementalEvaluator(inst, Assignment(bits))
        for d in range(inst.num_entries):
            want = _reference_gain_row(ev, d)
            assert np.array(ev.add_gain_row(d)).tobytes() == want.tobytes(), (inst.model, lam, d)
