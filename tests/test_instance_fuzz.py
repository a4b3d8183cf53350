"""Fuzz the instance loader and validation: a mutated instance document
either loads as a validated instance or raises ``InstanceError``, nothing
else; validate_instance builds the same tables, or raises the same
message, as a copy of its per-member loop."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privpart import InstanceError, instance_from_json, instance_to_json
from privpart.instance import (
    WEIGHT_SUM_TOL,
    DependencyHypergraph,
    DisclosureModel,
    Instance,
    SensitiveProperty,
    _build_weight_matrix,
    _conflict_keys,
    _cosine_tables,
    _row_sums,
    _transpose,
    check_k_t,
    validate_instance,
)
from privpart.synth import random_small_instance

# Small integers only: a mutated count must not ask for a large allocation.
_VALUES = (st.none() | st.booleans() | st.integers(-3, 12) | st.floats()
           | st.text(max_size=4) | st.lists(st.integers(-2, 8), max_size=3)
           | st.just({}))


def _slots(doc) -> list:
    """Every (container, key) slot of a JSON document, depth first."""
    out = []
    for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        out.append((doc, key))
        if isinstance(value, (dict, list)):
            out.extend(_slots(value))
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 500), st.data())
def test_fuzz_instance_from_json_raises_only_instance_error(seed, data):
    # random_small_instance covers all four families; cosine ones carry
    # (user, location, count) entries.
    doc = json.loads(instance_to_json(random_small_instance(seed)))
    for _ in range(data.draw(st.integers(1, 3))):
        slots = _slots(doc)
        if not slots:
            break
        parent, key = data.draw(st.sampled_from(slots))
        if data.draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = data.draw(_VALUES)
    text = json.dumps(doc)
    if data.draw(st.booleans()):
        text = text[: data.draw(st.integers(0, len(text)))]
    try:
        inst = instance_from_json(text)
    except InstanceError:
        return
    assert inst.validated


# -- validate_instance against a copy of its per-membership loop ----------------

def _reference_validate(raw):
    """A copy of validate_instance as it checked each property member by
    member in Python; the tables come from the same builders."""
    if raw.validated:
        return raw
    hg = raw.hypergraph
    if hg.num_entries <= 0:
        raise InstanceError("instance has no data entries")
    check_k_t(raw.k, raw.t)
    if not (0.0 <= raw.lam <= 1.0):
        raise InstanceError(f"lambda must lie in [0, 1], got {raw.lam}")
    if not (0.0 <= raw.tau <= 1.0):
        raise InstanceError(f"tau must lie in [0, 1], got {raw.tau}")
    if raw.utility_weights.shape != (hg.num_entries, raw.k):
        raise InstanceError(
            f"utility weight matrix has shape {raw.utility_weights.shape}, "
            f"expected {(hg.num_entries, raw.k)}"
        )
    if not np.all(np.isfinite(raw.utility_weights)):
        raise InstanceError("utility weights must be finite")
    if np.any(raw.utility_weights < 0):
        raise InstanceError("utility weights must be nonnegative")
    if raw.entries is not None:
        if len(raw.entries) != hg.num_entries:
            raise InstanceError("entry list length does not match num_entries")
        for i, e in enumerate(raw.entries):
            if e.id != i:
                raise InstanceError(f"entry ids must be dense, got {e.id} at position {i}")
    family = raw.model.family
    for pid, p in enumerate(hg.properties):
        if p.id != pid:
            raise InstanceError(f"property ids must be dense, got {p.id} at position {pid}")
        if not p.members:
            raise InstanceError(f"property {p.id} has empty member set")
        if len(set(p.members)) != len(p.members):
            raise InstanceError(f"property {p.id} has duplicate members")
        for d in p.members:
            if not (0 <= d < hg.num_entries):
                raise InstanceError(f"property {p.id} member {d} out of range")
        if p.weights is not None:
            if len(p.weights) != len(p.members):
                raise InstanceError(f"property {p.id}: weights not aligned with members")
            if not all(math.isfinite(w) for w in p.weights):
                raise InstanceError(f"property {p.id}: non-finite weight")
            if any(w < 0 for w in p.weights):
                raise InstanceError(f"property {p.id}: negative weight")
            total = float(sum(p.weights))
            if abs(total - 1.0) > WEIGHT_SUM_TOL:
                raise InstanceError(f"property {p.id}: weights sum {total:.10g} != 1")
        elif family in ("linear", "quadratic"):
            raise InstanceError(f"{family} disclosure requires weights on property {p.id}")
    raw._weight_matrix = _build_weight_matrix(raw)
    raw._sizes = np.diff(raw._weight_matrix.indptr)
    raw._entry_weights = ew = _transpose(raw._weight_matrix, hg.num_entries)
    raw._entry_colsum = _row_sums(ew.indptr, ew.data) if family == "linear" else None
    raw._entry_sqsum = None
    if family == "quadratic":
        sq = ew.data**2
        kept = sq != 0.0
        raw._entry_sqsum = _row_sums(np.concatenate(([0], np.cumsum(kept)))[ew.indptr], sq[kept])
    top = np.sort(raw.utility_weights, axis=1)[:, ::-1][:, : raw.t]
    raw._top_t_sum = top.sum(axis=1)
    raw._normalizer = float(raw._top_t_sum.sum())
    raw._cosine = _cosine_tables(raw) if family == "cosine" else None
    raw._conflict_keys = _conflict_keys(raw)
    raw.dimension_warning = hg.num_properties > 0 and raw._sizes.max() <= raw.k
    raw.validated = True
    return raw


def _arrays(inst) -> list:
    """Every table validate_instance derives, as (dtype, shape, bytes)."""
    wm, ew = inst._weight_matrix, inst._entry_weights
    arrays = [wm.data, wm.indices, wm.indptr, ew.data, ew.indices, ew.indptr, inst._sizes,
              inst._entry_colsum, inst._entry_sqsum, inst._top_t_sum, *inst._conflict_keys]
    return [None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in arrays] + [
        wm.shape, ew.shape, inst._normalizer, inst.dimension_warning, inst._cosine is None]


def _outcome(validate, make):
    """The tables validate builds on a fresh instance from make, or the
    InstanceError message it raises."""
    try:
        return _arrays(validate(make()))
    except InstanceError as exc:
        return f"InstanceError: {exc}"


def _assert_same_outcome(make):
    want = _outcome(_reference_validate, make)
    assert _outcome(validate_instance, make) == want
    return want


def _with_properties(base, props):
    """A fresh unvalidated copy of base with its properties replaced."""
    return lambda: Instance(DependencyHypergraph(base.num_entries, props),
                            base.utility_weights.copy(), base.k, base.t, base.lam, base.tau,
                            base.model, base.entries)


_MEMBERS = (st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True)
            | st.lists(st.integers(-2, 8), max_size=6)).map(tuple)
_WEIGHTS = st.none() | st.lists(st.floats() | st.integers(-1, 2), max_size=6).map(tuple) | \
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6).map(
        lambda xs: tuple((np.array(xs) + 0.25) / sum(x + 0.25 for x in xs)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 500), st.data())
def test_validate_matches_the_per_member_loop(seed, data):
    # Every family's desk instance, with up to three properties replaced
    # or appended: integer members in and out of range, repeated or none;
    # weights absent, unaligned, non-finite, negative, mis-summed or
    # normalized (which also makes numpy floats).
    base = random_small_instance(seed)
    props = list(base.hypergraph.properties)
    for _ in range(data.draw(st.integers(0, 3))):
        pos = data.draw(st.integers(0, len(props)))
        members = data.draw(_MEMBERS)
        weights = data.draw(_WEIGHTS)
        if data.draw(st.booleans()) and weights is not None and len(weights) != len(members):
            weights = (weights * (len(members) + 1))[:len(members)] or None
        pid = pos + (data.draw(st.integers(0, 9)) == 9)
        props[pos:pos + 1] = [SensitiveProperty(pid, members, weights)]
    _assert_same_outcome(_with_properties(base, props))


def _linear_base():
    return validate_instance(Instance(
        DependencyHypergraph(5, [SensitiveProperty(0, (0, 2, 4), (0.25, 0.25, 0.5))]),
        np.full((5, 2), 0.5), k=2, t=1, model=DisclosureModel("linear", "worst")))


@pytest.mark.parametrize("members, weights, message", [
    ((), (), "property 1 has empty member set"),
    ((0, 3, 0), (0.5, 0.25, 0.25), "property 1 has duplicate members"),
    ((5, 1, 2), (0.5, 0.25, 0.25), "property 1 member 5 out of range"),
    ((1, -1, 2), (0.5, 0.25, 0.25), "property 1 member -1 out of range"),
    ((1, 2, 7), (0.5, 0.25, 0.25), "property 1 member 7 out of range"),
    ((-2, 9, 2), (0.5, 0.25, 0.25), "property 1 member -2 out of range"),
    ((1, 2, 3), (float("nan"), 0.5, 0.5), "property 1: non-finite weight"),
    ((1, 2, 3), (0.5, 0.5, float("nan")), "property 1: non-finite weight"),
    ((1, 2, 3), (0.5, float("-inf"), 0.5), "property 1: non-finite weight"),
    ((1, 2, 3), (0.5, 0.5), "property 1: weights not aligned with members"),
    ((1, 2, 3), (0.5, -0.25, 0.75), "property 1: negative weight"),
    ((1, 2, 3), (0.5, 0.25, 0.5), "property 1: weights sum 1.25 != 1"),
    ((1, 2, 3), (1e308, 1e308, 0.0), "property 1: weights sum inf != 1"),
    ((1, 2, 3), None, "linear disclosure requires weights on property 1"),
    ((3, np.int64(1), 2), (0.5, 0.25, np.float64(0.25)), None),
], ids=["empty", "duplicate", "first-out-of-range", "middle-out-of-range",
        "last-out-of-range", "two-out-of-range", "nan-first", "nan-last", "infinite",
        "misaligned", "negative", "mis-summed", "overflowing-sum", "no-weights",
        "valid-numpy-numbers"])
def test_validate_mutated_property_matches_the_per_member_loop(members, weights, message):
    base = _linear_base()
    props = [*base.hypergraph.properties, SensitiveProperty(1, members, weights)]
    got = _assert_same_outcome(_with_properties(base, props))
    assert got == f"InstanceError: {message}" if message else isinstance(got, list)
