import json

import numpy as np
import pytest
import scipy.sparse as sp

from privpart import (
    Assignment,
    DataEntry,
    DependencyHypergraph,
    DisclosureModel,
    Instance,
    InstanceError,
    Move,
    MoveError,
    SensitiveProperty,
    SynthConfig,
    generate_instance,
    instance_from_json,
    instance_to_json,
    random_small_instance,
    validate_instance,
)


def small_instance(model=DisclosureModel("step", "worst"), k=2, t=1, weights=None):
    hg = DependencyHypergraph(2, [SensitiveProperty(0, (0, 1), weights)])
    w = np.array([[0.9, 0.1], [0.1, 0.8]])
    return Instance(hg, w, k=k, t=t, model=model)


def test_validate_small_instance_sets_dimension_warning():
    inst = validate_instance(small_instance())
    # largest hyperedge (2) does not exceed k=2: flagged, not rejected
    assert inst.validated
    assert inst.dimension_warning


def test_validate_rejects_t_exceeding_k():
    with pytest.raises(InstanceError, match="t exceeds k"):
        validate_instance(small_instance(k=2, t=3))


def test_validate_rejects_bad_weight_sum():
    bad = small_instance(
        model=DisclosureModel("linear", "worst"), weights=(0.5, 0.6)
    )
    with pytest.raises(InstanceError, match="sum"):
        validate_instance(bad)


def test_validate_rejects_empty_entries_negative_weights_empty_members():
    with pytest.raises(InstanceError, match="no data entries"):
        validate_instance(Instance(DependencyHypergraph(0, []), np.zeros((0, 2)), 2, 1))
    hg = DependencyHypergraph(2, [SensitiveProperty(0, ())])
    with pytest.raises(InstanceError, match="empty member"):
        validate_instance(Instance(hg, np.ones((2, 2)), 2, 1))
    inst = small_instance()
    inst.utility_weights[0, 0] = -0.5
    with pytest.raises(InstanceError, match="nonnegative"):
        validate_instance(inst)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_validate_rejects_non_finite_property_weights(bad):
    # NaN passes both the sign and the sum check, as every comparison with
    # it is False; the evaluator would then fail deep inside a solve.
    inst = small_instance(model=DisclosureModel("linear", "worst"), weights=(bad, 1.0))
    with pytest.raises(InstanceError, match="non-finite weight"):
        validate_instance(inst)
    doc = json.loads(instance_to_json(validate_instance(
        small_instance(model=DisclosureModel("linear", "worst"), weights=(0.5, 0.5)))))
    doc["properties"][0]["weights"] = [bad, 1.0]
    with pytest.raises(InstanceError, match="non-finite weight"):
        instance_from_json(json.dumps(doc))  # the json module reads NaN and Infinity


def _incidence_documents():
    """Instance documents whose members are listed out of order, with zero
    weights and, for step, weights that the step family ignores."""
    base = {"num_entries": 6, "num_adversaries": 2, "t": 1, "lambda": 1.0, "tau_I": 0.0,
            "utility_weights": [[0.5, 0.5]] * 6}
    props = [{"id": 0, "members": [4, 0, 2], "weights": [0.25, 0.0, 0.75]},
             {"id": 1, "members": [5, 3, 1, 0], "weights": [0.0, 0.5, 0.5, 0.0]},
             {"id": 2, "members": [2], "weights": [1.0]}]
    for family in ("step", "linear", "quadratic"):
        yield json.dumps({**base, "model": {"family": family, "aggregation": "worst"},
                          "properties": props})
    yield json.dumps({**base, "model": {"family": "step", "aggregation": "average"},
                      "properties": [{**p, "weights": None} for p in props]})


def test_incidence_matrix_matches_per_membership_reference():
    insts = [instance_from_json(text) for text in _incidence_documents()]
    insts += [random_small_instance(seed, family) for seed in range(10)
              for family in ("step", "linear", "quadratic", "cosine")]
    for inst in insts:
        num_p, num_d = inst.num_properties, inst.num_entries
        member = np.zeros((num_p, num_d), dtype=bool)
        value = np.zeros((num_p, num_d))
        for p in inst.hypergraph.properties:
            weights = p.weights if p.weights is not None else [1.0] * len(p.members)
            for d, a_dp in zip(p.members, weights):
                member[p.id, d] = True
                value[p.id, d] = a_dp if inst.model.family in ("linear", "quadratic") else 1.0
        for matrix, member_of, value_of in ((inst._weight_matrix, member, value),
                                            (inst._entry_weights, member.T, value.T)):
            assert matrix.shape == member_of.shape and matrix.has_sorted_indices
            for row in range(member_of.shape[0]):
                cols = matrix.indices[matrix.indptr[row]:matrix.indptr[row + 1]]
                assert cols.tolist() == np.flatnonzero(member_of[row]).tolist()
                # Zero weights stay in the pattern: a member with a_dp = 0
                # is still one of the entry's properties.
                assert matrix.data[matrix.indptr[row]:matrix.indptr[row + 1]].tolist() == \
                    value_of[row, cols].tolist()
        assert inst._sizes.tolist() == member.sum(axis=1).tolist()


def test_validate_requires_weights_for_linear():
    with pytest.raises(InstanceError, match="requires weights"):
        validate_instance(small_instance(model=DisclosureModel("linear", "worst")))


def test_validate_is_idempotent():
    inst = validate_instance(small_instance())
    assert validate_instance(inst) is inst


def test_property_free_instance_is_valid():
    inst = Instance(DependencyHypergraph(3, []), np.ones((3, 2)), k=2, t=1)
    assert validate_instance(inst).num_properties == 0


def test_move_field_consistency():
    with pytest.raises(MoveError):
        Move("swap", 0, from_adversary=1, to_adversary=1)
    with pytest.raises(MoveError):
        Move("add", 0, from_adversary=1)
    with pytest.raises(MoveError):
        Move("remove", 0, to_adversary=1)


def test_json_roundtrip_is_exact():
    inst = validate_instance(
        small_instance(model=DisclosureModel("linear", "average"), weights=(0.5, 0.5))
    )
    text = instance_to_json(inst)
    back = instance_from_json(text)
    assert instance_to_json(back) == text
    assert back.k == inst.k and back.t == inst.t
    assert np.array_equal(back.utility_weights, inst.utility_weights)


def test_json_schema_keys():
    doc = json.loads(instance_to_json(validate_instance(small_instance())))
    assert set(doc) == {
        "num_entries", "num_adversaries", "t", "lambda", "tau_I",
        "model", "properties", "utility_weights",
    }
    assert set(doc["model"]) == {"family", "aggregation"}
    assert set(doc["properties"][0]) == {"id", "members", "weights"}


def test_json_roundtrip_with_payloads():
    entries = [DataEntry(0, ("u1", "L1", 2)), DataEntry(1, ("u2", "L1", 1))]
    hg = DependencyHypergraph(2, [SensitiveProperty(0, (0, 1))])
    inst = validate_instance(
        Instance(hg, np.ones((2, 2)), 2, 1, model=DisclosureModel("cosine", "average"),
                 entries=entries)
    )
    back = instance_from_json(instance_to_json(inst))
    assert back.entries[0].payload == ("u1", "L1", 2)


def _mutated_document(path, value):
    doc = json.loads(instance_to_json(validate_instance(
        small_instance(model=DisclosureModel("linear", "average"), weights=(0.5, 0.5))
    )))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return json.dumps(doc)


@pytest.mark.parametrize("path, value", [
    (("properties", 0, "members", 0), "x"),
    (("num_adversaries",), "two"),
    (("utility_weights",), [[0.9, 0.1], [0.1]]),
    (("properties", 0, "members", 0), 0.7),
    (("t",), True),
    (("lambda",), True),
    (("tau_I",), "0.3"),
    (("properties", 0, "weights", 0), "0.5"),
    (("utility_weights", 0, 1), "0.1"),
    (("utility_weights", 1, 0), False),
], ids=["string-member", "string-count", "ragged-weights", "fractional-member", "bool-cap",
       "bool-lambda", "string-tau", "string-property-weight", "string-utility-weight",
       "bool-utility-weight"])
def test_json_loader_rejects_malformed_types(path, value):
    with pytest.raises(InstanceError):
        instance_from_json(_mutated_document(path, value))


def test_json_loader_accepts_integer_valued_floats():
    # Many JSON writers emit 1.0 as 1: an integer is a number, not a coercion.
    back = instance_from_json(_mutated_document(("lambda",), 1))
    assert back.lam == 1.0 and isinstance(back.lam, float)


@pytest.mark.parametrize("field, value", [(0, []), (1, {}), (1, None), (0, 1.5)],
                         ids=["list-user", "object-location", "null-location", "float-user"])
def test_json_loader_rejects_non_label_payload_fields(field, value):
    entries = [DataEntry(0, ("u1", "L1", 2)), DataEntry(1, ("u2", "L1", 1))]
    hg = DependencyHypergraph(2, [SensitiveProperty(0, (0, 1))])
    doc = json.loads(instance_to_json(validate_instance(
        Instance(hg, np.ones((2, 2)), 2, 1, model=DisclosureModel("cosine", "average"),
                 entries=entries))))
    doc["entries"][0][field] = value
    with pytest.raises(InstanceError, match="string or an integer"):
        instance_from_json(json.dumps(doc))


def _same_array(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_entry_tables_equal_the_scipy_built_ones_bitwise():
    # The entry-major transpose and its row sums, as validate_instance
    # builds them, against scipy's transpose, sum and multiply: criterion
    # 1's desk instances (all four families), and synthetic ones with
    # entries in no property and entries in a dozen.
    insts = [random_small_instance(1000 + i) for i in range(200)]
    for family in ("step", "linear", "quadratic"):
        for p_f in (0.02, 0.3):
            insts.append(generate_instance(SynthConfig(200, 40, k=3, t=2, p_f=p_f, seed=7),
                                           model=DisclosureModel(family, "average")))
    # Zero weights, which scipy's multiply leaves out of the squares, on
    # entries in up to twelve properties.
    rng = np.random.default_rng(3)
    props = []
    for pid in range(12):
        members = tuple(sorted(rng.choice(20, 10, replace=False).tolist()))
        w = rng.dirichlet(np.ones(10)) * (rng.random(10) < 0.7)
        w[0] += 1.0 - w.sum()
        props.append(SensitiveProperty(pid, members, tuple(w.tolist())))
    for family in ("linear", "quadratic"):
        insts.append(validate_instance(Instance(
            DependencyHypergraph(20, props), np.ones((20, 2)), k=2, t=1,
            model=DisclosureModel(family, "average"))))
    families = set()
    for inst in insts:
        families.add(inst.model.family)
        ew = sp.csr_matrix(inst._weight_matrix.T)
        assert inst._entry_weights.shape == ew.shape
        for name in ("data", "indices", "indptr"):
            assert _same_array(getattr(inst._entry_weights, name), getattr(ew, name)), name
        colsum = np.asarray(ew.sum(axis=1)).ravel()
        sqsum = np.asarray(ew.multiply(ew).sum(axis=1)).ravel()
        for got, want, family in ((inst._entry_colsum, colsum, "linear"),
                                  (inst._entry_sqsum, sqsum, "quadratic")):
            assert got is None if inst.model.family != family else _same_array(got, want)
    assert families == {"step", "linear", "quadratic", "cosine"}
