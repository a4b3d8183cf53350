import numpy as np
import pytest

from privpart import (
    DisclosureModel,
    GeodataError,
    InstanceError,
    SynthConfig,
    build_location_instance,
    generate_instance,
    ingest_checkins,
    instance_to_json,
    synthetic_checkin_lines,
    tradeoff_objective,
)
from privpart.geodata import AggregatedEntry
from privpart.instance import Assignment


# -- synthetic generator -------------------------------------------------------

def test_edge_count_matches_binomial_expectation():
    cfg = SynthConfig(num_entries=100, num_properties=10, k=2, t=1, p_f=0.3, seed=4)
    inst = generate_instance(cfg)
    edges = sum(len(p.members) for p in inst.hypergraph.properties)
    # mean 300, sigma = sqrt(1000 * 0.3 * 0.7) ~ 14.5; 4 sigma band
    assert abs(edges - 300) <= 58


def test_high_probability_weights_are_scaled_by_k():
    cfg = SynthConfig(num_entries=50, num_properties=2, k=2, t=1, p_u=1.0, seed=1)
    inst = generate_instance(cfg)
    assert np.all(inst.utility_weights >= 0.4 - 1e-12)
    assert np.all(inst.utility_weights <= 0.5 + 1e-12)


def test_general_weight_bounds_and_nonempty_properties():
    cfg = SynthConfig(num_entries=80, num_properties=20, k=5, t=2, seed=9)
    inst = generate_instance(cfg)
    assert np.all(inst.utility_weights <= 1.0 / inst.k + 1e-12)
    assert np.all(inst.utility_weights >= 0.0)
    assert all(p.members for p in inst.hypergraph.properties)
    assert all(abs(sum(p.weights) - 1.0) < 1e-9 for p in inst.hypergraph.properties)


def test_zero_edge_probability_errors_out():
    cfg = SynthConfig(num_entries=10, num_properties=1, k=2, t=1, p_f=0.0, seed=0)
    with pytest.raises(InstanceError, match="too small"):
        generate_instance(cfg)


def test_same_seed_serializes_identically():
    cfg = SynthConfig(num_entries=40, num_properties=8, k=3, t=2, seed=123)
    a = instance_to_json(generate_instance(cfg))
    b = instance_to_json(generate_instance(cfg))
    assert a == b
    c = instance_to_json(generate_instance(SynthConfig(40, 8, 3, 2, seed=124)))
    assert c != a


# -- ingestion -------------------------------------------------------------------

def test_ingest_counts_unique_user_location_pairs():
    lines = [
        "u1\t2010-01-01T00:00:00Z\t0.0\t0.0\tL1",
        "u1\t2010-01-02T00:00:00Z\t0.0\t0.0\tL1",
        "u1\t2010-01-03T00:00:00Z\t0.0\t0.0\tL2",
    ]
    out = ingest_checkins(lines)
    assert [(e.user_id, e.location_id, e.count) for e in out.entries] == [
        ("u1", "L1", 2), ("u1", "L2", 1),
    ]


def test_ingest_skips_malformed_and_reports():
    good = [f"u{i}\t2010\t0\t0\tL{i}" for i in range(7)]
    bad = ["", "justonefield", "two\tfields", "u9\t2010\t0\t0\t"]
    out = ingest_checkins(good + bad)
    assert len(out.entries) == 7
    assert out.skipped_lines == 3  # the blank line is not counted at all
    assert out.total_lines == 10


def test_ingest_rejects_empty_stream():
    with pytest.raises(GeodataError):
        ingest_checkins(["notenough"])


def test_ingest_conserves_total_checkins():
    lines, _ = synthetic_checkin_lines(num_users=20, num_edges=16, num_entries=80, seed=2)
    out = ingest_checkins(lines)
    assert sum(e.count for e in out.entries) == out.total_lines - out.skipped_lines
    assert len(out.entries) == 80


def test_ingest_accepts_csv():
    out = ingest_checkins(["u1,2010,0,0,L1", "u2,2010,0,0,L1"])
    assert len(out.entries) == 2


# -- instance build ---------------------------------------------------------------

def entries_for(users_locs):
    return [AggregatedEntry(u, loc, c) for (u, loc, c) in users_locs]


def test_build_membership_is_union_of_both_users():
    entries = entries_for([("u1", "A", 2), ("u1", "B", 1), ("u2", "A", 3)])
    inst = build_location_instance(entries, [("u1", "u2")], k=2, t=1, seed=0)
    assert inst.num_properties == 1
    assert inst.hypergraph.properties[0].members == (0, 1, 2)
    assert inst.model == DisclosureModel("cosine", "average")


def test_build_drops_edges_with_missing_endpoints():
    entries = entries_for([("u1", "A", 1), ("u2", "A", 1)])
    inst = build_location_instance(
        entries, [("u1", "u2"), ("u1", "ghost")], k=2, t=1, seed=0
    )
    assert inst.num_properties == 1
    with pytest.raises(GeodataError, match="survives"):
        build_location_instance(entries, [("u1", "ghost")], k=2, t=1, seed=0)


def test_identical_single_location_users_fully_disclose_when_colocated():
    entries = entries_for([("u1", "A", 3), ("u2", "A", 3)])
    inst = build_location_instance(entries, [("u1", "u2")], k=2, t=1, seed=0)
    together = Assignment(np.array([[True, False], [True, False]]))
    assert tradeoff_objective(inst, together).disclosure == pytest.approx(1.0)
    apart = Assignment(np.array([[True, False], [False, True]]))
    assert tradeoff_objective(inst, apart).disclosure == 0.0


def test_disjoint_locations_never_disclose():
    entries = entries_for([("u1", "A", 2), ("u2", "B", 5)])
    inst = build_location_instance(entries, [("u1", "u2")], k=2, t=2, seed=0)
    full = Assignment(np.ones((2, 2), dtype=bool))
    assert tradeoff_objective(inst, full).disclosure == 0.0


def test_build_is_deterministic_in_seed():
    lines, friends = synthetic_checkin_lines(num_users=20, num_edges=16, num_entries=80, seed=5)
    entries = ingest_checkins(lines).entries
    a = instance_to_json(build_location_instance(entries, friends, k=3, t=2, seed=11))
    b = instance_to_json(build_location_instance(entries, friends, k=3, t=2, seed=11))
    assert a == b


def test_build_weight_rule_region_vs_rest():
    entries = entries_for([("u1", "A", 1), ("u2", "A", 1), ("u2", "B", 1)])
    inst = build_location_instance(entries, [("u1", "u2")], k=2, t=1, seed=3)
    w = inst.utility_weights
    for row in w:
        high = row >= 0.8
        assert high.sum() == 1
        assert np.all(row[~high] == pytest.approx(0.1))


def test_synthetic_lines_shape():
    lines, friends = synthetic_checkin_lines(num_users=50, num_edges=40, num_entries=300, seed=0)
    assert len(friends) == 40
    out = ingest_checkins(lines)
    assert len(out.entries) == 300
    users = {e.user_id for e in out.entries}
    assert len(users) == 50
