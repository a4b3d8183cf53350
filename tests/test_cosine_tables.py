"""The cosine family's input checks and tables, as ``validate_instance``
builds them, against a reference built with plain loops."""

import json
import re

import numpy as np
import pytest
import scipy.sparse as sp

from privpart import (
    InstanceError,
    build_location_instance,
    ingest_checkins,
    instance_from_json,
    random_small_instance,
    synthetic_checkin_lines,
)


def _document(entries, properties):
    return {
        "num_entries": len(entries), "num_adversaries": 2, "t": 1, "lambda": 1.0, "tau_I": 0.0,
        "model": {"family": "cosine", "aggregation": "average"},
        "properties": [{"id": i, "members": m, "weights": None} for i, m in enumerate(properties)],
        "utility_weights": [[0.5, 0.5]] * len(entries),
        "entries": entries,
    }


# Two users, three locations: u1 visits A and C, u2 visits A and B.
_ENTRIES = [["u1", "A", 2], ["u1", "C", 1], ["u2", "A", 1], ["u2", "B", 1]]


def _faulty(entries=None, properties=None, drop_entries=False):
    doc = _document([list(e) for e in (entries or _ENTRIES)], properties or [[0, 1, 2, 3]])
    if drop_entries:
        del doc["entries"]
    return json.dumps(doc)


@pytest.mark.parametrize("text, message", [
    (_faulty(drop_entries=True), "cosine family requires (user, location, count) payloads"),
    (_faulty(entries=_ENTRIES[:2] + [["u2", "A", 0]] + _ENTRIES[3:]),
     "entry 2: check-in count must be positive"),
    (_faulty(entries=_ENTRIES[:3] + [["u2", "A", 3]]),
     "duplicate (user, location) pair for entry 3"),
    (_faulty(properties=[[0, 1]]), "property 0 references 1 users, expected exactly 2"),
    (_faulty(entries=_ENTRIES + [["u3", "A", 1]], properties=[[0, 1, 2, 3, 4]]),
     "property 0 references 3 users, expected exactly 2"),
    # As many members as u1 and u3 have entries, but one of them is u2's.
    (_faulty(entries=_ENTRIES + [["u3", "D", 1]], properties=[[0, 2, 4]]),
     "property 0 references 3 users, expected exactly 2"),
    (_faulty(properties=[[0, 1, 3]]),
     "property 0 members must be the union of both users' entries"),
    # Two faults each: the first entry is reported, its count before its
    # pair; entries before properties; the first property, its user count
    # before its members.
    (_faulty(entries=[_ENTRIES[0], ["u1", "A", 1], _ENTRIES[2], ["u2", "B", -1]]),
     "duplicate (user, location) pair for entry 1"),
    (_faulty(entries=[_ENTRIES[0], ["u1", "A", 0]] + _ENTRIES[2:]),
     "entry 1: check-in count must be positive"),
    (_faulty(entries=_ENTRIES[:3] + [["u2", "B", 0]], properties=[[0, 1]]),
     "entry 3: check-in count must be positive"),
    (_faulty(properties=[[0, 1, 3], [0, 1]]),
     "property 0 members must be the union of both users' entries"),
    (_faulty(properties=[[0, 1, 2, 3], [2, 3], [0, 2, 3]]),
     "property 1 references 1 users, expected exactly 2"),
], ids=["missing-payloads", "nonpositive-count", "duplicate-pair", "one-user", "three-users",
        "three-users-as-many-members-as-two", "missing-member", "duplicate-then-count", "count-and-duplicate-on-one-entry",
        "entry-before-property", "members-before-users", "first-property"])
def test_cosine_input_checks(text, message):
    with pytest.raises(InstanceError, match=re.escape(message)):
        instance_from_json(text)


def _reference_tables(inst) -> dict:
    """The cosine tables built entry by entry and pair by pair."""
    users, by_user_loc = {}, {}
    num_d = inst.num_entries
    user_idx = np.empty(num_d, dtype=np.int64)
    counts = np.empty(num_d, dtype=np.float64)
    for e in inst.entries:
        u, loc, c = e.payload
        uid = users.setdefault(u, len(users))
        user_idx[e.id] = uid
        counts[e.id] = float(c)
        by_user_loc[(uid, loc)] = e.id
    locs_of_user: dict[int, list] = {}
    for (uid, loc) in by_user_loc:
        locs_of_user.setdefault(uid, []).append(loc)

    prop_users = np.empty((inst.num_properties, 2), dtype=np.int64)
    pair_prop, pair_e1, pair_e2, pair_prod = [], [], [], []
    for p in inst.hypergraph.properties:
        ui, uj = sorted({int(user_idx[d]) for d in p.members})
        prop_users[p.id] = (ui, uj)
        for loc in locs_of_user[ui]:
            other = by_user_loc.get((uj, loc))
            if other is not None:
                e1 = by_user_loc[(ui, loc)]
                pair_prop.append(p.id)
                pair_e1.append(e1)
                pair_e2.append(other)
                pair_prod.append(counts[e1] * counts[other])
    ref = {
        "user_idx": user_idx,
        "sq_counts": counts**2,
        "prop_users": prop_users,
        "pair_e1": np.array(pair_e1, dtype=np.int64),
        "pair_e2": np.array(pair_e2, dtype=np.int64),
    }
    num_pairs = len(pair_prop)
    ref["norm_matrix"] = sp.csr_matrix(
        (ref["sq_counts"], (user_idx, np.arange(num_d))), shape=(len(users), num_d))
    ref["pair_matrix"] = sp.csr_matrix(
        (np.array(pair_prod, dtype=np.float64), (pair_prop, np.arange(num_pairs))),
        shape=(inst.num_properties, num_pairs))

    by_entry: list[list[tuple[int, float, int]]] = [[] for _ in range(num_d)]
    for p, e1, e2, prod in zip(pair_prop, pair_e1, pair_e2, pair_prod):
        by_entry[e1].append((e2, prod, p))
        by_entry[e2].append((e1, prod, p))
    indptr, pcols = inst._entry_weights.indptr, inst._entry_weights.indices
    for name in ("entry_others", "entry_prods", "entry_props", "entry_cols", "entry_partner"):
        ref[name] = []
    for d in range(num_d):
        ref["entry_others"].append(np.array([o for (o, _, _) in by_entry[d]], dtype=np.int64))
        ref["entry_prods"].append(np.array([w for (_, w, _) in by_entry[d]]))
        props = np.array([p for (_, _, p) in by_entry[d]], dtype=np.int64)
        ref["entry_props"].append(props)
        lookup = {int(q): i for i, q in enumerate(pcols[indptr[d]:indptr[d + 1]])}
        ref["entry_cols"].append(np.array([lookup[int(q)] for q in props], dtype=np.int64))
        ui, uj = prop_users[pcols[indptr[d]:indptr[d + 1]]].T
        ref["entry_partner"].append(np.where(ui == user_idx[d], uj, ui))
    return ref


def _same_array(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_tables_equal_reference(inst):
    tables, ref = inst._cosine, _reference_tables(inst)
    for name, want in ref.items():
        got = getattr(tables, name)
        if sp.issparse(want):
            assert got.shape == want.shape, name
            assert _same_array(got.data, want.data), name
            for attr in ("indptr", "indices"):
                assert np.array_equal(getattr(got, attr), getattr(want, attr)), (name, attr)
        elif isinstance(want, list):
            assert len(got) == len(want), name
            assert all(_same_array(g, w) for g, w in zip(got, want)), name
        else:
            assert _same_array(got, want), name


def _labelled_document(users, locs) -> str:
    """Seven check-ins of three users over three locations, each
    property's members listed out of order."""
    visits = [(0, 0, 2), (1, 0, 3), (0, 1, 1), (2, 1, 4), (1, 2, 1), (2, 0, 2), (0, 2, 5)]
    entries = [[users[u], locs[loc], c] for u, loc, c in visits]
    return json.dumps(_document(entries, [[6, 1, 0, 4, 2], [5, 4, 3, 1], [3, 0, 6, 5, 2]]))


def test_cosine_tables_equal_loop_reference_bitwise():
    lines, friends = synthetic_checkin_lines(seed=1)
    insts = [build_location_instance(ingest_checkins(lines).entries, friends,
                                     k=5, t=2, seed=1)]
    desk = [random_small_instance(1000 + trial) for trial in range(200)]
    insts += [inst for inst in desk if inst.model.family == "cosine"]
    for users, locs in (((10, 3, 7), (5, 1, 9)), (("ann", "bob", "cy"), ("x", "y", "z")),
                        ((1, "1", 2), (5, "5", "x"))):
        insts.append(instance_from_json(_labelled_document(users, locs)))
    assert len(insts) > 40
    for inst in insts:
        _assert_tables_equal_reference(inst)
