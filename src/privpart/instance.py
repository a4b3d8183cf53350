"""Problem data model: entries, sensitive properties, the dependency
hypergraph, full problem instances, assignments and moves.

The paper draws the dependencies as a bipartite graph with entries on
one side and sensitive properties on the other; each property's
neighbours are its member entries, so the graph is stored as one
hyperedge (``SensitiveProperty.members``) per property.

Everything downstream (disclosure evaluation, heuristics, exact solvers,
the LP relaxation) works on the two central objects defined here:

* ``Instance`` -- immutable description of one partitioning problem:
  a dependency hypergraph between data entries and sensitive properties,
  a dense entry-by-recipient utility weight matrix, the number of
  adversaries ``k``, the per-entry assignment cap ``t``, the tradeoff
  weight ``lam``, the disclosure budget ``tau`` and a disclosure model.
* ``Assignment`` -- a boolean entry-by-adversary matrix with its
  per-entry row sums.

``validate_instance`` checks all structural invariants and is the one
place that derives tables from the properties: the sparse
property-by-entry incidence matrix and its entry-major transpose, the
top-t utility normalizer, the keys of the evaluator state each entry's
addition touches, and for the cosine family a ``CosineTables`` record.
The batched scorer, the evaluator kernels and the LP relaxation read
these; no module adds anything to a validated instance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np
import scipy.sparse as sp

WEIGHT_SUM_TOL = 1e-9

FAMILIES = ("step", "linear", "quadratic", "cosine")
AGGREGATIONS = ("worst", "average")


class InstanceError(ValueError):
    """An instance (or a serialized instance document) is malformed."""


class MoveError(ValueError):
    """A move's fields are inconsistent with its kind."""


@dataclass(frozen=True)
class DisclosureModel:
    """Which disclosure function family applies, and how per-property
    values are aggregated into the overall scalar.

    ``worst`` takes the maximum over adversaries of the largest
    per-property value; ``average`` takes the maximum over adversaries of
    the per-property mean.
    """

    family: str = "step"
    aggregation: str = "worst"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InstanceError(f"unknown disclosure family {self.family!r}")
        if self.aggregation not in AGGREGATIONS:
            raise InstanceError(f"unknown aggregation {self.aggregation!r}")


@dataclass(frozen=True)
class DataEntry:
    """One shareable data item. ``payload`` is an opaque record; location
    instances store a ``(user, location, count)`` triple there."""

    id: int
    payload: tuple | None = None


@dataclass(frozen=True)
class SensitiveProperty:
    """A fact inferable only from its member entries when co-revealed.

    ``members`` lists entry ids; ``weights`` (aligned with ``members``)
    carries the per-entry contribution used by the linear and quadratic
    families and must sum to 1 over the property.
    """

    id: int
    members: tuple[int, ...]
    weights: tuple[float, ...] | None = None


class DependencyHypergraph:
    """Bipartite entry/property incidence, stored property-major with the
    per-entry transpose built on validation."""

    def __init__(self, num_entries: int, properties: Sequence[SensitiveProperty]):
        self.num_entries = int(num_entries)
        self.properties = tuple(properties)

    @property
    def num_properties(self) -> int:
        return len(self.properties)

    @property
    def dimension(self) -> int:
        """Size of the largest hyperedge (0 when there are no properties)."""
        if not self.properties:
            return 0
        return max(len(p.members) for p in self.properties)


class Instance:
    """One partitioning problem. Treat as immutable after validation;
    the solver-facing tables are attached by :func:`validate_instance`."""

    def __init__(
        self,
        hypergraph: DependencyHypergraph,
        utility_weights,
        k: int,
        t: int,
        lam: float = 1.0,
        tau: float = 0.0,
        model: DisclosureModel = DisclosureModel(),
        entries: Sequence[DataEntry] | None = None,
    ):
        self.hypergraph = hypergraph
        self.utility_weights = np.asarray(utility_weights, dtype=np.float64)
        self.k = int(k)
        self.t = int(t)
        self.lam = float(lam)
        self.tau = float(tau)
        self.model = model
        self.entries = tuple(entries) if entries is not None else None
        self.validated = False
        self.dimension_warning = False

    # -- convenience views -------------------------------------------------
    @property
    def num_entries(self) -> int:
        return self.hypergraph.num_entries

    @property
    def num_properties(self) -> int:
        return self.hypergraph.num_properties


def _build_weight_matrix(inst: Instance) -> sp.csr_matrix:
    """|P| x |D| incidence matrix, one row per property with its members'
    columns sorted. It holds a_dp for the linear and quadratic families
    and 1 for the others (step counts members; cosine reads only the
    pattern)."""
    props = inst.hypergraph.properties
    indptr = np.zeros(len(props) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(p.members) for p in props])
    indices = np.fromiter(chain.from_iterable(p.members for p in props), np.int64, indptr[-1])
    if inst.model.family in ("linear", "quadratic"):
        data = np.fromiter(chain.from_iterable(p.weights for p in props), np.float64, indptr[-1])
    else:
        data = np.ones(indptr[-1])
    matrix = sp.csr_matrix((data, indices, indptr), shape=(len(props), inst.num_entries))
    matrix.sort_indices()
    return matrix


@dataclass(frozen=True)
class CosineTables:
    """The cosine family's tables, built once by :func:`validate_instance`.

    Users are numbered by first appearance. Pair i joins entry
    ``pair_e1[i]`` of a property's lower user with entry ``pair_e2[i]`` of
    the other at a location both visited; pairs run by property, then by
    ``pair_e1``. The ``member_*`` arrays run along the entry-major
    incidence (``Instance._entry_weights.indices``): for entry d on one
    of its properties, the property's other user, the entry d pairs with
    there and their count product, or d itself and 0.0 where it pairs
    with none (a property holds at most one pair with d). They are the
    evaluator's one copy of each entry's pairs."""

    user_idx: np.ndarray          # (|D|,) user of each entry
    sq_counts: np.ndarray         # (|D|,) squared check-in counts
    prop_users: np.ndarray        # (|P|, 2) each property's users, lower first
    pair_e1: np.ndarray
    pair_e2: np.ndarray
    norm_matrix: sp.csr_matrix    # users x entries, squared counts
    pair_matrix: sp.csr_matrix    # properties x pairs, count products
    member_partner: np.ndarray
    member_other: np.ndarray
    member_prod: np.ndarray


def _cosine_tables(inst: Instance) -> CosineTables:
    """Check the cosine payloads and build the family's tables. Each entry
    needs a positive count and a (user, location) pair of its own, each
    property all entries of exactly two users; the first faulty entry
    (count first), else the first faulty property (user count first) is
    reported. Labels are coded through dicts: they may mix str and int."""
    entries = inst.entries
    if entries is None or any(e.payload is None for e in entries):
        raise InstanceError("cosine family requires (user, location, count) payloads")
    users, locs, entry_at = {}, {}, {}  # entry_at: (user, location) codes -> entry
    for e in entries:
        u, loc, c = e.payload
        if c <= 0:
            raise InstanceError(f"entry {e.id}: check-in count must be positive")
        code = (users.setdefault(u, len(users)), locs.setdefault(loc, len(locs)))
        if entry_at.setdefault(code, e.id) != e.id:
            raise InstanceError(f"duplicate (user, location) pair for entry {e.id}")
    user_idx, loc_idx = np.array(list(entry_at), dtype=np.int64).T.copy()
    counts = np.array([e.payload[2] for e in entries], dtype=np.float64)

    # A property's users are the least and the largest user of its members.
    wm, ew, sizes = inst._weight_matrix, inst._entry_weights, inst._sizes
    num_d, num_p, starts = inst.num_entries, inst.num_properties, wm.indptr[:-1]
    member_user = user_idx[wm.indices]
    lo, hi = np.minimum.reduceat(member_user, starts), np.maximum.reduceat(member_user, starts)
    at_lo = member_user == np.repeat(lo, sizes)
    in_pair = np.add.reduceat(at_lo | (member_user == np.repeat(hi, sizes)), starts)
    user_entries = np.bincount(user_idx)
    bad = np.flatnonzero((lo == hi) | (in_pair != sizes)
                         | (sizes != user_entries[lo] + user_entries[hi]))
    if bad.size:
        p = int(bad[0])
        n_users = len(set(member_user[wm.indptr[p]:wm.indptr[p + 1]].tolist()))
        if n_users != 2:
            raise InstanceError(f"property {p} references {n_users} users, expected exactly 2")
        raise InstanceError(f"property {p} members must be the union of both users' entries")

    # An entry of a property's lower user pairs with the other's at its location.
    pair_e1 = wm.indices[at_lo].astype(np.int64)
    pair_prop = np.repeat(np.arange(num_p), sizes)[at_lo]
    key = user_idx * len(locs) + loc_idx
    by_key = np.argsort(key)
    wanted = hi[pair_prop] * len(locs) + loc_idx[pair_e1]
    pair_e2 = by_key[np.minimum(np.searchsorted(key[by_key], wanted), num_d - 1)]
    found = key[pair_e2] == wanted
    pair_e1, pair_e2, pair_prop = pair_e1[found], pair_e2[found], pair_prop[found]
    pair_prod, sq_counts, num_pairs = counts[pair_e1] * counts[pair_e2], counts**2, pair_e1.size

    # Each entry's properties are sorted, so (entry, property) keys are
    # too; a key holds at most one pair end.
    degree = np.diff(ew.indptr)
    own = np.repeat(np.arange(num_d), degree)
    ends = np.concatenate((pair_e1, pair_e2))
    at = np.searchsorted(own * num_p + ew.indices, ends * num_p + np.tile(pair_prop, 2))
    member_other, member_prod = own.copy(), np.zeros(own.size)
    member_other[at], member_prod[at] = np.concatenate((pair_e2, pair_e1)), np.tile(pair_prod, 2)
    partner = (lo + hi)[ew.indices] - np.repeat(user_idx, degree)

    by_user = np.argsort(user_idx, kind="stable")
    user_ptr = np.concatenate(([0], np.cumsum(user_entries)))
    pair_ptr = np.concatenate(([0], np.cumsum(np.bincount(pair_prop, minlength=num_p))))
    return CosineTables(
        user_idx, sq_counts, np.column_stack((lo, hi)), pair_e1, pair_e2,
        sp.csr_matrix((sq_counts[by_user], by_user, user_ptr), shape=(user_entries.size, num_d)),
        sp.csr_matrix((pair_prod, np.arange(num_pairs), pair_ptr), shape=(num_p, num_pairs)),
        partner, member_other, member_prod)


def check_k_t(k: int, t: int) -> None:
    """k >= 2 and 1 <= t <= k; builders check it before drawing anything."""
    if k < 2:
        raise InstanceError(f"need at least 2 adversaries, got k={k}")
    if t < 1:
        raise InstanceError(f"per-entry cap must be at least 1, got t={t}")
    if t > k:
        raise InstanceError(f"t exceeds k ({t} > {k})")


# Up to this many memberships, a stable argsort builds the entry-major
# transpose faster than scipy's conversion, whose fixed cost dominates at
# desk scale (about 35 against 60-100 us); beyond about a thousand,
# scipy's linear-time conversion is faster (0.1 against 0.6 ms at 16000).
_SORTED_TRANSPOSE_NNZ = 512


def _transpose(wm: sp.csr_matrix, num_d: int) -> sp.csr_matrix:
    """The entry-major transpose of the incidence matrix, each entry's
    properties in increasing order, equal to ``sp.csr_matrix(wm.T)``. A
    small one comes from a stable sort of the members by entry, which
    keeps the property order."""
    if wm.nnz > _SORTED_TRANSPOSE_NNZ:
        return sp.csr_matrix(wm.T)
    by_entry = np.argsort(wm.indices, kind="stable")
    props = np.repeat(np.arange(wm.shape[0], dtype=wm.indices.dtype), np.diff(wm.indptr))
    indptr = np.zeros(num_d + 1, dtype=wm.indptr.dtype)
    np.cumsum(np.bincount(wm.indices, minlength=num_d), out=indptr[1:])
    return sp.csr_matrix((wm.data[by_entry], props[by_entry], indptr), shape=(num_d, wm.shape[0]))


def _row_sums(indptr: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Per-row sums of the values data holds row by row (``indptr``),
    added as scipy's csr ``sum(axis=1)`` adds them: a reduceat over the
    non-empty rows."""
    rows = np.flatnonzero(np.diff(indptr))
    out = np.zeros(indptr.size - 1)
    if rows.size:
        out[rows] = np.add.reduceat(data, indptr[rows])
    return out


def _conflict_keys(raw: Instance) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, keys) per entry: the keys of the evaluator state that
    adding the entry reads or writes. Its properties, and for cosine also
    key |P| + its user, whose norm it changes (two friends share their
    property). Two entries without a common key may join adversaries in
    either order."""
    ew = raw._entry_weights
    if raw._cosine is None:
        return ew.indptr, ew.indices
    ptr = ew.indptr + np.arange(raw.num_entries + 1)
    return ptr, np.insert(ew.indices.astype(np.int64), ew.indptr[1:],
                          raw.num_properties + raw._cosine.user_idx)


def validate_instance(raw: Instance) -> Instance:
    """Check structural invariants and build every table solvers read:
    ``_weight_matrix`` (|P| x |D| incidence), ``_sizes``, the entry-major
    ``_entry_weights`` and the row sums its family reads, the top-t
    normalizer, the cosine family's :class:`CosineTables` in ``_cosine``
    (None for the others) and the ``_conflict_keys`` of myopic addition
    windows. Idempotent: a validated instance comes back unchanged.
    Raises :class:`InstanceError` on any violation.
    """
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
                raise InstanceError(
                    f"property {p.id}: weights sum {total:.10g} != 1"
                )
        elif family in ("linear", "quadratic"):
            raise InstanceError(f"{family} disclosure requires weights on property {p.id}")

    raw._weight_matrix = _build_weight_matrix(raw)           # |P| x |D|
    raw._sizes = np.diff(raw._weight_matrix.indptr)
    raw._entry_weights = ew = _transpose(raw._weight_matrix, hg.num_entries)  # |D| x |P|
    # Per-entry sums of a_dp (read by linear) and of their squares (by
    # quadratic), summed as scipy sums them; the squares, like the
    # product scipy's multiply stores, leave out every zero.
    raw._entry_colsum = _row_sums(ew.indptr, ew.data) if family == "linear" else None
    raw._entry_sqsum = None
    if family == "quadratic":
        sq = ew.data**2
        kept = sq != 0.0
        raw._entry_sqsum = _row_sums(np.concatenate(([0], np.cumsum(kept)))[ew.indptr], sq[kept])

    # Top-t utility normalizer: best achievable total weight.
    w = raw.utility_weights
    top = np.sort(w, axis=1)[:, ::-1][:, : raw.t]
    raw._top_t_sum = top.sum(axis=1)
    raw._normalizer = float(raw._top_t_sum.sum())

    raw._cosine = _cosine_tables(raw) if family == "cosine" else None
    raw._conflict_keys = _conflict_keys(raw)

    # Paper-model assumption: largest hyperedge should exceed k. Degenerate
    # research instances stay runnable, flagged instead of rejected.
    raw.dimension_warning = hg.num_properties > 0 and raw._sizes.max() <= raw.k
    raw.validated = True
    return raw


class Assignment:
    """Boolean entry-by-adversary matrix with its per-entry counts,
    computed once from the bits. A *feasible* assignment has every count
    in [1, t], which callers enforce."""

    def __init__(self, bits: np.ndarray):
        bits = np.asarray(bits, dtype=bool)
        self.bits = bits
        self.per_entry_count = bits.sum(axis=1).astype(np.int64)

    @classmethod
    def empty(cls, instance: Instance) -> "Assignment":
        return cls(np.zeros((instance.num_entries, instance.k), dtype=bool))

    def is_cardinality_feasible(self, t: int) -> bool:
        return bool(
            np.all(self.per_entry_count >= 1) and np.all(self.per_entry_count <= t)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Assignment) and np.array_equal(self.bits, other.bits)


@dataclass(frozen=True)
class Move:
    """A single neighborhood step: add a bit, remove a bit, or swap an
    entry's bit from one adversary to another."""

    kind: str
    entry: int
    from_adversary: int | None = None
    to_adversary: int | None = None

    def __post_init__(self):
        if self.kind == "add":
            ok = self.from_adversary is None and self.to_adversary is not None
        elif self.kind == "remove":
            ok = self.from_adversary is not None and self.to_adversary is None
        elif self.kind == "swap":
            ok = (
                self.from_adversary is not None
                and self.to_adversary is not None
                and self.from_adversary != self.to_adversary
            )
        else:
            raise MoveError(f"unknown move kind {self.kind!r}")
        if not ok:
            raise MoveError(f"move fields inconsistent with kind {self.kind!r}")


# -- serialization ----------------------------------------------------------
# Document layout (key names are the on-disk contract):
#   {num_entries, num_adversaries, t, lambda, tau_I,
#    model: {family, aggregation},
#    properties: [{id, members: [...], weights: [...] | null}],
#    utility_weights: [[...]],
#    entries: [[user, location, count], ...]}   # only for cosine payloads


def instance_to_json(instance: Instance) -> str:
    doc = {
        "num_entries": instance.num_entries,
        "num_adversaries": instance.k,
        "t": instance.t,
        "lambda": instance.lam,
        "tau_I": instance.tau,
        "model": {
            "family": instance.model.family,
            "aggregation": instance.model.aggregation,
        },
        "properties": [
            {
                "id": p.id,
                "members": list(p.members),
                "weights": list(p.weights) if p.weights is not None else None,
            }
            for p in instance.hypergraph.properties
        ],
        "utility_weights": instance.utility_weights.tolist(),
    }
    if instance.entries is not None:
        doc["entries"] = [list(e.payload) for e in instance.entries]
    return json.dumps(doc, indent=1)


def _json_int(value, what: str) -> int:
    """An integer field of an instance document. Floats and bools are
    rejected, not coerced: ``int()`` would truncate 0.7 to 0 and take
    ``true`` as 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceError(f"{what} must be an integer, got {value!r}")
    return value


def _json_float(value, what: str) -> float:
    """A real-valued field of an instance document. Bools and strings are
    rejected, not coerced: ``float()`` would take ``true`` as 1.0 and
    ``"0.3"`` as 0.3."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceError(f"{what} must be a number, got {value!r}")
    return float(value)


def _json_label(value, what: str):
    """A user or location field of a cosine payload: a string or an
    integer, which the cosine tables use as a dictionary key."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise InstanceError(f"{what} must be a string or an integer, got {value!r}")
    return value


def instance_from_json(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"not a valid instance document: {exc}") from exc
    try:
        props = [
            SensitiveProperty(
                _json_int(p["id"], "property id"),
                tuple(_json_int(d, f"property {p['id']} member") for d in p["members"]),
                tuple(_json_float(w, f"property {p['id']} weight") for w in p["weights"])
                if p.get("weights") is not None else None,
            )
            for p in doc["properties"]
        ]
        hg = DependencyHypergraph(_json_int(doc["num_entries"], "num_entries"), props)
        entries = None
        if "entries" in doc:
            entries = [
                DataEntry(i, (_json_label(e[0], f"entry {i} user"),
                              _json_label(e[1], f"entry {i} location"),
                              _json_int(e[2], f"entry {i} count")))
                for i, e in enumerate(doc["entries"])
            ]
        inst = Instance(
            hg,
            np.array([[_json_float(x, f"utility weight ({d}, {a})") for a, x in enumerate(row)]
                      for d, row in enumerate(doc["utility_weights"])], dtype=np.float64),
            k=_json_int(doc["num_adversaries"], "num_adversaries"),
            t=_json_int(doc["t"], "t"),
            lam=_json_float(doc["lambda"], "lambda"),
            tau=_json_float(doc["tau_I"], "tau_I"),
            model=DisclosureModel(doc["model"]["family"], doc["model"]["aggregation"]),
            entries=entries,
        )
    except InstanceError:
        raise
    except (KeyError, TypeError, IndexError) as exc:
        raise InstanceError(f"instance document missing field: {exc}") from exc
    except ValueError as exc:  # e.g. ragged utility_weights
        raise InstanceError(f"malformed instance document: {exc}") from exc
    return validate_instance(inst)


def read_text(path) -> str:
    """The contents of a UTF-8 text file; a file that is not UTF-8 is an
    ``InstanceError`` naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InstanceError(f"{path} is not UTF-8 text: {exc.reason}") from exc


def load_instance(path) -> Instance:
    return instance_from_json(read_text(path))


def save_instance(instance: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(instance))
