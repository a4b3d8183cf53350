"""Per-property, per-adversary disclosure for the four function families,
plus aggregation into the overall scalar.

Row ``a`` of a (k, |P|) disclosure matrix holds what adversary ``a``
learns about each property from the entries assigned to it. Adversaries
never pool information, so each row depends only on that adversary's
column of the assignment.

* step       -- 1 exactly when all of a property's members are co-revealed
* linear     -- weighted fraction of members revealed
* quadratic  -- square of the linear value
* cosine     -- trajectory similarity of the property's two users,
                restricted to the published check-ins

``batch_disclosure`` is the one from-scratch routine: it scores n
assignments at once from an (n, |D|, k) bit tensor and returns the
unclipped (n, k, |P|) values together with the running state the
incremental evaluator keeps. Every from-scratch path goes through it:
the evaluator's ``reset`` (n = 1, unclipped), enumeration's batches
(unclipped), and ``disclosure_vector`` and the batched objective, which
clip to [0, 1].
"""

from __future__ import annotations

import numpy as np

from .instance import AGGREGATIONS, Assignment, Instance, DisclosureModel, InstanceError

__all__ = [
    "DisclosureModel",
    "batch_disclosure",
    "disclosure_vector",
    "aggregate_disclosure",
    "per_property_disclosure",
]


def batch_disclosure(instance: Instance, bits: np.ndarray):
    """Score an (n, |D|, k) boolean batch of assignments from scratch.

    Returns ``(state, f_ap)``. ``f_ap`` is the (n, k, |P|) unclipped
    disclosure. ``state`` is the evaluator's running state: for step,
    linear and quadratic the (n, k, |P|) member counts or weighted sums
    (for linear the same array as ``f_ap``); for cosine the pair
    ``(norms, dots)`` of (n, k, users) squared norms and (n, k, |P|) dot
    products. Each value is a sparse product summed in member, entry or
    pair order, so it does not depend on n.
    """
    if not instance.validated:
        raise InstanceError("instance must be validated first")
    n, num_d, k = bits.shape
    cols = np.ascontiguousarray(bits.transpose(1, 0, 2), dtype=np.float64).reshape(num_d, n * k)

    def product(mat, x):  # (rows, m) sparse @ (m, n * k) -> (n, k, rows)
        out = np.asarray(mat @ x).reshape(mat.shape[0], n, k)
        return np.ascontiguousarray(out.transpose(1, 2, 0))

    family = instance.model.family
    if family == "cosine":
        tables = instance._cosine
        norms = product(tables.norm_matrix, cols)
        dots = product(tables.pair_matrix, cols[tables.pair_e1] * cols[tables.pair_e2])
        ui, uj = tables.prop_users.T
        denom = norms[:, :, ui] * norms[:, :, uj]
        f_ap = np.where(denom > 0.0, dots / np.sqrt(np.where(denom > 0.0, denom, 1.0)), 0.0)
        return (norms, dots), f_ap
    sums = product(instance._weight_matrix, cols)  # member counts for step
    if family == "step":
        return sums, (sums == instance._sizes).astype(np.float64)
    return sums, (sums if family == "linear" else sums**2)


def disclosure_vector(instance: Instance, assignment: Assignment) -> np.ndarray:
    """The (k, |P|) disclosure of one assignment, clipped to [0, 1]."""
    return np.clip(batch_disclosure(instance, assignment.bits[None])[1][0], 0.0, 1.0)


def aggregate_disclosure(vector: np.ndarray, mode: str):
    """Collapse a (k, |P|) disclosure matrix to the overall scalar, or an
    (n, k, |P|) batch to n of them.

    ``worst`` is the largest single component; ``average`` is the largest
    per-adversary mean. Both are 0 for property-free instances.
    """
    if mode not in AGGREGATIONS:
        raise InstanceError(f"unknown aggregation {mode!r}")
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape[-1] == 0:
        out = np.zeros(vector.shape[:-2])
    elif mode == "worst":
        out = vector.max(axis=(-2, -1))
    else:
        out = vector.mean(axis=-1).max(axis=-1)
    return out if out.ndim else float(out)


def per_property_disclosure(vector: np.ndarray) -> np.ndarray:
    """Max over adversaries, per property (length |P|)."""
    vector = np.asarray(vector, dtype=np.float64)
    if vector.size == 0:
        return np.zeros(vector.shape[1] if vector.ndim == 2 else 0)
    return vector.max(axis=0)
