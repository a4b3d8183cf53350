"""Additive per-adversary utility and the normalized total utility.

Total utility divides the raw weight sum by the best achievable one: the
sum, over entries, of each entry's t largest weights. A cardinality-
feasible assignment therefore always scores in [0, 1], with 1 reached
exactly when every entry sits at its top-t adversaries.
"""

from __future__ import annotations

from .instance import Assignment, Instance, InstanceError


def adversary_utility(instance: Instance, assignment: Assignment, a: int) -> float:
    """Raw weight collected by adversary ``a``."""
    return float(instance.utility_weights[:, a] @ assignment.bits[:, a])


def total_utility(instance: Instance, assignment: Assignment) -> float:
    """Normalized total utility in [0, 1] for feasible assignments."""
    if not instance.validated:
        raise InstanceError("instance must be validated first")
    z = instance._normalizer
    if z <= 0.0:
        raise InstanceError("degenerate instance: all utility weights are zero")
    raw = float((instance.utility_weights * assignment.bits).sum())
    return raw / z
