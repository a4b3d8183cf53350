"""The search objective: utility/disclosure tradeoff with a penalty that
makes the cardinality lower bound self-enforcing.

    value = utility + lam * (tau - disclosure) - unassigned_count

Utility is the assigned weight divided by the best achievable total,
the sum over entries of each entry's t largest weights, so a
cardinality-feasible assignment scores utility in [0, 1]. Subtracting
the number of unassigned entries guarantees (for lam in [0, 1]) that
assigning an orphan entry always beats leaving it, which is what lets
the heuristics run unconstrained on the lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disclosure import aggregate_disclosure, batch_disclosure
from .instance import Assignment, Instance, InstanceError

# Bits per chunk when many random draws are scored at once: a chunk holds
# max(1, SCORE_CHUNK_CELLS // (|D| k)) draws, which bounds its float
# buffers to about 1 MiB each.
SCORE_CHUNK_CELLS = 1 << 17


@dataclass(frozen=True)
class ObjectiveValue:
    utility: float
    disclosure: float
    unassigned_count: int
    value: float

    @staticmethod
    def compose(utility: float, disclosure: float, unassigned: int, lam: float, tau: float):
        return ObjectiveValue(
            utility=utility,
            disclosure=disclosure,
            unassigned_count=unassigned,
            value=utility + lam * (tau - disclosure) - unassigned,
        )

    def pick(self, i: int) -> "ObjectiveValue":
        """Draw ``i`` of a batch whose fields are arrays."""
        return ObjectiveValue(float(self.utility[i]), float(self.disclosure[i]),
                              int(self.unassigned_count[i]), float(self.value[i]))


def normalizer(instance: Instance) -> float:
    """The utility normalizer z, the best achievable total weight."""
    if instance._normalizer <= 0.0:
        raise InstanceError("degenerate instance: all utility weights are zero")
    return instance._normalizer


def batch_objective(instance: Instance, bits: np.ndarray, disclosure: np.ndarray | None = None):
    """Penalized tradeoff of an (n, |D|, k) batch from scratch: an
    ``ObjectiveValue`` of (n,) arrays, and the (n, k, |P|) disclosure
    clipped to [0, 1]. Each draw's utility is the sum of its contiguous
    |D| k block, the same pairwise summation as a sum over one assignment,
    so every value is that of scoring the draw alone. Given the batch's
    (n,) overall ``disclosure``, it builds no matrix and returns None."""
    vec = None
    if disclosure is None:
        vec = np.clip(batch_disclosure(instance, bits)[1], 0.0, 1.0)
        disclosure = aggregate_disclosure(vec, instance.model.aggregation)
    n = bits.shape[0]
    utility = (instance.utility_weights * bits).reshape(n, -1).sum(axis=1) / normalizer(instance)
    # k whole-array ors, not a reduction over the short k axis per row.
    held = bits[:, :, 0].copy()
    for a in range(1, bits.shape[2]):
        held |= bits[:, :, a]
    unassigned = (~held).sum(axis=1)
    return ObjectiveValue.compose(utility, disclosure, unassigned, instance.lam, instance.tau), vec


def tradeoff_objective(instance: Instance, assignment: Assignment) -> ObjectiveValue:
    """Recompute the penalized tradeoff from scratch. The assignment may
    violate the lower cardinality bound mid-search; the upper bound is the
    caller's responsibility."""
    return batch_objective(instance, assignment.bits[None])[0].pick(0)


def draw_chunks(instance: Instance, runs: int) -> list[int]:
    """Sizes of the chunks in which ``runs`` random draws are scored."""
    step = max(1, SCORE_CHUNK_CELLS // (instance.num_entries * instance.k))
    return [min(step, runs - start) for start in range(0, runs, step)]


def best_draw(instance: Instance, draw, runs: int, budget: bool = False,
              disclosure=None) -> np.ndarray | None:
    """Bits of the best of ``runs`` draws by penalized tradeoff, the first
    of equals. ``draw(c)`` returns the next c draws as a (c, |D|, k)
    tensor; drawing chunk after chunk consumes a generator exactly as
    drawing one at a time does. With ``budget`` a draw scores its utility
    if its disclosure is below tau and -inf otherwise, and the call
    returns None when no draw qualifies. ``disclosure(bits)``, if given,
    returns a chunk's (c,) overall disclosure for ``batch_objective``.
    Enumeration sets both when it re-scores its near-best assignments;
    RAND+ and LP rounding set neither."""
    best_bits, best_value = None, -np.inf
    for c in draw_chunks(instance, runs):
        bits = draw(c)
        obj = batch_objective(instance, bits,
                              None if disclosure is None else disclosure(bits))[0]
        values = (np.where(obj.disclosure < instance.tau, obj.utility, -np.inf)
                  if budget else obj.value)
        i = int(np.argmax(values))
        if values[i] > best_value:
            best_value, best_bits = values[i], bits[i].copy()
    return best_bits
