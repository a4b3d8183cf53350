"""Desk-scale exact solvers: exhaustive enumeration (the reference
oracle) and a depth-first branch-and-bound that must agree with it.

Both enumerate per-entry adversary subsets of size 1..t, so the search
space is (number of subsets)^|D|; a hard size guard keeps them on desk
scale. Branch-and-bound prunes with an admissible bound: optimistic
remaining utility (each remaining entry at its top-t weights) plus the
best conceivable disclosure term. For the monotone families the current
partial disclosure already lower-bounds the final one; cosine is not
monotone, so its bound falls back to zero disclosure.

Branch-and-bound does not recurse into the last entry's subsets. It
flips that entry onto each adversary alone, reads the adversary's
aggregate f'_a and undoes the flip, then scores every subset from the k
values. This is exact: adversaries do not share state, so flipping the
entry onto a changes only a's row and f'_a, whatever else the subset
holds; and each subset's score repeats the per-leaf float operations in
the same order (utility added in subset order, f the max of the
aggregates, the same value and budget tests). Results and node counts
are those of visiting each leaf.

Enumeration builds each chunk of subset indices with numpy's C-order
``unravel_index``, which is ``itertools.product`` order.

``formulation`` selects what is maximized:

* ``tradeoff``   -- utility + lam * (tau - disclosure)
* ``maxmin``     -- min over adversaries of utility + lam * (tau - f'_a);
                    algebraically identical to ``tradeoff`` because the
                    utility term is shared, kept as an independent
                    evaluation route
* ``discbudget`` -- utility alone, subject to disclosure strictly below
                    tau (may be infeasible)
"""

from __future__ import annotations

import math
import time
from itertools import combinations

import numpy as np

from .disclosure import batch_disclosure
from .evaluator import IncrementalEvaluator
from .heuristics import SolveResult, finalize_result
from .instance import Assignment, Instance, InstanceError, validate_instance

FORMULATIONS = ("tradeoff", "maxmin", "discbudget")

ENUMERATION_CAP = 1_000_000
SIZE_GUARD_BITS = 40.0


class SizeGuardError(InstanceError):
    """The instance exceeds the exact solver's search-space guard."""


class InfeasibleError(InstanceError):
    """No assignment satisfies the disclosure budget."""


def _adversary_subsets(k: int, t: int) -> list[tuple[int, ...]]:
    """All nonempty subsets of adversaries up to size t, smallest first,
    lexicographic within a size."""
    subsets: list[tuple[int, ...]] = []
    for size in range(1, t + 1):
        subsets.extend(combinations(range(k), size))
    return subsets


def _check_formulation(formulation: str) -> None:
    if formulation not in FORMULATIONS:
        raise InstanceError(f"unknown formulation {formulation!r}")


def enumerate_optimum(instance: Instance, formulation: str = "tradeoff") -> SolveResult:
    """Reference oracle: score every feasible assignment in chunks.

    Kept deliberately independent of the branch-and-bound path (batch
    matrix evaluation instead of incremental state) so the two can
    cross-check each other.
    """
    instance = validate_instance(instance)
    _check_formulation(formulation)
    started = time.perf_counter()
    subsets = _adversary_subsets(instance.k, instance.t)
    m = len(subsets)
    num_d = instance.num_entries
    total = m**num_d
    if total > ENUMERATION_CAP:
        raise SizeGuardError(
            f"enumeration space {total} exceeds cap {ENUMERATION_CAP}"
        )
    masks = np.zeros((m, instance.k), dtype=bool)
    for i, sub in enumerate(subsets):
        masks[i, list(sub)] = True

    best_value = -np.inf
    best_bits = None
    feasible_seen = False
    chunk = 1 << 14
    shape = (m,) * num_d
    # C-order unravel puts entry 0 slowest: itertools.product order.
    for start in range(0, total, chunk):
        flat = np.arange(start, min(start + chunk, total))
        combos = np.stack(np.unravel_index(flat, shape), axis=1)  # (n, D)
        bits = masks[combos]  # (n, D, k)
        values, feas = _batch_values(instance, bits, formulation)
        if formulation == "discbudget":
            feasible_seen = feasible_seen or bool(feas.any())
            values = np.where(feas, values, -np.inf)
        i = int(np.argmax(values))
        if values[i] > best_value:
            best_value = float(values[i])
            best_bits = bits[i].copy()

    if formulation == "discbudget" and not feasible_seen:
        raise InfeasibleError("no assignment meets the disclosure budget")
    return finalize_result(instance, Assignment(best_bits), total, started, 0)


def _batch_values(instance: Instance, bits: np.ndarray, formulation: str):
    """Values (and budget feasibility) for a (n, D, k) batch of
    assignments, all cardinality-feasible by construction."""
    w = instance.utility_weights
    z = instance._normalizer
    util = np.einsum("ndk,dk->n", bits, w) / z

    fap = batch_disclosure(instance, bits)[1]  # (n, k, |P|)
    if instance.num_properties == 0:
        fprime = np.zeros(fap.shape[:2])
    elif instance.model.aggregation == "worst":
        fprime = fap.max(axis=2)
    else:
        fprime = fap.mean(axis=2)

    lam, tau = instance.lam, instance.tau
    if formulation == "maxmin":
        values = (util[:, None] + lam * (tau - fprime)).min(axis=1)
    else:
        values = util + lam * (tau - fprime.max(axis=1))
    if formulation == "discbudget":
        return util, fprime.max(axis=1) < tau
    return values, None


def solve_exact(instance: Instance, formulation: str = "tradeoff") -> SolveResult:
    """Branch-and-bound over per-entry adversary subsets."""
    instance = validate_instance(instance)
    _check_formulation(formulation)
    started = time.perf_counter()
    guard = (instance.t + 1) * instance.num_entries * math.log2(instance.k)
    if guard > SIZE_GUARD_BITS:
        raise SizeGuardError(
            f"instance needs {guard:.1f} search bits, guard is {SIZE_GUARD_BITS:.0f}"
        )

    subsets = _adversary_subsets(instance.k, instance.t)
    ev = IncrementalEvaluator(instance)
    z = instance._normalizer
    # Optimistic utility still collectible from entry d onward.
    suffix = np.zeros(instance.num_entries + 1)
    suffix[:-1] = np.cumsum(instance._top_t_sum[::-1])[::-1]
    lam, tau = instance.lam, instance.tau
    budget = formulation == "discbudget"
    monotone = instance.model.family != "cosine"

    best = {"value": -np.inf, "bits": None, "nodes": 0}
    last = instance.num_entries - 1
    w_last = instance.utility_weights[last].tolist()

    def bound(d: int) -> float:
        util = (ev.util_raw + suffix[d]) / z
        if budget:
            return util
        f_floor = ev.f if monotone else 0.0
        return util + lam * (tau - f_floor)

    def score_leaves() -> None:
        # k single flips give every leaf's aggregates (module docstring).
        base = ev.fprime.tolist()
        single = []
        for a in range(instance.k):
            log: list = []
            ev._flip(last, a, True, log)
            single.append(float(ev.fprime[a]))
            ev._undo(log)
        for sub in subsets:
            best["nodes"] += 1
            util_raw, fprime = ev.util_raw, base[:]
            for a in sub:
                util_raw += w_last[a]
                fprime[a] = single[a]
            f = max(fprime)
            if budget:
                if not f < tau:
                    continue
                value = util_raw / z
            elif formulation == "maxmin":
                value = min(util_raw / z + lam * (tau - fp) for fp in fprime)
            else:
                value = util_raw / z + lam * (tau - f)
            if value > best["value"]:
                best["value"] = value
                best["bits"] = ev.bits.copy()
                best["bits"][last, list(sub)] = True

    def dfs(d: int) -> None:
        best["nodes"] += 1
        if budget and monotone and ev.f >= tau:
            return
        if bound(d) <= best["value"]:
            return
        if d == last:
            score_leaves()
            return
        for sub in subsets:
            log: list = []
            for a in sub:
                ev._flip(d, a, True, log)
            dfs(d + 1)
            ev._undo(log)

    dfs(0)
    if best["bits"] is None:
        if budget:
            raise InfeasibleError("no assignment meets the disclosure budget")
        raise InstanceError("search space unexpectedly empty")
    return finalize_result(instance, Assignment(best["bits"]), best["nodes"], started, 0)
