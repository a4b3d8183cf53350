"""Desk-scale exact solvers: exhaustive enumeration (the reference
oracle) and a depth-first branch-and-bound that must agree with it.

Both enumerate per-entry adversary subsets of size 1..t, so the search
space is (number of subsets)^|D|; a hard size guard keeps them on desk
scale. Branch-and-bound prunes with an admissible bound: optimistic
remaining utility (each remaining entry at its top-t weights) plus the
best conceivable disclosure term. When the evaluator's kernel is
monotone the current partial disclosure already lower-bounds the final
one; otherwise the bound falls back to zero disclosure.

Branch-and-bound flips entries only down to entry d0 = |D| - j. At a
node of d0 it builds one table per adversary a: for every subset of
the last j entries (a bitmask), the aggregate f'_a once a also holds
those entries. The table is filled by a depth-first walk that flips the
entries onto a alone, in increasing order, reads f'_a and undoes the
flip: k (2^j - 1) flips. Below d0 the search walks the subtree in the
same subset order with lookups only. Each cell is bitwise the value a
flip search would reach there: a's state (its kernel state, its row of
f_ap, its row sum and aggregate) depends only on which entries a holds
and on their order, never on other adversaries, and every route adds
a's entries in increasing order by the same `_flip`. A logged `_flip`
records exactly that state of a, plus the shared scalars, and `_undo`
writes it back, so no other adversary's state is copied. A node's f
is the max of its k cells and its utility is `util_raw` plus the
weights in subset order, so the budget test, the bound, the node count
and the leaf scores (strict `>`, first best wins) are those of visiting
each node. Entries are never flipped off for a table, since a removal
takes a different float path than an addition.

The depth j is the largest j <= |D| with k (2^j - 1) <= m^j, m the
number of subsets, and at least 1: the table's flips may cost no more
than the m^j nodes under one table would have cost. (k, t) = (2, 1)
and k = 1 give j = 1, which scores the last entry's subsets from k
single flips. Every other shape the size guard admits gives j = |D|:
one table at the root serves the whole search, which makes no flip,
and a table never exceeds 2^13 cells.

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


def _table_depth(k: int, m: int, num_d: int) -> int:
    """How many trailing entries the tables cover: the largest j <= |D|
    with k (2^j - 1) <= m^j. Filling the tables takes k (2^j - 1) flips;
    the m^j nodes under one table are what a flip search would pay.

    j = 1 always qualifies (m >= k). For m <= 2 nothing larger does; for
    m >= 3 a qualifying j keeps qualifying, since (m - 2) m^j >= k. So
    the first failure ends the search."""
    j = 1
    while j < num_d and k * ((2 << j) - 1) <= m ** (j + 1):
        j += 1
    return j


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
    k, num_d, z = instance.k, instance.num_entries, instance._normalizer
    # Optimistic utility still collectible from entry d onward.
    suffix = np.zeros(num_d + 1)
    suffix[:-1] = np.cumsum(instance._top_t_sum[::-1])[::-1]
    suffix = suffix.tolist()
    w = instance.utility_weights.tolist()
    lam, tau = instance.lam, instance.tau
    budget = formulation == "discbudget"
    maxmin = formulation == "maxmin"
    monotone = ev.kernel.monotone

    best = {"value": -np.inf, "bits": None, "nodes": 0}
    last = num_d - 1
    d0 = num_d - _table_depth(k, len(subsets), num_d)
    # tables[a][mask]: f'_a once a also holds the entries d0 + i with bit
    # i set in mask; path[i]: the subset of entry d0 + i on the walk.
    tables: list[list[float]] = []
    path: list[tuple[int, ...]] = [()] * (num_d - d0)

    def expand(d: int, util_raw: float, f: float) -> bool:
        """Count the node at entry d; False if its subtree is pruned."""
        best["nodes"] += 1
        if budget and monotone and f >= tau:
            return False
        util = (util_raw + suffix[d]) / z
        if not budget:
            util += lam * (tau - (f if monotone else 0.0))
        return not util <= best["value"]

    def fill(a: int, table: list[float], e: int, mask: int) -> None:
        """Cells of a's table for mask plus entries from e on, added in
        increasing order."""
        for x in range(e, num_d):
            log: list = []
            ev._flip(x, a, True, log)
            held = mask | 1 << (x - d0)
            table[held] = float(ev.fprime[a])
            fill(a, table, x + 1, held)
            ev._undo(log)

    def walk(d: int, masks: list[int], fprime: list[float], util_raw: float) -> None:
        """The children of a node at entry d >= d0, from table lookups."""
        bit = 1 << (d - d0)
        on = [tables[a][masks[a] | bit] for a in range(k)]
        w_d = w[d]
        if d < last:
            for sub in subsets:
                util, fp, held = util_raw, fprime[:], masks[:]
                for a in sub:
                    util += w_d[a]
                    fp[a] = on[a]
                    held[a] |= bit
                if expand(d + 1, util, max(fp)):
                    path[d - d0] = sub
                    walk(d + 1, held, fp, util)
            return
        best["nodes"] += len(subsets)
        for sub in subsets:
            util, fp = util_raw, fprime[:]
            for a in sub:
                util += w_d[a]
                fp[a] = on[a]
            if budget:
                if not max(fp) < tau:
                    continue
                value = util / z
            elif maxmin:
                value = min(util / z + lam * (tau - x) for x in fp)
            else:
                value = util / z + lam * (tau - max(fp))
            if value > best["value"]:
                path[d - d0] = sub
                bits = ev.bits.copy()
                for i, held_sub in enumerate(path):
                    bits[d0 + i, list(held_sub)] = True
                best["value"], best["bits"] = value, bits

    def dfs(d: int) -> None:
        if not expand(d, ev.util_raw, ev.f):
            return
        if d == d0:
            tables[:] = [[float(ev.fprime[a])] * (1 << (num_d - d0)) for a in range(k)]
            for a in range(k):
                fill(a, tables[a], d0, 0)
            walk(d0, [0] * k, ev.fprime.tolist(), float(ev.util_raw))
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
