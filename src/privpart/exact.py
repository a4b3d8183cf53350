"""Desk-scale exact solvers: exhaustive enumeration (the reference
oracle) and a depth-first branch-and-bound that must agree with it.

Both enumerate per-entry adversary subsets of size 1..t, so the search
space is (number of subsets)^|D|; a hard size guard keeps them on desk
scale. Branch-and-bound prunes with an admissible bound: optimistic
remaining utility (each remaining entry at its top-t weights) plus the
best conceivable disclosure term. When the evaluator's kernel is
monotone the current partial disclosure already lower-bounds the final
one; otherwise the bound falls back to zero disclosure.

Branch-and-bound walks the search tree from the root. For each
adversary a, the entries a holds at a node form a bitmask, and the node
needs only a's aggregate f'_a at that mask, one cell per adversary. The
walk reads each cell from a memo filled on first use. Each adversary
keeps a stack of its flips (entry, undo log, mask held after the flip)
in increasing entry order; on a miss the walk undoes a's stack down to
the longest prefix of the mask, flips the missing entries onto a in
increasing order by `_flip`, and memoizes every cell it passes.

Each cell is bitwise the value a search that flips at every node would
read there: a's state (its kernel state, its row of f_ap, its row sum
and aggregate) depends only on which entries a holds and on their
order, never on other adversaries, and every route adds a's entries in
increasing order by the same `_flip`. A logged `_flip` records exactly
that state of a, plus the shared scalars, and `_undo` writes it back,
so undoing one adversary's stack out of global order leaves every other
adversary's state exact. Entries leave a only through `_undo`, never by
a removing flip, since a removal takes a different float path than an
addition. The shared state (`util_raw`, `counts`, `c_unassigned`, `f`)
goes stale under such undos, so the walk reads only `fprime[a]`
mid-search: a node's f is the max of its k cells, its utility is the
root's `util_raw` plus the weights in subset order, and a new best's
bits come from the walk's path of subsets alone. So the budget test,
the bound, the node count and the leaf scores (strict `>`, first best
wins) are those of flipping at every node.

Enumeration builds each chunk of subset indices with numpy's C-order
``unravel_index``, which is ``itertools.product`` order, and hands the
chunks to ``objective.best_draw`` as its draws: every assignment is
scored by ``batch_objective``, the objective every result reports, and
the first of equals wins.

``formulation`` selects what is maximized:

* ``tradeoff``   -- utility + lam * (tau - disclosure)
* ``discbudget`` -- utility alone, subject to disclosure strictly below
                    tau (may be infeasible)
"""

from __future__ import annotations

import math
import time
from itertools import combinations

import numpy as np

from .evaluator import IncrementalEvaluator
from .heuristics import SolveResult, finalize_result
from .instance import Assignment, Instance, InstanceError, validate_instance
from .objective import best_draw

FORMULATIONS = ("tradeoff", "discbudget")

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
    """Reference oracle: score every feasible assignment, in
    ``itertools.product`` order, with ``best_draw``.

    Kept deliberately independent of the branch-and-bound path (batch
    scoring from scratch instead of incremental state) so the two can
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

    start = 0

    def draw(c: int) -> np.ndarray:
        nonlocal start
        flat = np.arange(start, start + c)
        start += c
        # C-order unravel puts entry 0 slowest: itertools.product order.
        return masks[np.stack(np.unravel_index(flat, (m,) * num_d), axis=1)]

    best_bits = best_draw(instance, draw, total, budget=formulation == "discbudget")
    if best_bits is None:
        raise InfeasibleError("no assignment meets the disclosure budget")
    return finalize_result(instance, Assignment(best_bits), total, started, 0)


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
    monotone = ev.kernel.monotone

    best = {"value": -np.inf, "bits": None, "nodes": 0}
    last = num_d - 1
    # cells[a][mask]: f'_a once a holds the entries whose bits are set in
    # mask; stacks[a]: a's flips as (entry, log, mask held after it);
    # path[d]: the subset of entry d on the walk.
    cells = [{0: float(ev.fprime[a])} for a in range(k)]
    stacks: list[list[tuple[int, list, int]]] = [[] for _ in range(k)]
    path: list[tuple[int, ...]] = [()] * num_d

    def expand(d: int, util_raw: float, f: float) -> bool:
        """Count the node at entry d; False if its subtree is pruned."""
        best["nodes"] += 1
        if budget and monotone and f >= tau:
            return False
        util = (util_raw + suffix[d]) / z
        if not budget:
            util += lam * (tau - (f if monotone else 0.0))
        return not util <= best["value"]

    def cell(a: int, mask: int) -> float:
        """Cell (a, mask). On a miss, keep the longest prefix of mask on
        a's stack, then flip the rest of mask onto a in increasing order."""
        stack, memo = stacks[a], cells[a]
        if mask in memo:
            return memo[mask]
        while stack and stack[-1][2] != mask & ((2 << stack[-1][0]) - 1):
            ev._undo(stack.pop()[1])
        held = stack[-1][2] if stack else 0
        rest = mask ^ held
        while rest:
            low = rest & -rest
            rest ^= low
            x = low.bit_length() - 1
            log: list = []
            ev._flip(x, a, True, log)
            held |= low
            stack.append((x, log, held))
            memo[held] = float(ev.fprime[a])
        return memo[mask]

    def walk(d: int, masks: list[int], fprime: list[float], util_raw: float) -> None:
        """The children of a node at entry d."""
        bit = 1 << d
        # k plain lookups; a KeyError sends the node's cells through cell().
        try:
            on = [memo[mask | bit] for memo, mask in zip(cells, masks)]
        except KeyError:
            on = [cell(a, mask | bit) for a, mask in enumerate(masks)]
        w_d = w[d]
        if d < last:
            for sub in subsets:
                util, fp, held = util_raw, fprime[:], masks[:]
                for a in sub:
                    util += w_d[a]
                    fp[a] = on[a]
                    held[a] |= bit
                if expand(d + 1, util, max(fp)):
                    path[d] = sub
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
            else:
                value = util / z + lam * (tau - max(fp))
            if value > best["value"]:
                path[d] = sub
                bits = np.zeros((num_d, k), dtype=bool)
                for e, held_sub in enumerate(path):
                    bits[e, list(held_sub)] = True
                best["value"], best["bits"] = value, bits

    if expand(0, ev.util_raw, ev.f):
        walk(0, [0] * k, ev.fprime.tolist(), ev.util_raw)
    if best["bits"] is None:
        if budget:
            raise InfeasibleError("no assignment meets the disclosure budget")
        raise InstanceError("search space unexpectedly empty")
    return finalize_result(instance, Assignment(best["bits"]), best["nodes"], started, 0)
