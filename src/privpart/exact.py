"""Desk-scale exact solvers: exhaustive enumeration (the reference
oracle) and a depth-first branch-and-bound that must agree with it.

Both enumerate per-entry adversary subsets of size 1..t, so the search
space is (number of subsets)^|D|; a hard size guard keeps them on desk
scale. Branch-and-bound prunes with an admissible bound: optimistic
remaining utility (each remaining entry at its top-t weights) plus the
least disclosure any completion can reach.

Adversaries do not collude, so an adversary's aggregate f' is a function
of the set of entries it holds: the kernel and aggregation read only its
own column of the assignment. The walk reads enumeration's table (below),
mask -> f' for all k adversaries, where bit e of the mask stands for
entry e, built once per solve. A leaf's f is the max of its k table
cells, its utility the weights in path order, and a new best's bits come
from the walk's path of subsets alone.

The bounds read low[mask], the min of the table over the supersets of
mask: the superset form of the fast zeta transform (Björklund et al.,
STOC 2007), |D| in-place min passes. A node whose entries before d are
assigned, adversary a holding masks[a], has the disclosure bound
max(f, lb), with f the max over a of low[masks[a]] and the forced bound

    lb = max over e >= d of (min over a of low[masks[a] | 1 << e]).

Every completion gives each a a superset of masks[a], and each entry
e >= d to some a, whose final set then also holds e. A min is exact, so
every completion's disclosure is at least the bound, in float too,
whatever the kernel: cosine is bounded like the rest.

A monotone kernel never lowers an aggregate when an entry joins, after
float rounding too: a column sums its terms (each >= 0, and an exact 0
for an entry a does not hold) in a fixed member order, and step's count
test, linear and quadratic values, the clip, the mean over properties
and the max are monotone, as is each rounded operation. So under step,
linear and quadratic, low is bitwise the table, and the bound and node
count are those of the table's own cells; the tests check both.

A node raises f to lb one entry at a time and stops once it is pruned,
which changes no decision: the budget test, the bound, the node count
and the leaf scores (strict `>`, first best wins) are those of a search
that scores every node from scratch with the same bound. The table costs
2^|D| masks however hard the search prunes; the size guard keeps |D| <= 20.

Enumeration returns the first best assignment in ``itertools.product``
order (entry 0 slowest) by ``batch_objective``, the objective every
result reports. An assignment's disclosure is the max over adversaries
a of table[M_a], M_a the mask of a's entries, where table[mask] is the
clipped aggregate f' of one adversary holding exactly mask: all 2^|D|
masks, scored once per instance in ``draw_chunks`` by
``_set_disclosure`` as one-adversary columns of ``batch_disclosure``.
That is bitwise ``batch_objective``'s disclosure: a column does not
depend on n or on the other columns, the clip is elementwise, a's
reduction is the row max or mean of ``aggregate_disclosure``, and a max
over adversaries is exact.

M_a and the utility are sums of per-entry choice tables: for each
subset, bit d of each adversary's mask (exact in float) and the weight
entry d earns. Their sums over all choice tuples of the first entries
(the head) and of the last (the tail, at most one ``draw_chunks`` chunk
of tuples unless one entry has more choices) are built once, one
broadcast add per entry, and a block of assignments is one broadcast
add of a run of head tuples to the tail. Its approximate values are
``ObjectiveValue.compose`` of that utility over z and the table
disclosure (every entry is assigned), or for ``discbudget`` the utility
where the disclosure is below tau, an exact test, and -inf elsewhere.

Only the order of the utility sum differs from ``batch_objective``. Any
order of n = |D| t non-negative terms (plus exact zeros) is within
gamma_(n-1) z of the true sum (Higham, Accuracy and Stability of
Numerical Algorithms, 2002, sec. 4.2), and ``compose`` applies the same
monotone operations to values of magnitude at most 2, so an approximate
value is within delta = 2 (n + 2) 2^-53, about 1e-14, of the exact one.
The first exact best, and every assignment tied with it, thus lies
within 2 delta of the best approximate value. ``best_draw`` re-scores
every assignment within ``MARGIN`` (at least 1000 delta under the cap)
of it exactly, in product order, with the table disclosure. A draw's
value does not depend on the other draws of its batch, so their first
best is the first best of all, and a lone one is it.

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

from .heuristics import SolveResult, finalize_result
from .instance import Assignment, Instance, InstanceError, validate_instance
from .disclosure import aggregate_disclosure, batch_disclosure
from .objective import ObjectiveValue, best_draw, draw_chunks, normalizer

FORMULATIONS = ("tradeoff", "discbudget")

ENUMERATION_CAP = 1_000_000
SIZE_GUARD_BITS = 40.0
# Enumeration re-scores exactly every assignment whose approximate value
# is within MARGIN of the best one (see the module docstring).
MARGIN = 1e-9


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


def _set_disclosure(instance: Instance, masks: np.ndarray) -> np.ndarray:
    """The clipped aggregate f' of one adversary that holds exactly the
    entries whose bits are set in masks[i], for each i: one-adversary
    columns of ``batch_disclosure``."""
    entry_bits = 1 << np.arange(instance.num_entries)
    vec = batch_disclosure(instance, (masks[:, None, None] & entry_bits[:, None]) != 0)[1]
    return aggregate_disclosure(np.clip(vec, 0.0, 1.0), instance.model.aggregation)


def _entry_set_table(instance: Instance) -> np.ndarray:
    """table[mask]: ``_set_disclosure`` of mask, for all 2^|D| masks,
    scored in ``draw_chunks``."""
    table = np.empty(1 << instance.num_entries)
    start = 0
    for c in draw_chunks(instance, len(table)):
        table[start:start + c] = _set_disclosure(instance, np.arange(start, start + c))
        start += c
    return table


def _superset_minimum(table: np.ndarray) -> np.ndarray:
    """low[mask]: the min of table over the supersets of mask, by one
    in-place min per entry over the masks without and with its bit."""
    low = table.copy()
    for i in range(len(low).bit_length() - 1):
        pair = low.reshape(-1, 2, 1 << i)
        np.minimum(pair[:, 0], pair[:, 1], out=pair[:, 0])
    return low


def _approximate_values(instance: Instance, masks: np.ndarray, table: np.ndarray,
                        budget: bool):
    """Yield (start, values) for consecutive blocks of all assignments
    in product order: the approximate values of the module docstring,
    the block's first at flat index start. masks[s] is subset s as a
    (k,) bool row."""
    m, (num_d, k) = len(masks), instance.utility_weights.shape
    z, lam, tau = normalizer(instance), instance.lam, instance.tau
    # choice[d, :, s]: bit d of each adversary's mask, then d's weight.
    choice = np.empty((num_d, k + 1, m))
    choice[:, :k] = masks.T * (2.0 ** np.arange(num_d))[:, None, None]
    choice[:, k] = instance.utility_weights @ masks.T
    step = draw_chunks(instance, m**num_d)[0]
    split = num_d - 1
    while split > 0 and m ** (num_d - split + 1) <= step:
        split -= 1

    def sums(entries: range) -> np.ndarray:
        """(k + 1, n): ``choice`` summed over the n choice tuples of
        entries, in product order."""
        acc = np.zeros((k + 1, 1))
        for d in entries:
            acc = (acc[:, :, None] + choice[d][:, None, :]).reshape(k + 1, -1)
        return acc

    head, tail = sums(range(split)), sums(range(split, num_d))
    runs = max(1, step // tail.shape[1])
    for h0 in range(0, head.shape[1], runs):
        block = head[:, h0:h0 + runs, None] + tail[:, None, :]
        f = table[block[:k].astype(np.intp)].max(axis=0)
        util = block[k]
        util /= z
        values = (np.where(f < tau, util, -np.inf) if budget
                  else ObjectiveValue.compose(util, f, 0, lam, tau).value)
        yield h0 * tail.shape[1], values.ravel()


def enumerate_optimum(instance: Instance, formulation: str = "tradeoff") -> SolveResult:
    """Reference oracle: the first best assignment in product order, by
    approximate values and an exact re-score of those within ``MARGIN``
    of the best (see the module docstring).

    Branch-and-bound reads the same table values, so the two cross-check
    the search and its bounds, not the disclosure.
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
    masks = np.array([[a in sub for a in range(instance.k)] for sub in subsets])
    table = _entry_set_table(instance)
    budget = formulation == "discbudget"
    best, near = -np.inf, [(np.empty(0, dtype=np.intp), np.empty(0))]
    for start, values in _approximate_values(instance, masks, table, budget):
        top = values.max()
        if top > -np.inf and top >= best - MARGIN:
            best = max(best, top)
            keep = np.flatnonzero(values >= best - MARGIN)
            near.append((start + keep, values[keep]))
    near = np.concatenate([i[v >= best - MARGIN] for i, v in near])
    entry_bits = 1 << np.arange(num_d)
    start = 0

    def draw(c: int) -> np.ndarray:
        nonlocal start
        flat = near[start:start + c]
        start += c
        # C-order unravel puts entry 0 slowest: itertools.product order.
        return np.take(masks, np.array(np.unravel_index(flat, (m,) * num_d)).T, axis=0)

    best_bits = draw(1)[0] if len(near) == 1 else best_draw(
        instance, draw, len(near), budget=budget,
        disclosure=lambda bits: table[np.matmul(entry_bits, bits).T].max(axis=0))
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
    k, num_d, z = instance.k, instance.num_entries, instance._normalizer
    # Optimistic utility still collectible from entry d onward.
    suffix = np.zeros(num_d + 1)
    suffix[:-1] = np.cumsum(instance._top_t_sum[::-1])[::-1]
    suffix = suffix.tolist()
    w = instance.utility_weights.tolist()
    lam, tau = instance.lam, instance.tau
    budget = formulation == "discbudget"
    # Read through memoryviews: a float per index, no list of 2^|D|.
    table = _entry_set_table(instance)
    low = memoryview(_superset_minimum(table))
    table = memoryview(table)

    best_value, best_path, nodes = -math.inf, None, 0
    last = num_d - 1
    # path[d]: the subset of entry d on the walk.
    path: list[tuple[int, ...]] = [()] * num_d

    def pruned(util: float, f: float) -> bool:
        """Whether no completion beats the best, when util bounds their
        utility term and f their disclosure from below."""
        if budget:
            return f >= tau or util <= best_value
        return util + lam * (tau - f) <= best_value

    def expand(d: int, util_raw: float, masks: list[int]) -> bool:
        """Count the node at entry d; False if its subtree is pruned.
        f rises from the node's bound to the forced bound one entry at a
        time and stops once the node is pruned."""
        nonlocal nodes
        nodes += 1
        util = (util_raw + suffix[d]) / z
        f = max([low[mask] for mask in masks])
        if pruned(util, f):
            return False
        for e in range(d, num_d):
            bit = 1 << e
            forced = min([low[mask | bit] for mask in masks])
            if forced > f:
                f = forced
                if pruned(util, f):
                    return False
        return True

    def walk(d: int, masks: list[int], util_raw: float) -> None:
        """The children of a node at entry d."""
        nonlocal nodes, best_value, best_path
        bit = 1 << d
        w_d = w[d]
        if d == last:
            nodes += len(subsets)
        for sub in subsets:
            util, held = util_raw, masks[:]
            for a in sub:
                util += w_d[a]
                held[a] |= bit
            if d < last:
                if expand(d + 1, util, held):
                    path[d] = sub
                    walk(d + 1, held, util)
                continue
            f = max([table[mask] for mask in held])
            if budget:
                if not f < tau:
                    continue
                value = util / z
            else:
                value = util / z + lam * (tau - f)
            if value > best_value:
                path[d] = sub
                best_value, best_path = value, path[:]

    if expand(0, 0.0, [0] * k):
        walk(0, [0] * k, 0.0)
    if best_path is None:
        if budget:
            raise InfeasibleError("no assignment meets the disclosure budget")
        raise InstanceError("search space unexpectedly empty")
    bits = np.zeros((num_d, k), dtype=bool)
    for e, sub in enumerate(best_path):
        bits[e, list(sub)] = True
    return finalize_result(instance, Assignment(bits), nodes, started, 0)
