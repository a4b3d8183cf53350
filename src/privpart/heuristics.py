"""Search heuristics: weighted random baseline, greedy/randomized
construction (global and myopic), single-pass local search, and the
repeated outer loop that keeps the best of r independent runs.

Strategy semantics:

* GREEDY picks the candidate with the largest objective gain, breaking
  ties toward the lowest (entry, adversary) pair.
* GRASP builds a restricted candidate list (RCL) of at most n strictly
  improving candidates and draws one uniformly; with n=1 it reproduces
  GREEDY exactly. The list is exact, ties included: candidates are
  ordered by gain descending, then by lowest flat index (entry * k +
  adversary in the global scope, adversary in the myopic one), the
  first n are kept, and one of them is drawn with a single
  ``rng.integers(len(list))``.
* In the myopic scope the list is first cut by value (Feo & Resende,
  J. Global Optim. 6, 1995): of the strictly improving gains, only those
  with ``gain >= g_max - RCL_ALPHA * (g_max - g_min)`` stay, so
  ``RCL_ALPHA`` = 0 keeps only the best gain and its ties, and 1 keeps
  every improving candidate up to float rounding at g_min. A myopic row has only k candidates, and for an entry with
  no adversary yet the unassigned-entry bonus makes all k improving, so
  without the cut the top n would often be every adversary and the draw
  would ignore utility and disclosure alike.
* The global scope has no value cut: its list ranks all |D| * k
  candidates, so the top n is already selective. It narrows the
  candidates with ``np.partition`` to those at or above the n-th largest
  gain, which keeps every candidate of the ordering's first n, so the
  list and the draw are those of a full sort.

Both accept a move only on strict improvement, which (together with the
unassigned-entry penalty in the objective) guarantees every entry ends
up with between 1 and t adversaries.

Local search skips an entry without scoring its neighbors when its gain
bound is not positive (an exact form of the "don't-look bits" of Bentley,
ORSA J. Computing 4, 1992). The bound
(``IncrementalEvaluator.neighborhood_gain_bounds``) writes each move's gain
with the same float operations as ``neighborhood_gains``, with the new
aggregate replaced by a lower bound on it: the largest aggregate of the
adversaries the move does not touch, and for an addition to b also
b's current aggregate when the evaluator's kernel is monotone (step,
linear and quadratic: lam in [0, 1] and a_dp >= 0 are validated, and
running sums are clamped at 0 on removal, so adding an entry cannot
lower it). Other kernels get no such floor. Float rounding
is monotone, so the bound is at least every gain the entry would score, a
skipped entry is one on which no move could have been accepted, and the
moves are those of the unscreened pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .disclosure import per_property_disclosure
from .evaluator import IncrementalEvaluator
from .instance import Assignment, Instance, InstanceError, Move, validate_instance
from .objective import ObjectiveValue, batch_objective, best_draw

STRATEGIES = ("greedy", "grasp")
SCOPES = ("global", "myopic")
# Value cut of the myopic GRASP candidate list, as a fraction of the
# spread of the improving gains (see the module docstring).
RCL_ALPHA = 0.5


@dataclass(frozen=True)
class SearchParams:
    strategy: str = "greedy"
    scope: str = "global"
    n: int = 1
    r: int = 1
    t: int | None = None  # None: use the instance's cap
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise InstanceError(f"unknown strategy {self.strategy!r}")
        if self.scope not in SCOPES:
            raise InstanceError(f"unknown scope {self.scope!r}")
        if self.n < 1:
            raise InstanceError("candidate-list size n must be >= 1")
        if self.r < 1:
            raise InstanceError("repetition count r must be >= 1")


@dataclass
class SolveResult:
    assignment: Assignment
    objective: ObjectiveValue
    per_property_disclosure: np.ndarray
    iterations: int
    wall_time: float
    seed_used: int


def finalize_result(instance: Instance, assignment: Assignment, iterations: int,
            started: float, seed: int) -> SolveResult:
    """Package a result, recomputing the objective from scratch so the
    reported value is exactly reproducible from the assignment."""
    objective, vec = batch_objective(instance, assignment.bits[None])
    return SolveResult(
        assignment=assignment,
        objective=objective.pick(0),
        per_property_disclosure=per_property_disclosure(vec[0]),
        iterations=iterations,
        wall_time=time.perf_counter() - started,
        seed_used=seed,
    )


# -- RAND+ baseline ---------------------------------------------------------

def rand_plus(instance: Instance, runs: int = 100, seed: int = 0) -> SolveResult:
    """Assign every entry to exactly t adversaries, sampled without
    replacement with probability proportional to the utility weight;
    keep the best of ``runs`` draws by tradeoff objective."""
    instance = validate_instance(instance)
    if runs < 1:
        raise InstanceError("runs must be >= 1")
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    w = instance.utility_weights.copy()
    zero_rows = w.sum(axis=1) == 0.0
    w[zero_rows] = 1.0  # uniform fallback for all-zero weight rows
    t = instance.t

    def draw(c: int) -> np.ndarray:
        # Weighted sampling without replacement via exponential racing:
        # the t smallest Exp(1)/w values per row are a draw proportional
        # to w.
        keys = rng.exponential(1.0, size=(c,) + w.shape) / w
        chosen = np.argpartition(keys, t - 1, axis=2)[:, :, :t]
        bits = np.zeros(keys.shape, dtype=bool)
        np.put_along_axis(bits, chosen, True, axis=2)
        return bits

    best_bits = best_draw(instance, draw, runs)
    return finalize_result(instance, Assignment(best_bits), runs, started, seed)


# -- candidate selection (construction) ---------------------------------------

def _select_from_gain_matrix(gains: np.ndarray, params: SearchParams, rng) -> Move | None:
    """Pick an addition from a (|D|, k) gain matrix; None when nothing
    strictly improves."""
    k = gains.shape[1]
    if params.strategy == "greedy":
        flat = int(np.argmax(gains))  # first max in row-major = lowest (d, a)
        if not gains.flat[flat] > 0.0:
            return None
        return Move("add", flat // k, to_adversary=flat % k)
    flat_gains = gains.ravel()
    improving = np.flatnonzero(flat_gains > 0.0)
    if improving.size == 0:
        return None
    vals = flat_gains[improving]
    if improving.size > params.n:
        # Keep everything at or above the n-th largest gain, so ties at
        # the cut survive and the ordering below sees the same top n.
        keep = vals >= np.partition(vals, vals.size - params.n)[vals.size - params.n]
        improving = improving[keep]
        vals = vals[keep]
    order = improving[np.lexsort((improving, -vals))]
    top = order[: params.n]
    flat = int(top[rng.integers(top.size)])
    return Move("add", flat // k, to_adversary=flat % k)


def _select_from_gain_row(d: int, gains: np.ndarray, params: SearchParams, rng) -> Move | None:
    """Pick an addition of entry d from its k gains; None when nothing
    strictly improves. Runs on plain floats, which compare as numpy does."""
    row = gains.tolist()
    if params.strategy == "greedy":
        g_best = max(row)
        if not g_best > 0.0:
            return None
        return Move("add", d, to_adversary=row.index(g_best))  # first max, as argmax
    # (-gain, adversary) ascending is the list order; its value cut keeps
    # a prefix, so cutting the first n is cutting the list.
    ranked = sorted([(-g, a) for a, g in enumerate(row) if g > 0.0])
    if not ranked:
        return None
    g_max, g_min = -ranked[0][0], -ranked[-1][0]
    cut = g_max - RCL_ALPHA * (g_max - g_min)
    top = [a for neg, a in ranked[: params.n] if -neg >= cut]
    return Move("add", d, to_adversary=top[rng.integers(len(top))])


# -- construction phase --------------------------------------------------------

def construction(instance: Instance, params: SearchParams, rng,
                 evaluator: IncrementalEvaluator | None = None):
    """Build an assignment from scratch by repeatedly adding the chosen
    candidate. Returns (assignment, objective value, additions made)."""
    instance = validate_instance(instance)
    ev = evaluator if evaluator is not None else IncrementalEvaluator(instance)
    if params.scope == "global":
        applied = _construct_global(ev, params, rng)
    else:
        applied = _construct_myopic(ev, params, rng)
    return ev.assignment(), ev.objective, applied


def _construct_global(ev: IncrementalEvaluator, params: SearchParams, rng) -> int:
    inst = ev.inst
    applied = 0
    for _ in range(inst.t * inst.num_entries):
        move = _select_from_gain_matrix(ev.add_gain_matrix(), params, rng)
        if move is None:
            break
        ev.apply(move)
        applied += 1
    return applied


def _construct_myopic(ev: IncrementalEvaluator, params: SearchParams, rng) -> int:
    inst = ev.inst
    order = rng.permutation(inst.num_entries)  # fixed entry ordering per run
    applied = 0
    for _ in range(inst.t):
        for d in order:
            d = int(d)
            if ev.counts[d] >= inst.t:
                continue
            move = _select_from_gain_row(d, ev.add_gain_row(d), params, rng)
            if move is not None:
                ev.apply(move)
                applied += 1
    return applied


# -- local search ---------------------------------------------------------------

def local_search(instance: Instance, assignment: Assignment, params: SearchParams, rng,
                 evaluator: IncrementalEvaluator | None = None):
    """One pass over the entries in seeded random order, taking for each
    the best strictly-improving neighbor (stay / add / remove / swap).
    Returns (assignment, objective value, moves applied).

    Entries whose gain bound is not positive are skipped without scoring
    their neighbors; the moves stay those of a pass that scores every
    entry (see the module docstring). The bounds are recomputed after each
    accepted move, since a move changes the aggregates every bound reads."""
    instance = validate_instance(instance)
    ev = evaluator if evaluator is not None else IncrementalEvaluator(instance, assignment)
    applied = 0
    bound = ev.neighborhood_gain_bounds()
    for d in rng.permutation(instance.num_entries):
        d = int(d)
        if not bound[d] > 0.0:
            continue
        best_move = None
        best_gain = 0.0
        for move, gain in ev.neighborhood_gains(d):
            if gain > best_gain:
                best_gain = gain
                best_move = move
        if best_move is not None:
            ev.apply(best_move)
            applied += 1
            bound = ev.neighborhood_gain_bounds()
    return ev.assignment(), ev.objective, applied


# -- outer loop -------------------------------------------------------------------

def _with_cap(instance: Instance, t: int) -> Instance:
    clone = Instance(
        instance.hypergraph, instance.utility_weights, instance.k, t,
        instance.lam, instance.tau, instance.model, instance.entries,
    )
    return validate_instance(clone)


def solve(instance: Instance, params: SearchParams) -> SolveResult:
    """Run construction + local search r times on independent seeded
    streams and return the best result; deterministic in (instance,
    params)."""
    instance = validate_instance(instance)
    if params.t is not None and params.t != instance.t:
        instance = _with_cap(instance, params.t)
    started = time.perf_counter()
    streams = np.random.SeedSequence(params.seed).spawn(params.r)
    best_bits = None
    best_value = -np.inf
    total = 0
    for rep in range(params.r):
        rng = np.random.default_rng(streams[rep])
        ev = IncrementalEvaluator(instance)
        _, _, made = construction(instance, params, rng, evaluator=ev)
        _, value, moved = local_search(instance, None, params, rng, evaluator=ev)
        total += made + moved
        if value > best_value:
            best_value = value
            best_bits = ev.bits.copy()
    return finalize_result(instance, Assignment(best_bits), total, started, params.seed)
