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
  ``rng.integers(len(list))``. A list of one candidate draws nothing:
  numpy answers ``integers(1)`` with 0 and leaves the generator as it
  was, so the call is skipped and the streams are unchanged.
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

The myopic scope makes t passes over one seeded permutation of the
entries, visiting those still below the cap. A pass adds only to the
entry it visits, so that list is known when the pass starts, and the
pass walks it in windows: maximal runs of consecutive entries of which
no two share evaluator state (``IncrementalEvaluator.windows``; no
property, and for cosine no user). One kernel call scores a window for
every adversary; an addition in it changes only what the other entries
of the window do not read, apart from the aggregates, which each
``add_gain_row`` reads as they stand when its entry is visited. So every
entry's gains, the selections, the RNG draws and the moves are those of
a loop that scores one entry at a time, bit for bit; a dense instance
just gets windows of one. The windows and their layouts depend only on
the entries a pass visits, so they are built once and reused by every
pass that visits the same entries: from an empty evaluator, every pass.

Local search skips an entry without scoring its neighbors when its gain
bound is not positive (an exact form of the "don't-look bits" of Bentley,
ORSA J. Computing 4, 1992). The bound
(``IncrementalEvaluator.neighborhood_gain_bounds``) is the gain
expression every move is scored with, evaluated at lower bounds on the
move's new overall disclosure: the largest aggregate of the adversaries
the move does not touch, and for an addition or a swap to b also a floor
on b's new aggregate, the entry's own entry of the evaluator's cached
column of b (``add_cols``), which is bitwise the value the move reads
under every family and aggregation, so an addition's bound is its gain. ``neighborhood_gains`` reads its
additions from the same columns, which the bounds have just refreshed,
so local search lays out no window. The expression does not increase
with the disclosure, also after float rounding, so the bound is at least
every gain the entry would score, a skipped entry is one on which no
move could have been accepted, and the moves are those of the
unscreened pass.

The r restarts of ``solve`` each draw only from their own child of
``SeedSequence(seed)``, so they may run in forked worker processes
(parallel GRASP: Pardalos, Pitsoulis & Resende, 1995) once r * |D| * k
reaches ``FAN_OUT_CELLS`` and two CPUs are usable; the first best in
restart order is kept either way, so where they ran does not matter.
A worker freezes the objects it inherits (``gc.freeze``): a full
collection walks every tracked object and writes to its page, so in a
forked worker it would copy every page of the parent's heap that holds
one.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .disclosure import per_property_disclosure
from .evaluator import IncrementalEvaluator
from .instance import Assignment, Instance, InstanceError, validate_instance
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
        # to w. A zero weight's key is +inf: that adversary comes last.
        with np.errstate(divide="ignore"):
            keys = rng.exponential(1.0, size=(c,) + w.shape) / w
        chosen = np.argpartition(keys, t - 1, axis=2)[:, :, :t]
        bits = np.zeros(keys.shape, dtype=bool)
        np.put_along_axis(bits, chosen, True, axis=2)
        return bits

    best_bits = best_draw(instance, draw, runs)
    return finalize_result(instance, Assignment(best_bits), runs, started, seed)


# -- candidate selection (construction) ---------------------------------------

def _select_from_gain_matrix(gains: np.ndarray, params: SearchParams,
                             rng) -> tuple[int, int] | None:
    """Pick an addition, as (entry, adversary), from a (|D|, k) gain
    matrix; None when nothing strictly improves."""
    k = gains.shape[1]
    if params.strategy == "greedy":
        flat = int(np.argmax(gains))  # first max in row-major = lowest (d, a)
        if not gains.flat[flat] > 0.0:
            return None
        return divmod(flat, k)
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
    # (-gain, flat index) ascending is the list order; the few survivors
    # sort faster as Python tuples than in numpy.
    top = sorted(zip((-vals).tolist(), improving.tolist()))[: params.n]
    flat = top[_draw(len(top), rng)][1]
    return divmod(flat, k)


def _select_from_gain_row(gains: list[float], params: SearchParams, rng) -> int | None:
    """Pick the adversary to add an entry to from its k gains (a list of
    floats, which compare as numpy does); None when nothing strictly
    improves."""
    if params.strategy == "greedy":
        g_best = max(gains)
        if not g_best > 0.0:
            return None
        return gains.index(g_best)  # first max, as argmax
    # (-gain, adversary) ascending is the list order; its value cut keeps
    # a prefix, so cutting the first n is cutting the list.
    ranked = sorted([(-g, a) for a, g in enumerate(gains) if g > 0.0])
    if not ranked:
        return None
    g_max, g_min = -ranked[0][0], -ranked[-1][0]
    cut = g_max - RCL_ALPHA * (g_max - g_min)
    top = [a for neg, a in ranked[: params.n] if -neg >= cut]
    return top[_draw(len(top), rng)]


def _draw(size: int, rng) -> int:
    """``rng.integers(size)``. numpy answers ``integers(1)`` with 0 and
    leaves the generator as it was, so a one-candidate list skips the
    call and its cost."""
    return 0 if size == 1 else int(rng.integers(size))


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
        pick = _select_from_gain_matrix(ev.add_gain_matrix(), params, rng)
        if pick is None:
            break
        ev.add(*pick)
        applied += 1
    return applied


def _construct_myopic(ev: IncrementalEvaluator, params: SearchParams, rng) -> int:
    inst = ev.inst
    order = rng.permutation(inst.num_entries)  # fixed entry ordering per run
    applied, visit, layouts = 0, None, []
    for _ in range(inst.t):
        # A pass adds only to the entry it visits, so the entries still
        # below the cap are known when it starts. Their windows and
        # layouts depend on nothing else, so a pass that visits the
        # entries the last one did (every pass, from an empty evaluator)
        # reuses them.
        below = order[ev.counts[order] < inst.t]
        if visit is None or not np.array_equal(below, visit):
            visit, layouts = below, ev.window_layouts(below)
        for window, layout in layouts:
            ev.open_window(layout)
            for d in window:
                a = _select_from_gain_row(ev.add_gain_row(d), params, rng)
                if a is not None:
                    ev.add(d, a)
                    applied += 1
    return applied


# -- local search ---------------------------------------------------------------

def local_search(instance: Instance, assignment: Assignment, rng,
                 evaluator: IncrementalEvaluator | None = None):
    """One pass over the entries in seeded random order, taking for each
    the best strictly-improving neighbor (stay / add / remove / swap).
    Returns (assignment, objective value, moves applied).

    Entries whose gain bound is not positive are skipped without scoring
    their neighbors; the moves stay those of a pass that scores every
    entry (see the module docstring). The bounds are recomputed after each
    accepted move, since a move changes the aggregates and columns every
    bound reads."""
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

# Restarts fan out once r * |D| * k reaches this: below it, a restart takes
# about as long as starting a two-worker pool, 10-14 ms on two cores.
FAN_OUT_CELLS = 4000


def _restart(instance: Instance, params: SearchParams, streams, rep: int):
    """Construction and local search on the rep-th seeded stream; returns
    (moves made, objective value, assignment bits)."""
    rng = np.random.default_rng(streams[rep])
    ev = IncrementalEvaluator(instance)
    _, _, made = construction(instance, params, rng, evaluator=ev)
    _, value, moved = local_search(instance, None, rng, evaluator=ev)
    return made + moved, value, ev.bits


def _restart_workers(instance: Instance, params: SearchParams) -> int:
    """Processes to run solve's restarts in; 1 runs them in this one."""
    if (params.r * instance.num_entries * instance.k < FAN_OUT_CELLS
            or "fork" not in multiprocessing.get_all_start_methods()
            or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1):
        return 1
    return min(params.r, len(os.sched_getaffinity(0)))


# A restart worker's (instance, params, streams): the pool's initializer
# extends this list in each worker, so the parent's copy stays empty.
_inherited: list = []


def _init_worker(parent: int, args: tuple) -> None:
    """A restart worker's initializer: keep ``args``, freeze the objects
    inherited from the parent (see the module docstring) and die with the
    parent. A worker blocks on a pipe whose write end it holds itself, so
    a killed parent would leave it waiting for good; on Linux the kernel
    sends it SIGKILL instead (PR_SET_PDEATHSIG), and a parent that died
    before that was set shows as a changed parent pid."""
    _inherited.extend(args)
    gc.freeze()
    if sys.platform.startswith("linux"):
        import ctypes

        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(1, signal.SIGKILL)  # 1 = PR_SET_PDEATHSIG
    if os.getppid() != parent:
        os._exit(1)


def _inherited_restart(rep: int):
    return _restart(*_inherited, rep)


def solve(instance: Instance, params: SearchParams) -> SolveResult:
    """Run construction + local search r times on independent seeded
    streams and return the best result; deterministic in (instance,
    params). The restarts run in ``min(r, usable CPUs)`` forked workers
    when that is at least 2, r * |D| * k reaches ``FAN_OUT_CELLS`` and
    this process can fork and runs one thread (a forked threaded process
    can deadlock), else here. Workers inherit the inputs, get rep indices
    and return (moves, value, bits); a restart reads only its own stream
    and the first best in rep order is kept, so both paths agree bitwise."""
    instance = validate_instance(instance)
    started = time.perf_counter()
    args = (instance, params, np.random.SeedSequence(params.seed).spawn(params.r))
    workers = _restart_workers(instance, params)
    if workers == 1:
        runs = [_restart(*args, rep) for rep in range(params.r)]
    else:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_init_worker, initargs=(os.getpid(), args)) as pool:
            runs = list(pool.map(_inherited_restart, range(params.r)))
    _, _, best_bits = max(runs, key=lambda run: run[1])  # max keeps the first best
    total = sum(run[0] for run in runs)
    return finalize_result(instance, Assignment(best_bits), total, started, params.seed)
