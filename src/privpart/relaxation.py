"""LP relaxation and naive randomized rounding with a repair pass.

The step family relaxes the zero-disclosure integer program: maximize
normalized utility subject to, for every property and adversary, at
least one member withheld. The linear family relaxes the tradeoff
objective directly, moving the max over per-adversary disclosure into an
epigraph variable. Either way the relaxation's objective value upper
bounds the exact integral optimum on the tradeoff scale (for step this
reads the budget term at zero disclosure, which is where the integral
optimum sits whenever lam = 1).

Rounding sets each bit independently with the fractional probability;
the repair pass then restores cardinality: orphaned entries go to their
highest-fraction adversary, over-full entries keep their t highest
fractions (ties toward lower adversary ids).

``_lp_model`` builds the relaxation in numpy, one CSC column per
variable read from the entry-major incidence matrix ``validate_instance``
built, and ``linprog`` solves it with HiGHS. ``linprog`` keeps scipy's
name because the benchmark's tracer (``perfbench/spans.py``) wraps
``relaxation.linprog`` as the LP solve span and counts the rest of
``solve_lp_relaxation`` as LP build.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .heuristics import SolveResult, finalize_result
from .instance import Assignment, Instance, InstanceError, validate_instance
from .objective import batch_objective, best_draw, draw_chunks, normalizer

ROW_SUM_TOL = 1e-6
LP_FAMILIES = ("step", "linear")


class LpInfeasibleError(InstanceError):
    """The relaxation has no feasible point (e.g. a hyperedge cannot be
    split across the available adversaries)."""


@dataclass(frozen=True)
class FractionalSolution:
    x_hat: np.ndarray  # (|D|, k), components in [0, 1]
    lp_objective: float

    def __post_init__(self):
        x = self.x_hat
        # Tested as "inside": NaN fails every comparison, so it is rejected.
        if not np.all((x >= -ROW_SUM_TOL) & (x <= 1.0 + ROW_SUM_TOL)):
            raise InstanceError("fractional components must lie in [0, 1]")
        rows = x.sum(axis=1)
        if np.any(rows < 1.0 - ROW_SUM_TOL) or np.any(rows > x.shape[1] + ROW_SUM_TOL):
            raise InstanceError("fractional row sums must lie in [1, k]")


def _lp_model(instance: Instance):
    """The relaxation of a validated step or linear instance as
    ``(c, a_ub, b_ub, nx)``: minimize ``c @ x`` subject to
    ``a_ub @ x <= b_ub`` (CSC) and x in [0, 1]. The first nx = |D| k
    columns are x (entry d, adversary a at d * k + a); a linear instance
    adds the epigraph column y = nx, which closes every row after the
    cardinality rows. Rows: cardinality (-sum_a x_da <= -1,
    sum_a x_da <= t) per entry, then per property and adversary (step: at
    most |p| - 1 members held; linear/worst: weighted coverage <= y), or
    per adversary (linear/average: coverage averaged over properties
    <= y)."""
    family = instance.model.family
    num_d, num_p, k = instance.num_entries, instance.num_properties, instance.k
    nx, first = num_d * k, 2 * num_d  # first: the first row after the cardinality rows
    ew = instance._entry_weights  # |D| x |P|: a_dp, or 1 for step
    # rows[ptr[d]:ptr[d + 1]] are entry d's other rows (on adversary 0), vals their values.
    if family == "linear" and instance.model.aggregation == "average":
        # One row per adversary; an entry weighs its summed a_dp / |P|,
        # added in property order, and enters the row only if that is > 0.
        per_entry = np.bincount(np.repeat(np.arange(num_d), np.diff(ew.indptr)),
                                ew.data / num_p, minlength=num_d)
        held = per_entry > 0
        ptr = np.concatenate(([0], np.cumsum(held)))
        rows, vals = np.zeros(ptr[-1], dtype=np.int64), per_entry[held]
        y_rows = first + np.arange(k if num_p else 0)
    else:
        ptr, rows, vals = ew.indptr, ew.indices.astype(np.int64) * k, ew.data  # row p * k + a
        y_rows = first + np.arange(num_p * k if family == "linear" else 0)

    # Entry d's block: rows 2d and 2d + 1, then its other rows. Column
    # d * k + a is block d with the other rows moved to adversary a.
    at = np.repeat(ptr[:-1], 2)
    block_rows = np.insert(first + rows, at, np.arange(2 * num_d))
    block_vals = np.insert(vals, at, np.tile([-1.0, 1.0], num_d))
    length = np.repeat(np.diff(ptr) + 2, k)
    indptr = np.cumsum(np.concatenate(([0], length, [y_rows.size])))  # y's column last
    col = np.repeat(np.arange(nx), length)
    i = np.arange(indptr[nx]) - indptr[col]
    d, a = np.divmod(col, k)
    src = ptr[d] + 2 * d + i
    a_rows = block_rows[src] + a * (i >= 2)

    b_prop = np.repeat(instance._sizes - 1.0, k) if family == "step" else np.zeros(y_rows.size)
    b_ub = np.concatenate([np.tile([-1.0, float(instance.t)], num_d), b_prop])
    c = -(instance.utility_weights / instance._normalizer).ravel()
    if family == "linear":
        c = np.append(c, instance.lam)
    n_vars = c.size
    a_ub = sp.csc_matrix((np.concatenate([block_vals[src], np.full(y_rows.size, -1.0)]),
                          np.concatenate([a_rows, y_rows]), indptr[:n_vars + 1]),
                         shape=(b_ub.size, n_vars))
    return c, a_ub, b_ub, nx


def linprog(c, a_ub, b_ub):
    """Minimize ``c @ x`` subject to ``a_ub @ x <= b_ub`` and x in [0, 1]
    with HiGHS, through ``scipy.optimize.milp`` with no integral column.
    ``scipy.optimize`` is imported on the first call, so a process that
    solves no LP never loads it."""
    from scipy.optimize import LinearConstraint, milp

    return milp(c, constraints=LinearConstraint(a_ub, -np.inf, b_ub), bounds=(0.0, 1.0))


def solve_lp_relaxation(instance: Instance) -> FractionalSolution:
    """Solve the relaxation for the instance's family, step or linear."""
    instance = validate_instance(instance)
    family = instance.model.family
    if family not in LP_FAMILIES:
        raise InstanceError(f"LP relaxation supports {'|'.join(LP_FAMILIES)}, not {family!r}")
    z = normalizer(instance)

    c, a_ub, b_ub, nx = _lp_model(instance)
    res = linprog(c, a_ub, b_ub)
    if res.status == 2:
        raise LpInfeasibleError("relaxation is infeasible")
    if not res.success:
        raise InstanceError(f"LP solver failed: {res.message}")

    x_hat = np.clip(res.x[:nx].reshape(instance.num_entries, instance.k), 0.0, 1.0)
    util = float((instance.utility_weights * x_hat).sum()) / z
    lam, tau = instance.lam, instance.tau
    if family == "step":
        lp_objective = util + lam * tau
    else:
        y_val = float(res.x[nx]) if instance.num_properties > 0 else 0.0
        lp_objective = util + lam * (tau - y_val)
    return FractionalSolution(x_hat=x_hat, lp_objective=lp_objective)


def _roundings(frac: FractionalSolution, rng, c: int) -> np.ndarray:
    """c independent Bernoulli roundings of every component, (c, |D|, k)."""
    return rng.random((c,) + frac.x_hat.shape) < frac.x_hat


def repair(instance: Instance, bits: np.ndarray, frac: FractionalSolution) -> np.ndarray:
    """Restore cardinality feasibility in place of the sampled bits."""
    bits = bits.copy()
    counts = bits.sum(axis=1)
    for d in np.nonzero(counts == 0)[0]:
        bits[d, int(np.argmax(frac.x_hat[d]))] = True
    for d in np.nonzero(counts > instance.t)[0]:
        chosen = np.nonzero(bits[d])[0]
        keep = sorted(chosen, key=lambda a: (-frac.x_hat[d, a], a))[: instance.t]
        bits[d] = False
        bits[d, keep] = True
    return bits


def round_and_repair(instance: Instance, frac: FractionalSolution,
                     runs: int = 100, seed: int = 0) -> SolveResult:
    """Best of ``runs`` repaired roundings by tradeoff objective."""
    instance = validate_instance(instance)
    if runs < 1:
        raise InstanceError("runs must be >= 1")
    started = time.perf_counter()
    rng = np.random.default_rng(seed)

    def draw(c: int) -> np.ndarray:
        return np.stack([repair(instance, b, frac) for b in _roundings(frac, rng, c)])

    best_bits = best_draw(instance, draw, runs)
    return finalize_result(instance, Assignment(best_bits), runs, started, seed)


def rounding_mean_objective(instance: Instance, frac: FractionalSolution,
                            draws: int, seed: int = 0):
    """Monte-Carlo mean and standard error of the unrepaired rounded
    objective.

    Without repair, cardinality holds only in expectation, so each draw
    scores the plain tradeoff (no unassigned-entry penalty); that is the
    quantity whose expectation the relaxation value bounds.
    """
    instance = validate_instance(instance)
    if draws < 1:
        raise InstanceError("draws must be >= 1")
    rng = np.random.default_rng(seed)
    values = np.empty(draws)
    start = 0
    for c in draw_chunks(instance, draws):
        obj = batch_objective(instance, _roundings(frac, rng, c))[0]
        values[start:start + c] = obj.value + obj.unassigned_count
        start += c
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(draws)) if draws > 1 else 0.0
    return mean, stderr
