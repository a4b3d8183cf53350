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
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .heuristics import SolveResult, finalize_result
from .instance import Assignment, Instance, InstanceError, validate_instance
from .objective import batch_objective, best_draw, draw_chunks

ROW_SUM_TOL = 1e-6


class LpInfeasibleError(InstanceError):
    """The relaxation has no feasible point (e.g. a hyperedge cannot be
    split across the available adversaries)."""


@dataclass(frozen=True)
class FractionalSolution:
    x_hat: np.ndarray  # (|D|, k), components in [0, 1]
    lp_objective: float

    def __post_init__(self):
        x = self.x_hat
        if np.any(x < -ROW_SUM_TOL) or np.any(x > 1.0 + ROW_SUM_TOL):
            raise InstanceError("fractional components must lie in [0, 1]")
        rows = x.sum(axis=1)
        if np.any(rows < 1.0 - ROW_SUM_TOL) or np.any(rows > x.shape[1] + ROW_SUM_TOL):
            raise InstanceError("fractional row sums must lie in [1, t]")


def solve_lp_relaxation(instance: Instance) -> FractionalSolution:
    """Solve the relaxation for the instance's family, step or linear."""
    instance = validate_instance(instance)
    family = instance.model.family
    if family not in ("step", "linear"):
        raise InstanceError(f"LP relaxation supports step|linear, not {family!r}")
    num_d, k = instance.num_entries, instance.k
    nx = num_d * k
    lam, tau = instance.lam, instance.tau
    z = instance._normalizer
    if z <= 0.0:
        raise InstanceError("degenerate instance: all utility weights are zero")

    rows, cols, data, b_ub = [], [], [], []

    def add_row(col_idx, col_val, rhs):
        r = len(b_ub)
        rows.extend([r] * len(col_idx))
        cols.extend(col_idx)
        data.extend(col_val)
        b_ub.append(rhs)

    # Cardinality: 1 <= sum_a x_da <= t for every entry.
    for d in range(num_d):
        idx = [d * k + a for a in range(k)]
        add_row(idx, [-1.0] * k, -1.0)
        add_row(idx, [1.0] * k, float(instance.t))

    has_epigraph = family == "linear" and instance.num_properties > 0
    n_vars = nx + (1 if family == "linear" else 0)

    if family == "step":
        for p in instance.hypergraph.properties:
            for a in range(k):
                idx = [d * k + a for d in p.members]
                add_row(idx, [1.0] * len(idx), float(len(p.members) - 1))
    elif has_epigraph:
        y = nx
        if instance.model.aggregation == "worst":
            for p in instance.hypergraph.properties:
                w = p.weights
                for a in range(k):
                    idx = [d * k + a for d in p.members] + [y]
                    add_row(idx, list(w) + [-1.0], 0.0)
        else:
            num_p = instance.num_properties
            per_entry = np.zeros(num_d)
            for p in instance.hypergraph.properties:
                for d, w in zip(p.members, p.weights):
                    per_entry[d] += w / num_p
            for a in range(k):
                idx = [d * k + a for d in range(num_d) if per_entry[d] > 0] + [y]
                vals = [per_entry[d] for d in range(num_d) if per_entry[d] > 0] + [-1.0]
                add_row(idx, vals, 0.0)

    c = np.zeros(n_vars)
    c[:nx] = -(instance.utility_weights / z).ravel()
    if family == "linear":
        c[nx] = lam
    bounds = [(0.0, 1.0)] * n_vars

    a_ub = sp.csr_matrix(
        (data, (rows, cols)), shape=(len(b_ub), n_vars), dtype=np.float64
    )
    res = linprog(c, A_ub=a_ub, b_ub=np.array(b_ub), bounds=bounds, method="highs")
    if res.status == 2:
        raise LpInfeasibleError("relaxation is infeasible")
    if not res.success:
        raise InstanceError(f"LP solver failed: {res.message}")

    x_hat = np.clip(res.x[:nx].reshape(num_d, k), 0.0, 1.0)
    util = float((instance.utility_weights * x_hat).sum()) / z
    if family == "step":
        lp_objective = util + lam * tau
    else:
        y_val = float(res.x[nx]) if has_epigraph else 0.0
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
