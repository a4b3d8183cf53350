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

``_lp_model`` builds the relaxation in numpy and ``linprog`` solves it
with HiGHS. ``linprog`` keeps scipy's name because the benchmark's
tracer (``perfbench/spans.py``) wraps ``relaxation.linprog`` as the LP
solve span and counts the rest of ``solve_lp_relaxation`` as LP build.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain

import numpy as np
import scipy.sparse as sp

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
            raise InstanceError("fractional row sums must lie in [1, k]")


def _lp_model(instance: Instance):
    """The relaxation of a validated step or linear instance as
    ``(c, a_ub, b_ub, nx)``: minimize ``c @ x`` subject to
    ``a_ub @ x <= b_ub`` and x in [0, 1]. The first nx = |D| k columns
    are x (entry d, adversary a at d * k + a); a linear instance adds the
    epigraph column y = nx. Rows: cardinality (-sum_a x_da <= -1,
    sum_a x_da <= t) per entry, then per property and adversary (step:
    at most |p| - 1 members held; linear/worst: weighted coverage <= y),
    or per adversary (linear/average: coverage averaged over properties
    <= y)."""
    family = instance.model.family
    num_d, k = instance.num_entries, instance.k
    nx = num_d * k
    props = instance.hypergraph.properties
    sizes = np.fromiter((len(p.members) for p in props), np.int64, len(props))
    members = np.fromiter(chain.from_iterable(p.members for p in props), np.int64, sizes.sum())

    rows = [np.repeat(np.arange(2 * num_d), k)]
    cols = [np.repeat(np.arange(nx).reshape(num_d, 1, k), 2, axis=1).ravel()]
    data = [np.tile(np.repeat([-1.0, 1.0], k), num_d)]
    b_ub = [np.tile([-1.0, float(instance.t)], num_d)]

    def add_rows(seg_sizes, entries, vals, rhs):
        # One row per (segment, adversary), segment-major: segment i holds
        # the next seg_sizes[i] of entries and vals and bounds its rows by
        # rhs[i]; on adversary a entry d reads column d * k + a, and entry
        # -1 the epigraph column nx.
        seg_len = seg_sizes * k
        seg = np.repeat(np.arange(len(seg_sizes)), seg_len)
        pos = np.arange(seg.size) - np.repeat(np.cumsum(seg_len) - seg_len, seg_len)
        a = pos // seg_sizes[seg]
        src = (np.cumsum(seg_sizes) - seg_sizes)[seg] + pos % seg_sizes[seg]
        d = entries[src]
        rows.append(2 * num_d + seg * k + a)
        cols.append(np.where(d < 0, nx, d * k + a))
        data.append(vals[src])
        b_ub.append(np.repeat(rhs, k))

    if family == "step":
        add_rows(sizes, members, np.ones(members.size), (sizes - 1).astype(np.float64))
    elif props:
        weights = np.fromiter(chain.from_iterable(p.weights for p in props), np.float64,
                              members.size)
        if instance.model.aggregation == "worst":
            ends = np.cumsum(sizes)
            entries = np.insert(members, ends, -1)  # y closes every property's row
            vals = np.insert(weights, ends, -1.0)
            add_rows(sizes + 1, entries, vals, np.zeros(len(props)))
        else:
            per_entry = np.zeros(num_d)
            np.add.at(per_entry, members, weights / len(props))
            held = np.nonzero(per_entry > 0)[0]
            add_rows(np.array([held.size + 1]), np.append(held, -1),
                     np.append(per_entry[held], -1.0), np.zeros(1))

    n_vars = nx + (1 if family == "linear" else 0)
    c = np.zeros(n_vars)
    c[:nx] = -(instance.utility_weights / instance._normalizer).ravel()
    if family == "linear":
        c[nx] = instance.lam
    b_ub = np.concatenate(b_ub)
    a_ub = sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(b_ub.size, n_vars), dtype=np.float64,
    )
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
    if family not in ("step", "linear"):
        raise InstanceError(f"LP relaxation supports step|linear, not {family!r}")
    z = instance._normalizer
    if z <= 0.0:
        raise InstanceError("degenerate instance: all utility weights are zero")

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
