"""Incremental objective evaluation engine.

The construction phase scores every candidate (entry, adversary) pair in
every iteration, so candidate gains must come from state deltas rather
than full re-evaluations. ``IncrementalEvaluator`` keeps the state every
disclosure family shares: the bits, per-entry counts, raw utility and
unassigned count, the (k, |P|) disclosure ``f_ap``, each adversary's
aggregate ``fprime`` and row sum ``f_row_sum``, and the overall ``f``.
Only average aggregation reads ``f_row_sum``, so only it keeps the sums
current (worst skips a per-flip sum); the array exists, and is logged,
under both. The family's own running state lives in one kernel, picked
once in ``__init__``:

* ``_SumsKernel`` (step, linear, quadratic) keeps ``s[a, p]``, the sum of
  the member weights adversary a holds on property p, and ``f_ap = g(s)``:
  ``s == size`` for step (whose members weigh 1.0), ``s`` for linear,
  ``s**2`` for quadratic.
* ``_CosineKernel`` keeps each adversary's squared user norms and the dot
  product of each property's user pair; ``f_ap`` is their cosine.

Both offer the same operations, each handed the evaluator whose shared
state it reads: ``flip`` one (d, a); ``add_rows``, the aggregates once d
joins each adversary; ``remove_row``, d's values on a once d leaves it;
``add_col``, a's aggregate once each entry joins it; and
``snapshot``/``restore`` of one adversary. The evaluator builds its
access paths on them:

* ``add_gain_row(d)``   -- gains for adding entry d to each adversary
* ``add_gain_matrix()`` -- gains for every eligible addition, from one
                           column per adversary, cached until a flip
                           touches that adversary
* ``neighborhood_gains(d)`` / ``neighborhood_gain_bounds()`` -- gains of
                           entry d's local-search neighbors, and for every
                           entry at once a float-exact upper bound on them

Worst or average aggregation is chosen only in ``_refresh_agg``,
``_row_aggregate`` and the add paths of the kernels.

``_flip(d, a, on, log)`` records in ``log`` what the flip is about to
change of adversary a alone: its kernel state and ``f_ap`` row on d's
properties, ``fprime[a]`` and ``f_row_sum[a]``, plus the shared scalars.
``_undo(log)`` writes the records back in reverse. Restoring snapshots
rather than undoing the arithmetic keeps the state bit-exact across
millions of branch-and-bound trials. A ``cross_check`` mode recomputes
everything from scratch after each applied move and asserts agreement to
1e-9; the test suite runs it on random move sequences.
"""

from __future__ import annotations

import numpy as np

from .disclosure import batch_disclosure
from .instance import Assignment, Instance, InstanceError, Move

_NEG_INF = -np.inf

# Per family of the sums kernel: whether every member weighs 1.0 (step
# counts members), the value g(inst, s, props) of sums s on properties
# props, and the closed forms of the average aggregate's row-sum change
# when an entry joins: for entry d and every adversary (s: (k, deg) on
# d's properties, w: d's weights), and for one adversary and every entry
# (s: that adversary's (|P|,) sums). Summing g differences instead would
# round differently and so change results.
_SUMS_FAMILIES = {
    "step": (
        True,
        lambda inst, s, props: (s == inst._sizes[props]).astype(np.float64),
        lambda inst, d, s, props, w: (s == inst._sizes[props] - 1.0).sum(axis=1),
        lambda inst, s: inst._entry_members @ (s == inst._sizes - 1.0).astype(np.float64),
    ),
    "linear": (
        False,
        lambda inst, s, props: s,
        lambda inst, d, s, props, w: inst._entry_colsum[d],
        lambda inst, s: inst._entry_colsum,
    ),
    "quadratic": (
        False,
        lambda inst, s, props: s**2,
        lambda inst, d, s, props, w: 2.0 * (s @ w) + inst._entry_sqsum[d],
        lambda inst, s: 2.0 * (inst._entry_weights @ s) + inst._entry_sqsum,
    ),
}


class IncrementalEvaluator:
    def __init__(self, instance: Instance, assignment: Assignment | None = None,
                 cross_check: bool = False):
        if not instance.validated:
            raise InstanceError("instance must be validated first")
        if instance._normalizer <= 0.0:
            raise InstanceError("degenerate instance: all utility weights are zero")
        self.inst = instance
        self.cross_check = cross_check
        self.k = instance.k
        self.num_p = instance.num_properties
        self.z = instance._normalizer
        self.worst = instance.model.aggregation == "worst"

        ew = instance._entry_weights  # |D| x |P| csr of a_dp
        self._indptr = ew.indptr
        self._pcols = ew.indices
        self._uz = instance.utility_weights / self.z

        family = instance.model.family
        self.kernel = (_CosineKernel(instance) if family == "cosine"
                       else _SumsKernel(instance, *_SUMS_FAMILIES[family]))

        # Lazy per-adversary candidate columns for the global construction
        # scan; a flip only invalidates the touched adversary's column.
        # The scan's other tables are built on first use too, so evaluators
        # that never scan (branch-and-bound, result checks) skip them.
        self._col_cache: np.ndarray | None = None
        self._col_dirty = np.ones(self.k, dtype=bool)

        self.reset(assignment)

    # -- state construction ---------------------------------------------
    def reset(self, assignment: Assignment | None = None) -> None:
        inst = self.inst
        self._col_dirty[:] = True
        if assignment is None:
            assignment = Assignment.empty(inst)
        self.bits = assignment.bits.copy()
        self.counts = assignment.per_entry_count.copy()
        self.util_raw = float((inst.utility_weights * self.bits).sum())
        self.c_unassigned = int(np.count_nonzero(self.counts == 0))

        state, f_ap = batch_disclosure(inst, self.bits[None])
        self.kernel.reset(state)
        self.f_ap = f_ap[0].copy()  # for linear, f_ap is state itself
        self.f_row_sum = self.f_ap.sum(axis=1)
        self.fprime = np.zeros(self.k)
        for a in range(self.k if self.num_p else 0):
            self._refresh_agg(a, 0.0, may_decrease=True)
        self.f = max(self.fprime.tolist())

    # -- objective views --------------------------------------------------
    @property
    def objective(self) -> float:
        return (
            self.util_raw / self.z
            + self.inst.lam * (self.inst.tau - self.f)
            - self.c_unassigned
        )

    def assignment(self) -> Assignment:
        return Assignment(self.bits.copy())

    # -- mutation with snapshot-restore ------------------------------------
    def _props(self, d: int) -> np.ndarray:
        return self._pcols[self._indptr[d]:self._indptr[d + 1]]

    def _flip(self, d: int, a: int, on: bool, log: list | None) -> None:
        if bool(self.bits[d, a]) == on:
            raise InstanceError(f"bit ({d}, {a}) {'already' if on else 'not'} set")
        if log is not None:
            props = self._props(d)
            log.append((
                d, a, on, self.counts[d], self.util_raw, self.c_unassigned, self.f,
                self.fprime[a], self.f_row_sum[a], props, self.f_ap[a][props],
                self.kernel.snapshot(d, a, props),
            ))
        w = self.inst.utility_weights[d, a]
        step = 1 if on else -1
        self._col_dirty[a] = True
        self.bits[d, a] = on
        self.counts[d] += step
        if self.counts[d] == (1 if on else 0):
            self.c_unassigned -= step
        self.util_raw += w if on else -w
        self.kernel.flip(self, d, a, on)

    def _undo(self, log: list) -> None:
        for (d, a, on, count, util, c_un, f, fp, frs, props, old_f, snap) in reversed(log):
            self.bits[d, a] = not on
            self.counts[d] = count
            self.util_raw, self.c_unassigned, self.f = util, c_un, f
            self.fprime[a], self.f_row_sum[a] = fp, frs
            self.f_ap[a][props] = old_f
            self.kernel.restore(a, props, snap)
            self._col_dirty[a] = True

    def _set_row(self, a: int, props: np.ndarray, new_f: np.ndarray,
                 may_decrease: bool) -> None:
        """Write a's new values on props and refresh its aggregates. The
        worst aggregate rescans the row; only average needs the delta."""
        f_row = self.f_ap[a]
        delta_sum = 0.0 if self.worst else float((new_f - f_row[props]).sum())
        f_row[props] = new_f
        self._refresh_agg(a, delta_sum, may_decrease)

    def _refresh_agg(self, a: int, delta_sum: float, may_decrease: bool) -> None:
        if self.worst:
            row_max = float(self.f_ap[a].max())
            self.fprime[a] = row_max if may_decrease else max(self.fprime[a], row_max)
        else:
            self.f_row_sum[a] += delta_sum
            self.fprime[a] = self.f_row_sum[a] / self.num_p
        self.f = max(self.fprime.tolist())

    def apply(self, move: Move) -> None:
        # A swap is a removal followed by an addition.
        if move.kind != "add":
            self._flip(move.entry, move.from_adversary, False, None)
        if move.kind != "remove":
            self._flip(move.entry, move.to_adversary, True, None)
        if self.cross_check:
            self._assert_consistent()

    def _assert_consistent(self) -> None:
        fresh = IncrementalEvaluator(self.inst, self.assignment())
        if abs(fresh.objective - self.objective) > 1e-9:
            raise AssertionError(
                f"incremental objective {self.objective!r} drifted from "
                f"scratch value {fresh.objective!r}"
            )
        if self.num_p and np.abs(fresh.f_ap - self.f_ap).max() > 1e-9:
            raise AssertionError("incremental disclosure state drifted")

    # -- vectorized candidate gains -----------------------------------------
    def _other_max(self) -> np.ndarray:
        """For each adversary, the max aggregate among the others. Plain
        floats: over k values this is cheaper than a numpy sort."""
        fp = self.fprime.tolist()
        m2, m1 = sorted(fp)[-2:]
        return np.array([m2 if v == m1 else m1 for v in fp])

    def add_gain_row(self, d: int) -> np.ndarray:
        """Gains for Move('add', d, to=a) for every adversary a; already
        set bits come back as -inf. Callers check the per-entry cap."""
        inst = self.inst
        new_f = np.maximum(self._other_max(), self.kernel.add_rows(self, d))
        bonus = 1.0 if self.counts[d] == 0 else 0.0
        gains = self._uz[d] + inst.lam * (self.f - new_f) + bonus
        gains[self.bits[d]] = _NEG_INF
        return gains

    def _new_fprime_remove_row(self, d: int, asg: np.ndarray) -> dict[int, float]:
        """fprime[a] after removing entry d from adversary a, for each
        currently assigned a."""
        props = self._props(d)
        if props.size == 0:
            return {int(a): float(self.fprime[a]) for a in asg}
        return {a: self._row_aggregate(a, props, self.kernel.remove_row(self, d, a))
                for a in asg.tolist()}

    def _row_aggregate(self, a: int, props: np.ndarray, new_vals: np.ndarray) -> float:
        if not self.worst:
            delta = float((new_vals - self.f_ap[a, props]).sum())
            return (self.f_row_sum[a] + delta) / self.num_p
        row = self.f_ap[a].copy()
        row[props] = new_vals
        return float(row.max())

    def _max_excluding(self):
        """A function of a tuple of at most two adversaries: the largest
        fprime among the others, -inf if none is left. Reads the top 3."""
        order = np.argsort(-self.fprime, kind="stable")[: min(3, self.k)]
        top = [(int(i), float(self.fprime[i])) for i in order]

        def max_excluding(excl: tuple) -> float:
            for idx, val in top:
                if idx not in excl:
                    return val
            return -np.inf

        return max_excluding

    def neighborhood_gain_bounds(self) -> np.ndarray:
        """(|D|,) upper bounds on each entry's best ``neighborhood_gains``
        value; -inf for an entry with no neighbor.

        Each move's gain is written with the operations of
        ``neighborhood_gains`` in the same order, with its f_new replaced
        by a lower bound that leaves out the moved entry's own disclosure
        change: ``max_excluding`` of the adversaries it touches, and for
        an addition to b also fprime[b] where adding an entry cannot lower
        fprime[b] in floating point (running sums are clamped at 0, so
        2 s.a + a.a >= 0 for average quadratic). Rounding is monotone, so
        each bound is at least the float gain it stands for. A kernel that
        is not monotone gets no such floor."""
        inst, k = self.inst, self.k
        max_excluding = self._max_excluding()
        floor = [float(v) for v in self.fprime] if self.kernel.monotone else [-np.inf] * k
        lam, f_cur = inst.lam, self.f

        def term(low: float) -> float:
            # lam * (f_cur - f_new) for any f_new >= low; lam may be 0.
            return np.inf if low == -np.inf else lam * (f_cur - low)

        add_term = np.array([term(max(max_excluding((b,)), floor[b])) for b in range(k)])
        rem_term = np.array([term(max_excluding((a,))) for a in range(k)])
        uz, w, bits, counts = self._uz, inst.utility_weights, self.bits, self.counts

        bonus = (counts == 0).astype(np.float64)[:, None]
        can_add = ~bits & (counts < inst.t)[:, None]
        best = np.where(can_add, uz + add_term + bonus, _NEG_INF).max(axis=1)
        penalty = (counts == 1).astype(np.float64)[:, None]
        np.maximum(best, np.where(bits, -uz + rem_term - penalty, _NEG_INF).max(axis=1),
                   out=best)
        for a in range(k):
            rows = np.flatnonzero(bits[:, a])
            if rows.size == 0:
                continue
            swap_term = np.array([term(max(max_excluding((a, b)), floor[b])) for b in range(k)])
            swap = (w[rows] - w[rows, a][:, None]) / self.z + swap_term
            swap[bits[rows]] = _NEG_INF  # only to a free adversary (b == a included)
            best[rows] = np.maximum(best[rows], swap.max(axis=1))
        return best

    def neighborhood_gains(self, d: int) -> list[tuple[Move, float]]:
        """Gains for every single-entry neighbor of the current state:
        additions (if below the cap), then per assigned adversary its
        removal and swaps. Composes per-adversary row updates, which is
        exact because a move touches each adversary's state independently."""
        inst = self.inst
        w = inst.utility_weights[d]
        count = int(self.counts[d])
        asg = np.nonzero(self.bits[d])[0]
        free = [int(b) for b in range(self.k) if not self.bits[d, b]]
        add_newfp = self.kernel.add_rows(self, d) if free else None
        rem_newfp = self._new_fprime_remove_row(d, asg)
        max_excluding = self._max_excluding()

        lam = inst.lam
        f_cur = self.f
        out: list[tuple[Move, float]] = []
        if count < inst.t:
            for b in free:
                f_new = max(max_excluding((b,)), float(add_newfp[b]))
                gain = w[b] / self.z + lam * (f_cur - f_new) + (1.0 if count == 0 else 0.0)
                out.append((Move("add", d, to_adversary=b), gain))
        for a in asg:
            a = int(a)
            f_after_rem = rem_newfp[a]
            f_new = max(max_excluding((a,)), f_after_rem)
            gain = -w[a] / self.z + lam * (f_cur - f_new) - (1.0 if count == 1 else 0.0)
            out.append((Move("remove", d, from_adversary=a), gain))
            for b in free:
                f_new = max(max_excluding((a, b)), f_after_rem, float(add_newfp[b]))
                gain = (w[b] - w[a]) / self.z + lam * (f_cur - f_new)
                out.append((Move("swap", d, from_adversary=a, to_adversary=b), gain))
        return out

    def add_gain_matrix(self) -> np.ndarray:
        """(|D|, k) matrix of addition gains; ineligible cells are -inf.
        Eligible means: bit unset and entry below the per-entry cap."""
        inst = self.inst
        if self._col_cache is None:
            self._col_cache = np.empty((inst.num_entries, self.k))
            self._col_dirty[:] = True
        for a in np.nonzero(self._col_dirty)[0]:
            # Without properties no addition moves an aggregate.
            col = self.kernel.add_col(self, int(a)) if self.num_p else self.fprime[a]
            self._col_cache[:, a] = col
            self._col_dirty[a] = False
        # Same operation order as add_gain_row, in one buffer:
        # uz + lam * (f - max(newfp, other_max)) + bonus.
        gains = np.maximum(self._col_cache, self._other_max()[None, :])
        np.subtract(self.f, gains, out=gains)
        np.multiply(inst.lam, gains, out=gains)
        np.add(self._uz, gains, out=gains)
        gains += (self.counts == 0).astype(np.float64)[:, None]
        np.copyto(gains, _NEG_INF, where=self.bits | (self.counts >= inst.t)[:, None])
        return gains


class _SumsKernel:
    """Step, linear and quadratic: ``s[a, p]``, the sum of the member
    weights adversary a holds on property p, and ``f_ap = g(s)``. Adding
    a member never lowers a sum or its value, so the family is monotone.

    Operations that read or write the state every family shares take the
    evaluator as their first argument; the kernel keeps no reference to
    it, so an evaluator is freed as soon as its last user drops it."""

    monotone = True

    def __init__(self, inst: Instance, unit_weights: bool, g, average_row, average_col):
        self.inst = inst
        ew = inst._entry_weights
        self.indptr, self.pcols = ew.indptr, ew.indices
        self.w = np.ones(ew.indices.size) if unit_weights else ew.data
        self.g, self._average_row, self._average_col = g, average_row, average_col
        self._seg: tuple | None = None  # worst segmented-max tables, built on first use

    def reset(self, state) -> None:
        self.s = state[0]

    def _props_w(self, d: int):
        i0, i1 = self.indptr[d], self.indptr[d + 1]
        return self.pcols[i0:i1], self.w[i0:i1]

    def flip(self, ev: IncrementalEvaluator, d: int, a: int, on: bool) -> None:
        props, w = self._props_w(d)
        if props.size == 0:
            return
        # A row view: indexing a 1-d row is cheaper than s[a, props].
        s_row = self.s[a]
        old_s = s_row[props]
        # a_dp >= 0, so a sum that rounds below 0 on removal is 0. A step
        # count is exact and never clamps.
        new_s = old_s + w if on else np.maximum(old_s - w, 0.0)
        s_row[props] = new_s
        ev._set_row(a, props, self.g(self.inst, new_s, props), may_decrease=not on)

    def add_rows(self, ev: IncrementalEvaluator, d: int) -> np.ndarray:
        props, w = self._props_w(d)
        if props.size == 0:
            return ev.fprime.copy()
        s = self.s[:, props]
        if ev.worst:
            return np.maximum(ev.fprime, self.g(self.inst, s + w, props).max(axis=1))
        return ev.fprime + self._average_row(self.inst, d, s, props, w) / ev.num_p

    def remove_row(self, ev: IncrementalEvaluator, d: int, a: int) -> np.ndarray:
        props, w = self._props_w(d)
        return self.g(self.inst, np.maximum(self.s[a, props] - w, 0.0), props)

    def add_col(self, ev: IncrementalEvaluator, a: int) -> np.ndarray:
        inst, s_row = self.inst, self.s[a]
        if not ev.worst:
            return ev.fprime[a] + self._average_col(inst, s_row) / ev.num_p
        # Segmented max over each entry's incident properties. Entries in
        # no property keep fprime[a]; reduceat runs over the non-empty
        # segments only.
        if self._seg is None:
            nonempty = np.flatnonzero(np.diff(self.indptr))
            self._seg = (nonempty, self.indptr[nonempty], np.empty(self.pcols.size))
        rows, starts, vals = self._seg
        np.take(s_row, self.pcols, out=vals)
        vals += self.w
        out = np.full(inst.num_entries, ev.fprime[a])
        seg_max = np.maximum.reduceat(self.g(inst, vals, self.pcols), starts)
        out[rows] = np.maximum(ev.fprime[a], seg_max)
        return out

    def snapshot(self, d: int, a: int, props: np.ndarray) -> np.ndarray:
        return self.s[a][props]

    def restore(self, a: int, props: np.ndarray, old_s: np.ndarray) -> None:
        self.s[a][props] = old_s


class _CosineKernel:
    """Cosine: ``norms[a, u]``, the squared norm of the check-in counts of
    user u that adversary a holds, and ``dots[a, p]``, the dot product of
    property p's two users over a's entries; ``f_ap`` is their cosine.
    Operations take the evaluator as ``_SumsKernel``'s do.

    ``add_rows`` keeps the rows it computed for every adversary (the new
    norm of d's user, the new dots and cosine values over d's
    properties), tagged with d. The next flip that adds d writes its
    adversary's row of them instead of recomputing it, so a myopic
    construction step does the cosine add arithmetic once. Any flip drops
    the kept rows; an add without them runs the same computation on its
    one row. Adding an inactive pair's 0.0 leaves a dot unchanged, so the
    state is bitwise the one a fresh evaluator reaches by replaying the
    moves."""

    # Not monotone: an added entry inflates its user's norm without
    # necessarily adding overlap, so a component can fall.
    monotone = False

    def __init__(self, inst: Instance):
        self.cache = cache = _cosine_entry_tables(inst)
        self.partner = cache["entry_partner"]
        self.e_user = cache["user_idx"]
        self.e_sq = cache["sq_counts"]

    def reset(self, state) -> None:
        self.norms, self.dots = state[0][0], state[1][0]
        self.kept = None

    def flip(self, ev: IncrementalEvaluator, d: int, a: int, on: bool) -> None:
        cache = self.cache
        kept, self.kept = self.kept, None
        u = int(self.e_user[d])
        props = ev._props(d)
        if on:
            # The row add_rows kept for d, else the same computation on row a.
            if kept is not None and kept[0] == d:
                norm_u, dots_new, new_f = kept[1][a], kept[2][a], kept[3][a]
            else:
                norm_u, dots_new, new_f = self.add_values(ev, d, props, a)
            self.norms[a, u] = norm_u
            if props.size == 0:
                return
            self.dots[a][props] = dots_new
        else:
            self.norms[a, u] -= self.e_sq[d]
            pprops = cache["entry_pair_props"][d]
            if pprops.size:
                mask = ev.bits[cache["entry_pair_others"][d], a]
                if mask.any():
                    np.subtract.at(self.dots[a], pprops[mask], cache["entry_pair_prods"][d][mask])
            if props.size == 0:
                return
            new_f = self._values(self.norms[a], self.dots[a, props], d, float(self.norms[a, u]))
        ev._set_row(a, props, new_f, may_decrease=True)

    def add_values(self, ev: IncrementalEvaluator, d: int, props: np.ndarray, rows):
        """For adding entry d to adversary ``rows`` (an int), or to every
        adversary (``slice(None)``): the new squared norm of d's user, the
        new dots and the new cosine values over d's properties, shapes
        (), (deg,), (deg,) or (k,), (k, deg), (k, deg).

        Each of d's properties holds at most one pair with d, so every dot
        gets one addition; an inactive pair adds 0.0, which leaves it as a
        flip that skips the pair would."""
        cache = self.cache
        new_norm_u = self.norms[rows, self.e_user[d]] + self.e_sq[d]
        # take() on the last axis serves one row and k rows alike, and is
        # cheaper than fancy indexing on arrays this small.
        dots_new = self.dots[rows].take(props, axis=-1)
        others = cache["entry_pair_others"][d]
        if others.size:
            active = ev.bits[:, rows].take(others, axis=0).T * cache["entry_pair_prods"][d]
            np.add.at(dots_new.T, cache["entry_pair_cols"][d], active.T)
        new_f = self._values(self.norms[rows], dots_new, d, new_norm_u[..., None])
        return new_norm_u, dots_new, new_f

    def _values(self, norms, dots_vals, d, norm_u):
        """Cosine of d's properties from the dots and the norms of one
        adversary (1-d) or of a block of adversaries (2-d)."""
        denom = norm_u * norms.take(self.partner[d], axis=-1)
        # Norms are sums of squared counts, so denom >= 0; where it is 0
        # the user pair shares nothing and the value is 0.
        return np.divide(dots_vals, np.sqrt(denom), out=np.zeros(dots_vals.shape),
                         where=denom > 0.0)

    def add_rows(self, ev: IncrementalEvaluator, d: int) -> np.ndarray:
        props = ev._props(d)
        kept = self.add_values(ev, d, props, slice(None))
        self.kept = (d,) + kept  # committed by the next add of d, if no flip comes first
        if props.size == 0:
            return ev.fprime.copy()
        new_f = kept[2]
        old_f = ev.f_ap.take(props, axis=1)
        if not ev.worst:
            return ev.fprime + (new_f - old_f).sum(axis=1) / ev.num_p
        out = np.maximum(ev.fprime, new_f.max(axis=1))
        # A component that drops may have owned the row max; rescan those rows.
        for a in np.nonzero((new_f < old_f).any(axis=1))[0]:
            out[a] = ev._row_aggregate(a, props, new_f[a])
        return out

    def remove_row(self, ev: IncrementalEvaluator, d: int, a: int) -> np.ndarray:
        cache = self.cache
        props = ev._props(d)
        dots_new = self.dots[a, props]
        others = cache["entry_pair_others"][d]
        if others.size:
            mask = ev.bits[others, a]
            np.subtract.at(dots_new, cache["entry_pair_cols"][d][mask],
                           cache["entry_pair_prods"][d][mask])
        norm_u = float(self.norms[a, self.e_user[d]]) - float(self.e_sq[d])
        return self._values(self.norms[a], dots_new, d, norm_u)

    def add_col(self, ev: IncrementalEvaluator, a: int) -> np.ndarray:
        """No column closed form: a's entry of each entry's add rows."""
        return np.array([self.add_rows(ev, d)[a] for d in range(ev.inst.num_entries)])

    def snapshot(self, d: int, a: int, props: np.ndarray):
        u = int(self.e_user[d])
        pprops = self.cache["entry_pair_props"][d]
        return u, float(self.norms[a, u]), pprops, self.dots[a, pprops]

    def restore(self, a: int, props: np.ndarray, snap) -> None:
        u, norm_u, pprops, old_dots = snap
        self.norms[a, u] = norm_u
        if pprops.size:
            self.dots[a, pprops] = old_dots


def _cosine_entry_tables(inst: Instance) -> dict:
    """The instance's cosine cache with per-entry pair tables added on
    first use: for each entry, the other entry, count product, property
    and position among the entry's properties of each pair it is in, and
    the other user of each of its properties."""
    cache = inst._cosine
    if "entry_pair_others" in cache:
        return cache
    num_e = inst.num_entries
    by_entry: list[list[tuple[int, float, int]]] = [[] for _ in range(num_e)]
    for row in range(cache["pair_prop"].size):
        p = int(cache["pair_prop"][row])
        e1 = int(cache["pair_e1"][row])
        e2 = int(cache["pair_e2"][row])
        prod = float(cache["pair_prod"][row])
        by_entry[e1].append((e2, prod, p))
        by_entry[e2].append((e1, prod, p))
    others, prods, props, cols = [], [], [], []
    indptr = inst._entry_weights.indptr
    pcols = inst._entry_weights.indices
    for d in range(num_e):
        others.append(np.array([o for (o, _, _) in by_entry[d]], dtype=np.int64))
        prods.append(np.array([w for (_, w, _) in by_entry[d]]))
        pp = np.array([p for (_, _, p) in by_entry[d]], dtype=np.int64)
        props.append(pp)
        own = pcols[indptr[d]:indptr[d + 1]]
        lookup = {int(q): i for i, q in enumerate(own)}
        cols.append(np.array([lookup[int(q)] for q in pp], dtype=np.int64))
    cache["entry_pair_others"] = others
    cache["entry_pair_prods"] = prods
    cache["entry_pair_props"] = props
    cache["entry_pair_cols"] = cols
    # Per entry, aligned with its properties: the other user of each
    # property's pair.
    prop_u = cache["prop_users"]
    ui, uj = prop_u[pcols, 0], prop_u[pcols, 1]
    own_u = np.repeat(cache["user_idx"], np.diff(indptr))
    cache["entry_partner"] = np.split(np.where(ui == own_u, uj, ui), indptr[1:-1])
    return cache
