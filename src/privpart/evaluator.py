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
access paths on them. Each scores a move with one expression, ``_gain``,
from the move's utility change, its orphan term and f_new, the new
overall disclosure: the max of the ``_excluded_max`` table's entry for
the adversaries the move touches (the largest fprime outside them) and
their new aggregates.

* ``add_gain_row(d)``   -- gains for adding entry d to each adversary
* ``add_gain_matrix()`` -- gains for every eligible addition, from one
                           column per adversary (``_columns``), cached
                           until a flip touches that adversary
* ``neighborhood_gains(d)`` -- gains of entry d's local-search neighbors,
                           on Python floats
* ``neighborhood_gain_bounds()`` -- for every entry at once, the same
                           expression at lower bounds on f_new, hence an
                           upper bound on its neighbors' gains; it reads
                           the cached columns where the kernel's
                           ``col_floor`` says they are bitwise
                           ``add_rows``' values

Worst or average aggregation is chosen only in ``_refresh_agg``,
``_row_aggregate`` and the add paths of the kernels.

``_flip(d, a, on, log)`` records in ``log`` what the flip is about to
change of adversary a alone: its kernel state and ``f_ap`` row on d's
properties, ``fprime[a]`` and ``f_row_sum[a]``, plus the shared scalars.
``_undo(log)`` writes the records back in reverse. Restoring snapshots
rather than undoing the arithmetic keeps the state bit-exact across
millions of branch-and-bound trials.
"""

from __future__ import annotations

import numpy as np

from .disclosure import batch_disclosure
from .instance import Assignment, Instance, InstanceError, Move

_NEG_INF = -np.inf

# Per family of the sums kernel: the value g(inst, s, props) of sums s
# on properties props, and the closed forms of the average aggregate's
# row-sum change when an entry joins: for entry d and every adversary
# (s: (k, deg) on d's properties, w: d's weights), and for one adversary
# and every entry (s: that adversary's (|P|,) sums). Summing g
# differences instead would round differently and so change results.
# The last field says whether the two closed forms run the same
# operations in the same order, so that a column entry is bitwise the
# row's value: step's counts and linear's shared ``_entry_colsum`` are,
# quadratic's ``s @ w`` and sparse matvec sum in different orders.
_SUMS_FAMILIES = {
    "step": (
        lambda inst, s, props: (s == inst._sizes[props]).astype(np.float64),
        lambda inst, d, s, props, w: (s == inst._sizes[props] - 1.0).sum(axis=1),
        lambda inst, s: inst._entry_weights @ (s == inst._sizes - 1.0).astype(np.float64),
        True,
    ),
    "linear": (
        lambda inst, s, props: s,
        lambda inst, d, s, props, w: inst._entry_colsum[d],
        lambda inst, s: inst._entry_colsum,
        True,
    ),
    "quadratic": (
        lambda inst, s, props: s**2,
        lambda inst, d, s, props, w: 2.0 * (s @ w) + inst._entry_sqsum[d],
        lambda inst, s: 2.0 * (inst._entry_weights @ s) + inst._entry_sqsum,
        False,
    ),
}


class IncrementalEvaluator:
    def __init__(self, instance: Instance, assignment: Assignment | None = None):
        if not instance.validated:
            raise InstanceError("instance must be validated first")
        if instance._normalizer <= 0.0:
            raise InstanceError("degenerate instance: all utility weights are zero")
        self.inst = instance
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
            self._refresh_agg(a, 0.0)
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

    def _set_row(self, a: int, props: np.ndarray, new_f: np.ndarray) -> None:
        """Write a's new values on props and refresh its aggregates. The
        worst aggregate rescans the row; only average needs the delta."""
        f_row = self.f_ap[a]
        delta_sum = 0.0 if self.worst else float((new_f - f_row[props]).sum())
        f_row[props] = new_f
        self._refresh_agg(a, delta_sum)

    def _refresh_agg(self, a: int, delta_sum: float) -> None:
        if self.worst:
            self.fprime[a] = float(self.f_ap[a].max())
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

    # -- move gains ---------------------------------------------------------
    def _gain(self, u, low, bonus):
        """The gain ``u + lam * (f - low) + bonus`` of a move with utility
        change u and orphan term bonus that leaves the overall disclosure
        at ``low``, on Python floats or on numpy arrays; an array ``low``
        has the shape of the result. Every gain of this class is this
        expression. Rounding is monotone, so at a lower bound on the new
        disclosure it is an upper bound on the move's gain. A low of -inf
        bounds nothing and gives +inf, also for lam = 0 (not 0 * inf).
        Arrays get one new buffer; the rest of the expression runs in it."""
        lam = self.inst.lam
        if lam == 0.0:
            gain = np.where(low == _NEG_INF, np.inf, 0.0)[()]
        else:
            gain = self.f - low
            gain *= lam
        gain += u
        gain += bonus
        return gain

    def _excluded_max(self) -> tuple[np.ndarray, list[list[float]]]:
        """The (k, k) excluded-max table: ``excl[a][b]`` is the largest
        fprime outside {a, b}, -inf where none is left. Returns its
        diagonal (the largest fprime outside each adversary) as an array
        and the table as lists of floats, which k values build faster
        than numpy. Each row of an adversary outside the top two is the
        diagonal list, shared: read only."""
        fp, k = self.fprime.tolist(), self.k
        top = sorted(fp)
        v0, v1, v2 = top[-1], top[-2], top[-3] if k > 2 else _NEG_INF
        i0 = fp.index(v0)
        i1 = fp.index(v1, i0 + 1) if v1 == v0 else fp.index(v1)  # a tie: v0's next index
        diag = [v0] * k
        diag[i0] = v1
        excl = [diag] * k
        excl[i0], excl[i1] = [v1] * k, diag.copy()
        excl[i0][i1] = excl[i1][i0] = v2
        return np.array(diag), excl

    def add_gain_row(self, d: int) -> np.ndarray:
        """Gains for Move('add', d, to=a) for every adversary a; already
        set bits come back as -inf. Callers check the per-entry cap."""
        low = np.maximum(self._excluded_max()[0], self.kernel.add_rows(self, d))
        gains = self._gain(self._uz[d], low, 1.0 if self.counts[d] == 0 else 0.0)
        gains[self.bits[d]] = _NEG_INF
        return gains

    def add_gain_matrix(self) -> np.ndarray:
        """(|D|, k) matrix of addition gains; ineligible cells are -inf.
        Eligible means: bit unset and entry below the per-entry cap."""
        low = np.maximum(self._columns(), self._excluded_max()[0])
        gains = self._gain(self._uz, low, (self.counts == 0).astype(np.float64)[:, None])
        np.copyto(gains, _NEG_INF, where=self.bits | (self.counts >= self.inst.t)[:, None])
        return gains

    def _row_aggregate(self, a: int, props: np.ndarray, new_vals: np.ndarray) -> float:
        if not self.worst:
            delta = float((new_vals - self.f_ap[a, props]).sum())
            return (self.f_row_sum[a] + delta) / self.num_p
        row = self.f_ap[a].copy()
        row[props] = new_vals
        return float(row.max())

    def neighborhood_gains(self, d: int) -> list[tuple[Move, float]]:
        """Gains for every single-entry neighbor of the current state:
        additions (if below the cap), then per assigned adversary its
        removal and swaps. Composes per-adversary row updates, which is
        exact because a move touches each adversary's state independently.
        Runs on Python floats: one entry's moves are too few for numpy."""
        inst, gain = self.inst, self._gain
        uz, w = self._uz[d].tolist(), inst.utility_weights[d].tolist()
        count = int(self.counts[d])
        held = self.bits[d].tolist()
        free = [b for b in range(self.k) if not held[b]]
        add_f = self.kernel.add_rows(self, d).tolist() if free else None
        excl = self._excluded_max()[1]
        props = self._props(d)
        out: list[tuple[Move, float]] = []
        if count < inst.t:
            bonus = 1.0 if count == 0 else 0.0
            for b in free:
                out.append((Move("add", d, to_adversary=b),
                            gain(uz[b], max(excl[b][b], add_f[b]), bonus)))
        for a in range(self.k):
            if not held[a]:
                continue
            rem_f = (self._row_aggregate(a, props, self.kernel.remove_row(self, d, a))
                     if props.size else float(self.fprime[a]))
            out.append((Move("remove", d, from_adversary=a),
                        gain(-uz[a], max(excl[a][a], rem_f), -1.0 if count == 1 else 0.0)))
            for b in free:
                out.append((Move("swap", d, from_adversary=a, to_adversary=b),
                            gain((w[b] - w[a]) / self.z, max(excl[a][b], rem_f, add_f[b]), 0.0)))
        return out

    def neighborhood_gain_bounds(self) -> np.ndarray:
        """(|D|,) upper bounds on each entry's best ``neighborhood_gains``
        value; -inf for an entry with no neighbor.

        Each bound is the gain expression (``_gain``) of the entry's
        moves at lower bounds on their new disclosure: the excluded max
        of the adversaries a move touches, and for an addition or a swap
        to b also a floor on b's new aggregate. Where the kernel's
        ``col_floor`` is set, the floor is the entry's own ``add_col``
        entry, bitwise the ``add_rows`` value the move would read, so an
        addition's bound is its gain. Otherwise a monotone kernel's floor
        is fprime[b] (running sums are clamped at 0, so 2 s.a + a.a >= 0
        for average quadratic), and any other kernel gets none. The
        removed entry's own change is left out of a swap's bound."""
        inst, bits, counts = self.inst, self.bits, self.counts
        diag, excl = self._excluded_max()
        if self.kernel.col_floor:
            floor = self._columns()
        else:
            floor = np.broadcast_to(self.fprime if self.kernel.monotone else _NEG_INF, bits.shape)
        add = self._gain(self._uz, np.maximum(diag, floor),
                         (counts == 0).astype(np.float64)[:, None])
        best = np.where(~bits & (counts < inst.t)[:, None], add, _NEG_INF).max(axis=1)
        rem = self._gain(-self._uz, np.broadcast_to(diag, bits.shape),
                         -(counts == 1).astype(np.float64)[:, None])
        np.maximum(best, np.where(bits, rem, _NEG_INF).max(axis=1), out=best)
        w = inst.utility_weights
        for a in range(self.k):
            rows = np.flatnonzero(bits[:, a])
            if rows.size == 0:
                continue
            swap = self._gain((w[rows] - w[rows, a][:, None]) / self.z,
                              np.maximum(excl[a], floor[rows]), 0.0)
            swap[bits[rows]] = _NEG_INF  # only to a free adversary (b == a included)
            best[rows] = np.maximum(best[rows], swap.max(axis=1))
        return best

    def _columns(self) -> np.ndarray:
        """(|D|, k) table of ``add_col`` for every adversary: its
        aggregate once each entry joins it. Only the columns a flip has
        touched since the last call are recomputed."""
        if self._col_cache is None:
            self._col_cache = np.empty((self.inst.num_entries, self.k))
            self._col_dirty[:] = True
        for a in np.flatnonzero(self._col_dirty).tolist():
            # Without properties no addition moves an aggregate.
            self._col_cache[:, a] = self.kernel.add_col(self, a) if self.num_p else self.fprime[a]
            self._col_dirty[a] = False
        return self._col_cache


class _SumsKernel:
    """Step, linear and quadratic: ``s[a, p]``, the sum of the member
    weights adversary a holds on property p, and ``f_ap = g(s)``. Adding
    a member never lowers a sum or its value, so the family is monotone.

    Operations that read or write the state every family shares take the
    evaluator as their first argument; the kernel keeps no reference to
    it, so an evaluator is freed as soon as its last user drops it."""

    monotone = True

    def __init__(self, inst: Instance, g, average_row, average_col, average_exact: bool):
        self.inst = inst
        ew = inst._entry_weights
        self.indptr, self.pcols, self.w = ew.indptr, ew.indices, ew.data
        self.g, self._average_row, self._average_col = g, average_row, average_col
        # Whether add_col's entries are bitwise add_rows' values: always
        # under worst (a max is exact in any order), under average where
        # the family's two closed forms match operation for operation.
        self.col_floor = inst.model.aggregation == "worst" or average_exact
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
        ev._set_row(a, props, self.g(self.inst, new_s, props))

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
    # necessarily adding overlap, so a component can fall. The gain bound
    # reads no column: each costs |D| add_rows calls.
    monotone = False
    col_floor = False

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
        ev._set_row(a, props, new_f)

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
