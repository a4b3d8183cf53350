"""Incremental objective evaluation engine.

The construction phase scores every candidate (entry, adversary) pair in
every iteration, so candidate gains must come from state deltas rather
than full re-evaluations. This module keeps, per adversary, the running
per-property disclosure state (member counts, weighted sums, or cosine
dot products and norms) together with the per-adversary aggregate, and
offers these access paths:

* ``add_gain_row(d)``   -- gains for adding entry d to each adversary,
                           vectorized across adversaries
* ``add_gain_matrix()`` -- gains for every eligible addition, vectorized
                           across entries per adversary
* ``neighborhood_gains(d)`` / ``neighborhood_gain_bounds()`` -- gains of
                           entry d's local-search neighbors, and for every
                           entry at once a float-exact upper bound on them

For cosine, ``add_gain_row(d)`` keeps the rows it computed for every
adversary (the new norm of d's user, the new dots and cosine values over
d's properties), tagged with d. A following ``apply(Move("add", d, a))``
writes row a of them into the state instead of recomputing it, so a
myopic construction step does the cosine add arithmetic once. Any flip
(an applied move, a branch-and-bound trial), ``_undo`` and ``reset``
drop the kept rows; an add without them runs the same kernel on its one
row. Adding an inactive pair's 0.0 leaves a dot unchanged, so the state
is bitwise the one a fresh evaluator reaches by replaying the moves.

Snapshot-restore (rather than arithmetic undo) keeps the state bit-exact
across millions of trial evaluations. A ``cross_check`` mode recomputes
everything from scratch after each applied move and asserts agreement to
1e-9; the test suite runs it on random move sequences.

Note on cosine: unlike the other three families, cosine components can
*decrease* when an entry is added (the added mass inflates one vector's
norm without necessarily adding overlap), so worst-aggregation updates
always rescan the affected adversary's row.
"""

from __future__ import annotations

import numpy as np

from .disclosure import batch_disclosure
from .instance import Assignment, Instance, InstanceError, Move
from .objective import ObjectiveValue

_NEG_INF = -np.inf


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
        self.family = instance.model.family
        self.worst = instance.model.aggregation == "worst"

        ew = instance._entry_weights  # |D| x |P| csr of a_dp
        self._indptr = ew.indptr
        self._pcols = ew.indices
        self._pw = ew.data
        self._colsum = instance._entry_colsum
        self._sqsum = instance._entry_sqsum

        if self.family == "cosine":
            self._init_cosine_tables()

        self._uz = instance.utility_weights / self.z
        # Lazy per-adversary candidate columns for the global construction
        # scan; a flip only invalidates the touched adversary's column.
        # The scan's other tables are built on first use too, so evaluators
        # that never scan (branch-and-bound, result checks) skip them.
        self._col_cache: np.ndarray | None = None
        self._col_dirty = np.ones(self.k, dtype=bool)
        self._seg: tuple | None = None  # worst linear/quadratic segmented max

        self.reset(assignment)

    # -- state construction ---------------------------------------------
    def reset(self, assignment: Assignment | None = None) -> None:
        inst = self.inst
        self._col_dirty[:] = True
        self._kept = None
        if assignment is None:
            assignment = Assignment.empty(inst)
        self.bits = assignment.bits.copy()
        self.counts = assignment.per_entry_count.copy()
        self.util_raw = float((inst.utility_weights * self.bits).sum())
        self.c_unassigned = int(np.count_nonzero(self.counts == 0))

        state, f_ap = batch_disclosure(inst, self.bits[None])
        if self.family == "cosine":
            self.norms, self.dots = state[0][0], state[1][0]
        else:
            self.sums = state[0]
        self.f_ap = f_ap[0].copy()  # for linear, f_ap is state itself

        if self.worst:
            self.fprime = self.f_ap.max(axis=1) if self.num_p else np.zeros(self.k)
        else:
            self.f_row_sum = self.f_ap.sum(axis=1) if self.num_p else np.zeros(self.k)
            self.fprime = self.f_row_sum / self.num_p if self.num_p else np.zeros(self.k)
        self.f = float(self.fprime.max())

    def _init_cosine_tables(self) -> None:
        cache = self.inst._cosine
        if "entry_pair_others" not in cache:
            num_e = self.inst.num_entries
            by_entry: list[list[tuple[int, float, int]]] = [[] for _ in range(num_e)]
            for row in range(cache["pair_prop"].size):
                p = int(cache["pair_prop"][row])
                e1 = int(cache["pair_e1"][row])
                e2 = int(cache["pair_e2"][row])
                prod = float(cache["pair_prod"][row])
                by_entry[e1].append((e2, prod, p))
                by_entry[e2].append((e1, prod, p))
            others, prods, props, cols = [], [], [], []
            indptr = self.inst._entry_weights.indptr
            pcols = self.inst._entry_weights.indices
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
            # Per entry, aligned with its properties: the other user of
            # each property's pair.
            prop_u = cache["prop_users"]
            ui, uj = prop_u[pcols, 0], prop_u[pcols, 1]
            own_u = np.repeat(cache["user_idx"], np.diff(indptr))
            cache["entry_partner"] = np.split(np.where(ui == own_u, uj, ui), indptr[1:-1])
        self._cos = cache
        self._partner = cache["entry_partner"]
        self._e_user = cache["user_idx"]
        self._e_sq = cache["sq_counts"]

    # -- objective views --------------------------------------------------
    @property
    def objective(self) -> float:
        return (
            self.util_raw / self.z
            + self.inst.lam * (self.inst.tau - self.f)
            - self.c_unassigned
        )

    def components(self) -> ObjectiveValue:
        return ObjectiveValue.compose(
            self.util_raw / self.z, self.f, self.c_unassigned, self.inst.lam, self.inst.tau
        )

    def per_property(self) -> np.ndarray:
        """Max-over-adversaries disclosure, per property."""
        if self.num_p == 0:
            return np.zeros(0)
        return self.f_ap.max(axis=0)

    def assignment(self) -> Assignment:
        return Assignment(self.bits.copy())

    # -- mutation with snapshot-restore ------------------------------------
    def _props_of(self, d: int):
        i0, i1 = self._indptr[d], self._indptr[d + 1]
        return self._pcols[i0:i1], self._pw[i0:i1]

    def _flip(self, d: int, a: int, on: bool, log: list | None) -> None:
        if log is not None:
            log.append((
                "base", d, a, bool(self.bits[d, a]), int(self.counts[d]),
                self.util_raw, self.c_unassigned, self.f, self.fprime.copy(),
                None if self.worst else self.f_row_sum.copy(),
            ))
        w = self.inst.utility_weights[d, a]
        self._col_dirty[a] = True
        if on:
            if self.bits[d, a]:
                raise InstanceError(f"bit ({d}, {a}) already set")
            self.bits[d, a] = True
            self.counts[d] += 1
            if self.counts[d] == 1:
                self.c_unassigned -= 1
            self.util_raw += w
        else:
            if not self.bits[d, a]:
                raise InstanceError(f"bit ({d}, {a}) not set")
            self.bits[d, a] = False
            self.counts[d] -= 1
            if self.counts[d] == 0:
                self.c_unassigned += 1
            self.util_raw -= w
        if self.num_p:
            if self.family == "cosine":
                self._flip_cosine(d, a, on, log)
            else:
                self._flip_sums(d, a, on, log)
        self._kept = None

    def _flip_sums(self, d: int, a: int, on: bool, log: list | None) -> None:
        props, w = self._props_of(d)
        if props.size == 0:
            return
        # Row views: indexing a 1-d row is cheaper than sums[a, props].
        s_row, f_row = self.sums[a], self.f_ap[a]
        old_s, old_f = s_row[props], f_row[props]
        if log is not None:
            log.append(("row", a, props, old_s, old_f))
        if self.family == "step":
            new_s = old_s + (1.0 if on else -1.0)
            new_f = (new_s == self.inst._sizes[props]).astype(np.float64)
        else:
            # a_dp >= 0, so a sum that rounds below 0 on removal is 0.
            new_s = old_s + w if on else np.maximum(old_s - w, 0.0)
            new_f = new_s if self.family == "linear" else new_s**2
        # The worst aggregate rescans the row; only average needs the delta.
        delta_sum = 0.0 if self.worst else float((new_f - old_f).sum())
        s_row[props] = new_s
        f_row[props] = new_f
        self._refresh_agg(a, delta_sum, may_decrease=not on)

    def _flip_cosine(self, d: int, a: int, on: bool, log: list | None) -> None:
        cache = self._cos
        u = int(self._e_user[d])
        props, _ = self._props_of(d)
        if log is not None:
            pprops = cache["entry_pair_props"][d]
            log.append((
                "cosine", a, u, float(self.norms[a, u]),
                pprops, self.dots[a, pprops],
                props, self.f_ap[a, props],
            ))
        if on:
            # The row add_gain_row kept for d, else the same kernel on row a.
            kept = self._kept
            if kept is not None and kept[0] == d:
                norm_u, dots_new, new_f = kept[1][a], kept[2][a], kept[3][a]
            else:
                norm_u, dots_new, new_f = self._cosine_add_rows(d, props, a)
            self.norms[a, u] = norm_u
            if props.size == 0:
                return
            self.dots[a][props] = dots_new
        else:
            self.norms[a, u] -= self._e_sq[d]
            pprops = cache["entry_pair_props"][d]
            if pprops.size:
                mask = self.bits[cache["entry_pair_others"][d], a]
                if mask.any():
                    np.subtract.at(self.dots[a], pprops[mask], cache["entry_pair_prods"][d][mask])
            if props.size == 0:
                return
            new_f = self._cosine_values(self.norms[a], self.dots[a, props], d,
                                        float(self.norms[a, u]))
        f_row = self.f_ap[a]
        # The worst aggregate rescans the row; only average needs the delta.
        delta_sum = 0.0 if self.worst else float((new_f - f_row[props]).sum())
        f_row[props] = new_f
        # Cosine components can move either way on any flip.
        self._refresh_agg(a, delta_sum, may_decrease=True)

    def _cosine_add_rows(self, d: int, props: np.ndarray, rows):
        """For adding entry d to adversary ``rows`` (an int), or to every
        adversary (``slice(None)``): the new squared norm of d's user, the
        new dots and the new cosine values over d's properties, shapes
        (), (deg,), (deg,) or (k,), (k, deg), (k, deg).

        Each of d's properties holds at most one pair with d, so every dot
        gets one addition; an inactive pair adds 0.0, which leaves it as a
        flip that skips the pair would."""
        cache = self._cos
        new_norm_u = self.norms[rows, self._e_user[d]] + self._e_sq[d]
        # take() on the last axis serves one row and k rows alike, and is
        # cheaper than fancy indexing on arrays this small.
        dots_new = self.dots[rows].take(props, axis=-1)
        others = cache["entry_pair_others"][d]
        if others.size:
            active = self.bits[:, rows].take(others, axis=0).T * cache["entry_pair_prods"][d]
            np.add.at(dots_new.T, cache["entry_pair_cols"][d], active.T)
        new_f = self._cosine_values(self.norms[rows], dots_new, d, new_norm_u[..., None])
        return new_norm_u, dots_new, new_f

    def _cosine_values(self, norms, dots_vals, d, norm_u):
        """Cosine of d's properties from the dots and the norms of one
        adversary (1-d) or of a block of adversaries (2-d)."""
        denom = norm_u * norms.take(self._partner[d], axis=-1)
        # Norms are sums of squared counts, so denom >= 0; where it is 0
        # the user pair shares nothing and the value is 0.
        return np.divide(dots_vals, np.sqrt(denom), out=np.zeros(dots_vals.shape),
                         where=denom > 0.0)

    def _refresh_agg(self, a: int, delta_sum: float, may_decrease: bool) -> None:
        if self.worst:
            if may_decrease:
                self.fprime[a] = float(self.f_ap[a].max())
            else:
                self.fprime[a] = max(self.fprime[a], float(self.f_ap[a].max()))
        else:
            self.f_row_sum[a] += delta_sum
            self.fprime[a] = self.f_row_sum[a] / self.num_p
        self.f = float(self.fprime.max())

    def _undo(self, log: list) -> None:
        self._kept = None
        for rec in reversed(log):
            tag = rec[0]
            if tag == "base":
                (_, d, a, old_bit, old_count, util, c_un, f, fprime, frs) = rec
                self.bits[d, a] = old_bit
                self.counts[d] = old_count
                self.util_raw = util
                self.c_unassigned = c_un
                self.f = f
                self.fprime = fprime
                if frs is not None:
                    self.f_row_sum = frs
            elif tag == "row":
                _, a, props, old_s, old_f = rec
                self.sums[a, props] = old_s
                self.f_ap[a, props] = old_f
            else:
                _, a, u, old_norm, touched, old_dots, props, old_f = rec
                self.norms[a, u] = old_norm
                if touched.size:
                    self.dots[a, touched] = old_dots
                self.f_ap[a, props] = old_f

    def _move_flips(self, move: Move):
        if move.kind == "add":
            return ((move.entry, move.to_adversary, True),)
        if move.kind == "remove":
            return ((move.entry, move.from_adversary, False),)
        return (
            (move.entry, move.from_adversary, False),
            (move.entry, move.to_adversary, True),
        )

    def apply(self, move: Move) -> None:
        for (d, a, on) in self._move_flips(move):
            self._flip(d, a, on, None)
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
        newfp = self._new_fprime_add_row(d)
        new_f = np.maximum(self._other_max(), newfp)
        bonus = 1.0 if self.counts[d] == 0 else 0.0
        gains = self._uz[d] + inst.lam * (self.f - new_f) + bonus
        gains[self.bits[d]] = _NEG_INF
        return gains

    def _new_fprime_add_row(self, d: int) -> np.ndarray:
        if self.num_p == 0:
            return self.fprime.copy()
        props, w = self._props_of(d)
        if self.family == "cosine":
            return self._new_fprime_add_row_cosine(d, props)
        if props.size == 0:
            return self.fprime.copy()
        s = self.sums[:, props]
        if self.family == "step":
            completing = s == (self.inst._sizes[props] - 1.0)[None, :]
            if self.worst:
                return np.maximum(self.fprime, completing.any(axis=1).astype(np.float64))
            return self.fprime + completing.sum(axis=1) / self.num_p
        if self.family == "linear":
            if self.worst:
                return np.maximum(self.fprime, (s + w[None, :]).max(axis=1))
            return self.fprime + self._colsum[d] / self.num_p
        if self.worst:
            return np.maximum(self.fprime, ((s + w[None, :]) ** 2).max(axis=1))
        return self.fprime + (2.0 * (s @ w) + self._sqsum[d]) / self.num_p

    def _new_fprime_add_row_cosine(self, d: int, props: np.ndarray) -> np.ndarray:
        kept = self._cosine_add_rows(d, props, slice(None))
        self._kept = (d,) + kept  # committed by the next add of d, if no flip comes first
        if props.size == 0:
            return self.fprime.copy()
        new_f = kept[2]
        old_f = self.f_ap.take(props, axis=1)
        if not self.worst:
            return self.fprime + (new_f - old_f).sum(axis=1) / self.num_p
        out = np.maximum(self.fprime, new_f.max(axis=1))
        # A component that drops may have owned the row max; rescan those rows.
        for a in np.nonzero((new_f < old_f).any(axis=1))[0]:
            row = self.f_ap[a].copy()
            row[props] = new_f[a]
            out[a] = row.max()
        return out

    def _new_fprime_remove_row(self, d: int, asg: np.ndarray) -> dict[int, float]:
        """fprime[a] after removing entry d from adversary a, for each
        currently assigned a."""
        out: dict[int, float] = {}
        if self.num_p == 0 or asg.size == 0:
            return {int(a): float(self.fprime[a]) for a in asg}
        props, w = self._props_of(d)
        if props.size == 0 and self.family != "cosine":
            return {int(a): float(self.fprime[a]) for a in asg}

        if self.family == "cosine":
            cache = self._cos
            u = int(self._e_user[d])
            others = cache["entry_pair_others"][d]
            pcols = cache["entry_pair_cols"][d]
            prods = cache["entry_pair_prods"][d]
            for a in asg:
                a = int(a)
                if props.size == 0:
                    out[a] = float(self.fprime[a])
                    continue
                dots_new = self.dots[a, props]
                if others.size:
                    mask = self.bits[others, a]
                    np.subtract.at(dots_new, pcols[mask], prods[mask])
                norm_u = float(self.norms[a, u]) - float(self._e_sq[d])
                new_f = self._cosine_values(self.norms[a], dots_new, d, norm_u)
                out[a] = self._row_aggregate(a, props, new_f)
            return out

        for a in asg:
            a = int(a)
            s = self.sums[a, props]
            if self.family == "step":
                new_f = np.zeros(props.size)  # a removed member always breaks fullness
            elif self.family == "linear":
                new_f = np.maximum(s - w, 0.0)  # clamped as _flip_sums does
            else:
                new_f = np.maximum(s - w, 0.0) ** 2
            out[a] = self._row_aggregate(a, props, new_f)
        return out

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
        each bound is at least the float gain it stands for. Cosine gets no
        such floor: its components can fall when an entry is added."""
        inst, k = self.inst, self.k
        max_excluding = self._max_excluding()
        floor = [-np.inf] * k if self.family == "cosine" else [float(v) for v in self.fprime]
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
        add_newfp = self._new_fprime_add_row(d) if free else None
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
        num_d = inst.num_entries
        if self.family == "cosine":
            gains = np.full((num_d, self.k), _NEG_INF)
            for d in np.nonzero(self.counts < inst.t)[0]:
                gains[d] = self.add_gain_row(int(d))
            return gains

        if self._col_cache is None:
            self._col_cache = np.empty((num_d, self.k))
            self._col_dirty[:] = True
        for a in np.nonzero(self._col_dirty)[0]:
            self._col_cache[:, a] = self._new_fprime_add_col(int(a))
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

    def _new_fprime_add_col(self, a: int) -> np.ndarray:
        """fprime[a] after adding entry d to adversary a, for every d."""
        inst = self.inst
        num_d = inst.num_entries
        if self.num_p == 0:
            return np.full(num_d, self.fprime[a])
        s_row = self.sums[a]
        if self.family == "step":
            completing = (s_row == inst._sizes - 1.0).astype(np.float64)
            cnt = inst._entry_members @ completing
            if self.worst:
                return np.maximum(self.fprime[a], (cnt > 0).astype(np.float64))
            return self.fprime[a] + cnt / self.num_p
        if self.family == "linear" and not self.worst:
            return self.fprime[a] + self._colsum / self.num_p
        if self.family == "quadratic" and not self.worst:
            delta = 2.0 * (inst._entry_weights @ s_row) + self._sqsum
            return self.fprime[a] + delta / self.num_p
        # Worst-aggregation linear/quadratic: segmented max over each
        # entry's incident properties. Entries in no property keep
        # fprime[a]; reduceat runs over the non-empty segments only.
        if self._seg is None:
            nonempty = np.flatnonzero(np.diff(self._indptr))
            self._seg = (nonempty, self._indptr[nonempty], np.empty(self._pcols.size))
        rows, starts, vals = self._seg
        np.take(s_row, self._pcols, out=vals)
        vals += self._pw
        if self.family == "quadratic":
            np.square(vals, out=vals)
        out = np.full(num_d, self.fprime[a])
        out[rows] = np.maximum(self.fprime[a], np.maximum.reduceat(vals, starts))
        return out
