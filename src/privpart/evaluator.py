"""Incremental objective evaluation engine.

The construction phase scores every candidate (entry, adversary) pair in
every iteration, so candidate gains must come from state deltas rather
than full re-evaluations. ``IncrementalEvaluator`` keeps the state every
disclosure family shares: the bits, per-entry counts, raw utility and
unassigned count, the (k, |P|) disclosure ``f_ap``, each adversary's
aggregate ``fprime`` and row sum ``f_row_sum``, and the overall ``f``.
``fprime`` and ``f_row_sum`` are lists of k Python floats, which the
per-entry paths read and write without converting; the numpy readers
take ``np.asarray`` of them. Only average aggregation reads
``f_row_sum``, so only it keeps the sums current (worst skips a per-flip
sum); the list exists under both. The family's own running state lives
in one kernel, picked once in ``__init__``:

* ``_SumsKernel`` (step, linear, quadratic) keeps ``s[a, p]``, the sum of
  the member weights adversary a holds on property p, and ``f_ap = g(s)``:
  ``s == size`` for step (whose members weigh 1.0), ``s`` for linear,
  ``s**2`` for quadratic.
* ``_CosineKernel`` keeps each adversary's squared user norms and the dot
  product of each property's user pair; ``f_ap`` is their cosine.

Both offer the same operations, each handed the evaluator whose shared
state it reads and never writes: ``row``, the kernel state a's row
holds on d's keys once d joins or leaves a, and d's new values, which
flips and removal scores share; ``add_block``, for a block of entries
and every adversary, the state and values each entry would write on
joining it; ``window_row``, one of those rows; ``add_cols``, which
writes for some adversaries each one's aggregate once each entry joins
it (its column of a table); and ``restore``, which writes a's state on
d's keys in the form ``row`` returns. Only the evaluator writes
``f_ap``, ``fprime`` and ``f``; it builds its access paths on these
operations. Each scores a move with one expression, ``_gain``, from the
move's utility change, its orphan term and f_new, the new overall
disclosure: the max of the ``_excluded_max`` table's entry for the
adversaries the move touches (the largest fprime outside them) and their
new aggregates.

* ``add_gain_row(d)``   -- gains for adding entry d to each adversary,
                           as a list of k Python floats: the expression
                           written out, with the excluded max read in
                           O(k) (the largest fprime, and for its holder
                           the runner-up) rather than from the table
* ``add_gain_matrix()`` -- gains for every eligible addition, from the
                           same diagonal (``_excluded_diag``), one column
                           per adversary (``_columns``), cached until a
                           flip touches that adversary, and the addition
                           table (``_additions``); the columns a flip
                           made stale are recomputed in one ``add_cols``
                           call
* ``neighborhood_gains(d)`` -- gains of entry d's local-search neighbors,
                           on Python floats; additions read d's row of
                           the columns
* ``neighborhood_gain_bounds()`` -- for every entry at once, the same
                           expression at lower bounds on f_new, hence an
                           upper bound on its neighbors' gains; it floors
                           additions and swaps at the columns

The addition table is one (|D|, k) array, built when a gain matrix or
the gain bounds first need it: a cell holds the orphan bonus of an
eligible addition (1.0 for an entry with no adversary, else 0.0) and
-inf where the bit is set or the entry is at the cap. Both scans add it
to their gains as one array of the gains' shape, which applies the bonus
and masks the ineligible cells at once; the new disclosure they add it
to is finite (k >= 2), so a masked cell is -inf also at lam = 0. Once
the table exists, ``_flip`` lists the rows it touches and the next read
rewrites just those; an evaluator that never scans globally (myopic
construction, result checks) pays one attribute test per flip. So no
step of a scan builds a per-entry column and broadcasts it along the
short k axis, which on a (500, 5) matrix cost more than half of the
call.

The columns have closed forms. The sums kernel's are per adversary
(``add_col``). The cosine kernel's come from one ``add_block`` over a
layout of every entry, built on the first call, for every adversary at
once; the aggregate of each entry is then ``_aggregates``'s expression
on numpy arrays, which round as Python floats do: under average
``fprime[a] + shift[a] / |P|``, under worst ``max(fprime[a], top[a])``
with a rescan of a's row only for the entries one of whose values
falls. The sums kernel's average block forms run its columns'
operations in the same order (quadratic sums ``s.w`` member by member,
as the sparse product does). So under both aggregations every column
entry is bitwise the aggregate an addition of that entry reads, and the
gain bound and ``neighborhood_gains`` read it in its place.

Myopic additions are scored in windows. ``windows(entries)`` cuts a
sequence of entries, in order, into maximal runs of which no two share
kernel state: no property, and for cosine no user either (two friends
share their property), as listed by the instance's ``_conflict_keys``.
``window_layouts(entries)`` lays each run out as a ``_Block``, which
depends only on the run and the incidence, so the myopic construction
cuts and lays out its windows once and opens them again in every pass
that visits the same entries (from an empty evaluator, every pass).
``open_window(layout)`` scores the run for every adversary in one
``add_block`` call. Adding one entry of the run to an adversary changes
only the state under its own keys, which no other entry of the run
reads, so each entry's block rows stay what a one-entry block would
compute at the moment it is scored: only ``fprime`` and ``f`` move, and
``add_gain_row`` combines the cached row with the current ``fprime`` on
Python floats. An addition of an entry of the window (``add(d, a)``, the
entry point of an addition without a ``Move``, which ``apply`` uses for
its add half too) takes its row from the window (the kernel's
``window_row``) rather than from ``row`` and writes it at once, so the
kernel state and ``f_ap`` are current after every flip; any other flip
drops the window. The block reduces each entry's columns group by group
of entries with one degree, reshaped to (k, entries, degree), which
numpy sums row by row exactly as it sums the entry's own row
(``np.add.reduceat`` adds in another order), so a window gives the
one-entry loop's bits. ``add_gain_row`` scores an entry outside the
open window in a window of its own; every other addition reads its
column, bitwise equal. Under
worst, an addition merges its largest new value into the aggregate;
under cosine worst, where a value of d's properties falls, it rescans
a's full row, and so does the score of that addition.

Every flip ends in one tail: ``kernel.restore`` of the new state,
the new values into ``f_ap`` and ``_refresh_agg``. Worst or average
aggregation is chosen only in that tail of ``_flip``, ``_refresh_agg``,
``_row_aggregate``, ``_aggregates``, and the kernels' ``add_block`` and
columns.
"""

from __future__ import annotations

import numpy as np

from .disclosure import batch_disclosure
from .instance import Assignment, Instance, InstanceError, Move
from .objective import normalizer

_INF = np.inf
_NEG_INF = -np.inf


def _sum_in_order(x: np.ndarray, axis: int) -> np.ndarray:
    """x summed along axis one element after another, as a sparse
    matrix-vector product sums each row (``np.add.reduce`` sums long
    rows pairwise)."""
    return np.add.accumulate(x, axis=axis).take(-1, axis=axis)


# Per family of the sums kernel: the value g(inst, s, props) of sums s
# on properties props, and the closed forms of the average aggregate's
# row-sum change when an entry joins: for a block of entries and every
# adversary (kernel, block, s: (k, L) sums on the block's properties),
# and for one adversary and every entry (s: that adversary's (|P|,)
# sums). Summing g differences instead would round differently and so
# change results. The two forms run the same operations in the same
# order, so a column entry is bitwise the block's value: step's exact
# counts, linear's shared ``_entry_colsum``, and quadratic's ``s.w``
# summed in member order, as the sparse product sums it.
_SUMS_FAMILIES = {
    "step": (
        lambda inst, s, props: (s == inst._sizes[props]).astype(np.float64),
        lambda kn, blk, s: blk.reduce(s == kn.inst._sizes[blk.props] - 1.0, np.add.reduce),
        lambda inst, s: inst._entry_weights @ (s == inst._sizes - 1.0).astype(np.float64),
    ),
    "linear": (
        lambda inst, s, props: s,
        lambda kn, blk, s: np.repeat(kn.inst._entry_colsum[None, blk.entries[blk.empty:]],
                                     s.shape[0], axis=0),
        lambda inst, s: inst._entry_colsum,
    ),
    "quadratic": (
        lambda inst, s, props: s**2,
        lambda kn, blk, s: (2.0 * blk.reduce(s * kn.w[blk.at], _sum_in_order)
                            + kn.inst._entry_sqsum[blk.entries[blk.empty:]]),
        lambda inst, s: 2.0 * (inst._entry_weights @ s) + inst._entry_sqsum,
    ),
}


class _Block:
    """Entries laid out for one ``add_block`` call: sorted by degree,
    their properties concatenated in that order. The first
    ``empty`` entries have none. Row i of the block is ``order[i]``
    (``entries`` as an array), its columns are ``spans[i]`` and
    ``at[lo:hi]`` their positions in the entry-major incidence; ``runs``
    lists (degree, entries) of the entries with properties. Built on
    lists in one pass, as blocks of several entries are mostly a few
    memberships; a lone entry needs no sort, and its ``at``, which on a
    dense instance is long, is one ``np.arange``."""

    def __init__(self, ev: IncrementalEvaluator, entries):
        ptr = ev._indptr
        if len(entries) == 1:  # a dense instance's window, or a row outside the window
            d = entries[0]
            n = ptr[d + 1] - ptr[d]
            self.order, self.deg, self.spans = [d], [n], [(0, n)]
            self.at = np.arange(ptr[d], ptr[d + 1], dtype=np.intp)
            self.empty, self.runs = (0, [(n, 1)]) if n else (1, [])
        else:
            # Rows of one degree reduce together; their order is moot.
            rows = sorted([(ptr[d + 1] - ptr[d], d) for d in entries])
            self.order, self.deg, self.spans, self.runs, at = [], [], [], [], []
            lo = 0
            for n, d in rows:
                self.order.append(d)
                self.deg.append(n)
                self.spans.append((lo, lo + n))
                lo += n
                at += range(ptr[d], ptr[d + 1])
                if self.runs and self.runs[-1][0] == n:
                    self.runs[-1][1] += 1
                elif n:
                    self.runs.append([n, 1])
            self.at = np.array(at, dtype=np.intp)
            self.empty = self.deg.count(0)
        self.entries = np.array(self.order, dtype=np.intp)
        self.props = ev._pcols[self.at]

    def reduce(self, x: np.ndarray, how) -> np.ndarray:
        """``how(view, axis)``, a reduction such as a ufunc's ``reduce``,
        over each entry's columns of the (k, L) block x, for the entries
        with properties: (k, entries - empty). The entries of one degree n
        reduce as one (k, entries, n) view, which numpy reduces row by row
        as it reduces a lone (k, n) row."""
        parts, lo = [], 0
        for n, count in self.runs:
            hi = lo + n * count
            parts.append(how(x[:, lo:hi].reshape(x.shape[0], count, n), axis=2))
            lo = hi
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts, axis=1) if parts else np.empty((x.shape[0], 0))


class _Window:
    """What ``add_block`` computed for a block, from the state at that
    call, for the entries not added since (``row``). Per row i (``row[d]``
    for entry d): ``score[i]``, the k values the aggregates are read
    from (average: the closed form's row-sum change; worst: the largest
    new value; None for an entry in no property); ``shift[i]``, what an
    addition merges into the aggregate (average: the row-sum change of
    its values; worst: as score); ``falls[i]``, the adversaries on which
    one of its values would fall (cosine worst only). ``state`` and
    ``new_f`` hold the kernel state and the values an addition writes,
    one column per block column (the kernel's ``window_row`` reads an
    addition's state from them)."""

    def __init__(self, blk: _Block, state, new_f, score, shift, falls):
        lead = [None] * blk.empty
        self.blk, self.state, self.new_f = blk, state, new_f
        self.row = dict(zip(blk.order, range(len(blk.order))))
        self.score = lead + score.T.tolist()
        self.shift = self.score if shift is score else lead + shift.T.tolist()
        self.falls = lead + ([[b for b, x in enumerate(row) if x] for row in falls.T.tolist()]
                             if falls is not None else [()] * (blk.entries.size - blk.empty))


class IncrementalEvaluator:
    def __init__(self, instance: Instance, assignment: Assignment | None = None):
        if not instance.validated:
            raise InstanceError("instance must be validated first")
        self.inst = instance
        self.k = instance.k
        self.num_p = instance.num_properties
        self.z = normalizer(instance)
        self.worst = instance.model.aggregation == "worst"

        ew = instance._entry_weights  # |D| x |P| csr of a_dp
        self._indptr = ew.indptr.tolist()
        # intp, or every fancy index and np.take converts the int32 indices.
        self._pcols = ew.indices.astype(np.intp)
        self._uz = instance.utility_weights / self.z

        # Lazy per-adversary addition columns for the global construction
        # scan, the gain bounds and local search's additions; a flip only
        # invalidates the touched adversary's column.
        # The scan's other tables are built on first use too, so evaluators
        # that never scan (myopic construction, result checks) skip them.
        self._col_cache: np.ndarray | None = None
        self._col_dirty = set(range(self.k))
        self._window: _Window | None = None
        # The addition table (``_additions``), built on first use, and
        # the rows flips have touched since it was last read.
        self._add_tab: np.ndarray | None = None
        self._add_stale: list[int] = []

        if assignment is None:
            assignment = Assignment.empty(instance)
        self.bits = assignment.bits.copy()
        self.counts = assignment.per_entry_count.copy()
        self.util_raw = float((instance.utility_weights * self.bits).sum())
        self.c_unassigned = int(np.count_nonzero(self.counts == 0))

        state, f_ap = batch_disclosure(instance, self.bits[None])
        family = instance.model.family
        self.kernel = (_CosineKernel(instance, state) if family == "cosine"
                       else _SumsKernel(instance, state, self._pcols, *_SUMS_FAMILIES[family]))
        self.f_ap = f_ap[0].copy()  # for linear, f_ap is state itself
        self.f_row_sum = self.f_ap.sum(axis=1).tolist()
        self.fprime = [0.0] * self.k
        for a in range(self.k if self.num_p else 0):
            self._refresh_agg(a, 0.0)
        self.f = max(self.fprime)

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

    # -- mutation -------------------------------------------------------------
    def _props(self, d: int) -> np.ndarray:
        return self._pcols[self._indptr[d]:self._indptr[d + 1]]

    def _flip(self, d: int, a: int, on: bool) -> None:
        if bool(self.bits[d, a]) == on:
            raise InstanceError(f"bit ({d}, {a}) {'already' if on else 'not'} set")
        win, i = self._window, None
        if win is not None:
            i = win.row.pop(d, None) if on else None
            if i is None:  # any other flip may change what the window read
                self._window = None
        props = self._props(d)
        w = self.inst.utility_weights[d, a]
        step = 1 if on else -1
        self._col_dirty.add(a)
        if self._add_tab is not None:
            self._add_stale.append(d)
        self.bits[d, a] = on
        count = int(self.counts[d]) + step
        self.counts[d] = count
        if count == (1 if on else 0):
            self.c_unassigned -= step
        self.util_raw += w if on else -w
        f_row = self.f_ap[a]
        if i is None:
            state, new_f = self.kernel.row(self, d, a, on)
            # The worst aggregate rescans the row; only average needs the delta.
            change = 0.0 if self.worst else float((new_f - f_row[props]).sum())
            rescan = True
        else:
            # An addition the window scored (its row left ``win.row``
            # above): its rows stay valid for every other entry, not for
            # d's own next addition.
            lo, hi = win.blk.spans[i]
            state, new_f = self.kernel.window_row(win.state, i, a, lo, hi), win.new_f[a, lo:hi]
            if lo < hi:  # else the window holds no shift or falls
                change, rescan = win.shift[i][a], a in win.falls[i]
        self.kernel.restore(a, props, state)
        if props.size:
            f_row[props] = new_f
            self._refresh_agg(a, change, rescan)

    def _refresh_agg(self, a: int, change: float, rescan: bool = True) -> None:
        """Refresh a's aggregate after a's row changed: average adds
        ``change`` to the row sum; worst rescans the row, or with
        ``rescan`` False takes the max with ``change``, the largest new
        value, which is exact when no value of the row fell."""
        if not self.worst:
            row_sum = self.f_row_sum[a] + change
            self.f_row_sum[a] = row_sum
            self.fprime[a] = row_sum / self.num_p
        elif rescan:
            self.fprime[a] = float(self.f_ap[a].max())
        else:
            self.fprime[a] = max(self.fprime[a], change)
        self.f = max(self.fprime)

    def add(self, d: int, a: int) -> None:
        """Add entry d to adversary a: ``apply`` of Move('add', d, to=a),
        without building the Move."""
        self._flip(d, a, True)

    def apply(self, move: Move) -> None:
        # A swap is a removal followed by an addition.
        if move.kind != "add":
            self._flip(move.entry, move.from_adversary, False)
        if move.kind != "remove":
            self.add(move.entry, move.to_adversary)

    # -- addition windows -----------------------------------------------------
    def windows(self, entries) -> list[list[int]]:
        """Cut ``entries`` (an int array), in order, into maximal runs of
        which no two share a key of the instance's ``_conflict_keys``: a
        run ends where the next entry's keys meet the set the run holds."""
        ptr, keys = (x.tolist() for x in self.inst._conflict_keys)
        runs, held = [], set()
        for d in entries.tolist():
            own = keys[ptr[d]:ptr[d + 1]]
            if runs and held.isdisjoint(own):
                runs[-1].append(d)
                held.update(own)
            else:
                runs.append([d])
                held = set(own)
        return runs

    def window_layouts(self, entries) -> list[tuple[list[int], _Block]]:
        """``windows(entries)``, each run with its ``_Block`` layout for
        ``open_window``. A layout depends only on its run and the
        incidence, so it may be opened again in a later pass."""
        return [(run, _Block(self, run)) for run in self.windows(entries)]

    def _score_block(self, blk: _Block) -> _Window:
        return _Window(blk, *self.kernel.add_block(self, blk))

    def open_window(self, blk: _Block) -> None:
        """Score ``blk``, the layout of one run of ``windows``, for every
        adversary in one kernel call; ``add_gain_row`` and additions of
        its entries read the result until a flip outside it."""
        self._window = self._score_block(blk)

    def _aggregates(self, win: _Window, i: int) -> list[float]:
        """Each adversary's aggregate once row i of win joins it, on
        Python floats, which round as numpy does."""
        fp, score = self.fprime, win.score[i]
        if score is None:  # no property: no aggregate moves
            return fp.copy()
        if not self.worst:
            num_p = self.num_p
            return [f + x / num_p for f, x in zip(fp, score)]
        agg = [max(f, x) for f, x in zip(fp, score)]
        if win.falls[i]:  # a falling value may have owned the row max: rescan
            lo, hi = win.blk.spans[i]
            for b in win.falls[i]:
                agg[b] = self._row_aggregate(b, win.blk.props[lo:hi], win.new_f[b, lo:hi])
        return agg

    def _add_aggregates(self, d: int) -> list[float]:
        """``_aggregates`` of entry d, from the open window, or from a
        window of d alone when d is not in it."""
        win = self._window
        i = win.row.get(d) if win is not None else None
        if i is None:
            self.open_window(_Block(self, (d,)))
            win, i = self._window, 0
        return self._aggregates(win, i)

    # -- move gains ---------------------------------------------------------
    def _gain(self, u, low, bonus, out=None):
        """The gain ``u + lam * (f - low) + bonus`` of a move with utility
        change u and orphan term bonus that leaves the overall disclosure
        at ``low``, on Python floats or on numpy arrays; an array ``low``
        has the shape of the result. Every gain of this class is this
        expression (``add_gain_row`` writes it out, operation for
        operation, on Python floats). Rounding is monotone, so at a lower
        bound on the new disclosure it is an upper bound on the move's
        gain. A low of -inf bounds nothing and gives +inf, also for
        lam = 0 (not 0 * inf). Arrays get one new buffer, or run in
        ``out`` (which may be low itself) if lam is not 0; the rest of the
        expression runs in it."""
        lam = self.inst.lam
        if lam == 0.0:
            gain = np.where(low == _NEG_INF, np.inf, 0.0)[()]
        else:
            gain = self.f - low if out is None else np.subtract(self.f, low, out=out)
            gain *= lam
        gain += u
        gain += bonus
        return gain

    def _excluded_max(self) -> tuple[list[float], list[list[float]]]:
        """The (k, k) excluded-max table: ``excl[a][b]`` is the largest
        fprime outside {a, b}, -inf where none is left. Returns its
        diagonal (the largest fprime outside each adversary) and the
        table, as lists of floats, which k values build faster than
        numpy. Each row of an adversary outside the top two is the
        diagonal list, shared: read only."""
        fp, k = self.fprime, self.k
        top = sorted(fp)
        v0, v1, v2 = top[-1], top[-2], top[-3] if k > 2 else _NEG_INF
        i0 = fp.index(v0)
        i1 = fp.index(v1, i0 + 1) if v1 == v0 else fp.index(v1)  # a tie: v0's next index
        diag = [v0] * k
        diag[i0] = v1
        excl = [diag] * k
        excl[i0], excl[i1] = [v1] * k, diag.copy()
        excl[i0][i1] = excl[i1][i0] = v2
        return diag, excl

    def _excluded_diag(self) -> list[float]:
        """The excluded-max table's diagonal alone, in O(k) without the
        table: the largest fprime, and for its first holder the
        runner-up."""
        fp = self.fprime
        second, top = sorted(fp)[-2:]
        diag = [top] * self.k
        diag[fp.index(top)] = second
        return diag

    def add_gain_row(self, d: int) -> list[float]:
        """Gains for adding entry d to each adversary a, as a list of k
        floats; already set bits come back as -inf. Callers check the
        per-entry cap. ``_gain`` on Python floats, operation for
        operation, with the excluded-max diagonal read in O(k): the
        largest fprime, and for its first holder the runner-up (written
        out rather than through ``_excluded_diag``, whose list and call
        cost this hot path about a tenth)."""
        agg = self._add_aggregates(d)
        fp = self.fprime
        second, top = sorted(fp)[-2:]
        first = fp.index(top)
        # max(excl, y), as ``max`` picks it; only ``first`` excludes top.
        low = [y if y > top else top for y in agg]
        y = agg[first]
        low[first] = y if y > second else second
        count, lam, f = self.counts[d], self.inst.lam, self.f
        bonus = 0.0 if count else 1.0
        uz = self._uz[d].tolist()
        if lam == 0.0:
            gains = [((_INF if x == _NEG_INF else 0.0) + u) + bonus for x, u in zip(low, uz)]
        else:
            gains = [((f - x) * lam + u) + bonus for x, u in zip(low, uz)]
        if count:  # only an entry with an adversary has a set bit
            for a, held in enumerate(self.bits[d].tolist()):
                if held:
                    gains[a] = _NEG_INF
        return gains

    def add_gain_matrix(self) -> np.ndarray:
        """(|D|, k) matrix of addition gains; ineligible cells are -inf.
        Eligible means: bit unset and entry below the per-entry cap."""
        low = np.maximum(self._columns(), self._excluded_diag())
        return self._gain(self._uz, low, self._additions(), out=low)

    def _additions(self) -> np.ndarray:
        """The addition table of the module docstring, with the rows
        listed in ``_add_stale`` rewritten; built on first use."""
        tab, t = self._add_tab, self.inst.t
        if tab is None:
            counts = self.counts
            self._add_tab = np.where(self.bits | (counts >= t)[:, None], _NEG_INF,
                                     (counts == 0).astype(np.float64)[:, None])
            return self._add_tab
        for d in set(self._add_stale):
            count, row = self.counts[d], tab[d]
            if count >= t:
                row.fill(_NEG_INF)
            else:
                row.fill(1.0 if count == 0 else 0.0)
                row[self.bits[d]] = _NEG_INF
        self._add_stale.clear()
        return tab

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
        add_f = self._columns()[d].tolist() if free else None
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
            rem_f = (self._row_aggregate(a, props, self.kernel.row(self, d, a, False)[1])
                     if props.size else self.fprime[a])
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
        to b also a floor on b's new aggregate: the entry's own column
        entry (``_columns``), bitwise the aggregate the move would read, so
        an addition's bound is its gain. The removed entry's own change is
        left out of a swap's bound."""
        inst, bits, counts = self.inst, self.bits, self.counts
        diag, excl = self._excluded_max()
        floor = self._columns()
        # low is finite (k >= 2), so ineligible cells stay -inf at lam = 0.
        best = self._gain(self._uz, np.maximum(diag, floor), self._additions()).max(axis=1)
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
        """(|D|, k) table of the kernel's ``add_cols``: each adversary's
        aggregate once each entry joins it. Only the columns a flip has
        touched since the last call are recomputed, in one kernel call."""
        if self._col_cache is None:  # every column is dirty since __init__
            self._col_cache = np.empty((self.inst.num_entries, self.k))
        dirty = self._col_dirty
        if dirty and self.num_p:
            self.kernel.add_cols(self, dirty, self._col_cache)
        else:  # without properties no addition moves an aggregate
            for a in dirty:
                self._col_cache[:, a] = self.fprime[a]
        dirty.clear()
        return self._col_cache


class _SumsKernel:
    """Step, linear and quadratic: ``s[a, p]``, the sum of the member
    weights adversary a holds on property p, and ``f_ap = g(s)``. Adding
    a member never lowers a sum or its value, so the family is monotone.

    Operations that read the state every family shares take the
    evaluator as their first argument; the kernel keeps no reference to
    it, so an evaluator is freed as soon as its last user drops it."""

    def __init__(self, inst: Instance, state, pcols, g, average_block, average_col):
        self.inst = inst
        self.s = state[0]
        ew = inst._entry_weights
        self.indptr, self.pcols, self.w = ew.indptr, pcols, ew.data
        self.g, self._average_block, self._average_col = g, average_block, average_col
        self._seg: tuple | None = None  # worst segmented-max tables, built on first use
        # Linear's average column reads no sums: its one division, made once.
        self._linear_col = (inst._entry_colsum / inst.num_properties
                            if inst.model.family == "linear" and inst.num_properties else None)

    def _props_w(self, d: int):
        i0, i1 = self.indptr[d], self.indptr[d + 1]
        return self.pcols[i0:i1], self.w[i0:i1]

    def row(self, ev: IncrementalEvaluator, d: int, a: int, on: bool):
        """a's sums on d's properties once d joins a (``on``) or leaves
        it, and their values. a_dp >= 0, so a sum that rounds below 0 on
        removal is 0; a step count is exact and never clamps."""
        props, w = self._props_w(d)
        # A row view: indexing a 1-d row is cheaper than s[a, props].
        old_s = self.s[a][props]
        new_s = old_s + w if on else np.maximum(old_s - w, 0.0)
        return new_s, self.g(self.inst, new_s, props)

    def add_block(self, ev: IncrementalEvaluator, blk: _Block):
        """For each entry of blk and each adversary: the sums and values
        it writes on joining, and the score, shift and falls of
        ``_Window``."""
        props = blk.props
        s = self.s.take(props, axis=1)
        new_s = s + self.w[blk.at]
        new_f = self.g(self.inst, new_s, props)
        if ev.worst:
            top = blk.reduce(new_f, np.maximum.reduce)
            return new_s, new_f, top, top, None
        return (new_s, new_f, self._average_block(self, blk, s),
                blk.reduce(new_f - ev.f_ap.take(props, axis=1), np.add.reduce), None)

    @staticmethod
    def window_row(state, i: int, a: int, lo: int, hi: int) -> np.ndarray:
        """The sums of row i of a window's ``state`` (columns lo:hi) once
        it joins a, in ``row``'s form."""
        return state[a, lo:hi]

    def add_cols(self, ev: IncrementalEvaluator, adversaries, out: np.ndarray) -> None:
        """``add_col(ev, a)`` into column a of out, for each adversary a."""
        for a in adversaries:
            out[:, a] = self.add_col(ev, a)

    def add_col(self, ev: IncrementalEvaluator, a: int) -> np.ndarray:
        inst, s_row = self.inst, self.s[a]
        if not ev.worst:
            col = self._linear_col
            if col is None:
                col = self._average_col(inst, s_row) / ev.num_p
            return ev.fprime[a] + col
        # Segmented max over each entry's incident properties. Entries in
        # no property keep fprime[a]; reduceat runs over the non-empty
        # segments only.
        if self._seg is None:
            nonempty = np.flatnonzero(np.diff(self.indptr))
            rows = None if nonempty.size == inst.num_entries else nonempty
            self._seg = (rows, self.indptr[nonempty], np.empty(self.pcols.size))
        rows, starts, vals = self._seg
        # pcols are the validated incidence's columns, so clip never moves
        # one; with out= the default mode="raise" gathers through a buffer.
        np.take(s_row, self.pcols, out=vals, mode="clip")
        vals += self.w
        seg_max = np.maximum.reduceat(self.g(inst, vals, self.pcols), starts)
        if rows is None:  # every entry has a property
            return np.maximum(ev.fprime[a], seg_max, out=seg_max)
        out = np.full(inst.num_entries, ev.fprime[a])
        out[rows] = np.maximum(ev.fprime[a], seg_max)
        return out

    def restore(self, a: int, props: np.ndarray, s: np.ndarray) -> None:
        self.s[a][props] = s


class _CosineKernel:
    """Cosine: ``norms[a, u]``, the squared norm of the check-in counts of
    user u that adversary a holds, and ``dots[a, p]``, the dot product of
    property p's two users over a's entries; ``f_ap`` is their cosine.
    Operations take the evaluator as ``_SumsKernel``'s do.

    Each of d's properties holds at most one pair with d (the tables'
    ``member_other`` and ``member_prod``), so an addition adds one
    product to each of d's dots and a removal subtracts it; an inactive
    pair, or a property without one, moves the dot by 0.0, which leaves
    it as a flip that skips it would, so the state is bitwise the one a
    fresh evaluator reaches by replaying the moves."""

    def __init__(self, inst: Instance, state):
        self.norms, self.dots = state[0][0], state[1][0]
        t = inst._cosine
        self.e_user, self.e_sq = t.user_idx, t.sq_counts
        self.partner, self.other, self.prod = t.member_partner, t.member_other, t.member_prod
        self._col_block: _Block | None = None  # add_cols' layout of every entry

    def row(self, ev: IncrementalEvaluator, d: int, a: int, on: bool):
        """The new norm of d's user and d's new dots once d joins a
        (``on``) or leaves it, and their cosines."""
        u = int(self.e_user[d])
        at = slice(ev._indptr[d], ev._indptr[d + 1])
        pair = ev.bits[self.other[at], a] * self.prod[at]
        dots = self.dots[a][ev._props(d)]
        if on:
            norm_u = self.norms[a, u] + self.e_sq[d]
            dots += pair
        else:
            norm_u = self.norms[a, u] - self.e_sq[d]
            dots -= pair
        return (u, norm_u, dots), self._cosine(dots, norm_u * self.norms[a].take(self.partner[at]))

    def add_block(self, ev: IncrementalEvaluator, blk: _Block):
        """For each entry of blk and each adversary: the new norm of its
        user and its new dots (the kernel state it writes on joining),
        its new cosine values, and the score, shift and falls of
        ``_Window``. Elementwise the arithmetic of a single addition."""
        props, at, users = blk.props, blk.at, self.e_user[blk.entries]
        norm_u = self.norms.take(users, axis=1)
        norm_u += self.e_sq[blk.entries]
        dots = self.dots.take(props, axis=1)
        dots += ev.bits[self.other[at]].T * self.prod[at]
        denom = np.repeat(norm_u, blk.deg, axis=1)
        denom *= self.norms.take(self.partner[at], axis=1)
        new_f = self._cosine(dots, denom)
        old_f = ev.f_ap.take(props, axis=1)
        if ev.worst:
            top = blk.reduce(new_f, np.maximum.reduce)
            falls = blk.reduce(new_f < old_f, np.logical_or.reduce)
            return (users, norm_u, dots), new_f, top, top, falls
        shift = blk.reduce(new_f - old_f, np.add.reduce)
        return (users, norm_u, dots), new_f, shift, shift, None

    @staticmethod
    def window_row(state, i: int, a: int, lo: int, hi: int):
        """The new norm of the user and the new dots of row i of a
        window's ``state`` (columns lo:hi) once it joins a, in ``row``'s
        form. An entry in no property still writes its user's norm."""
        users, norm_u, dots = state
        return users[i], norm_u[a, i], dots[a, lo:hi]

    @staticmethod
    def _cosine(dots, denom):
        # Norms are sums of squared counts, so denom >= 0; where it is 0
        # the user pair shares nothing and the value is 0.
        return np.divide(dots, np.sqrt(denom), out=np.zeros(dots.shape), where=denom > 0.0)

    def add_cols(self, ev: IncrementalEvaluator, adversaries, out: np.ndarray) -> None:
        """Into column a of out, for each adversary a: a's aggregate once
        each entry joins it, as ``_aggregates`` computes it, from one
        ``add_block`` of every entry (see the module docstring). An entry
        in no property keeps fprime[a]."""
        if self._col_block is None:
            self._col_block = _Block(ev, range(ev.inst.num_entries))
        blk = self._col_block
        _, new_f, score, _, falls = self.add_block(ev, blk)
        rows = blk.entries[blk.empty:]
        for a in adversaries:
            f = ev.fprime[a]
            if ev.worst:
                vals = np.maximum(f, score[a])
                for i in np.flatnonzero(falls[a]).tolist():
                    lo, hi = blk.spans[blk.empty + i]
                    vals[i] = ev._row_aggregate(a, blk.props[lo:hi], new_f[a, lo:hi])
            else:
                vals = score[a] / ev.num_p
                vals += f
            out[:, a] = f
            out[rows, a] = vals

    def restore(self, a: int, props: np.ndarray, state) -> None:
        u, norm_u, dots = state
        self.norms[a, u] = norm_u
        self.dots[a][props] = dots
