"""Span tracing from outside the package.

``Tracer.install()`` replaces the public functions and methods listed in
``TARGETS`` by timing wrappers, at every ``privpart`` module attribute
that binds them (``objective.disclosure_vector`` and
``disclosure.disclosure_vector`` are the same function object, so both
bindings are patched). ``uninstall()`` puts the originals back. Nothing
under ``src/`` is edited.

Each span is ``[name, start, end, parent, run_id, child_time, outermost]``:
``parent`` is the index of the enclosing span (-1 at the top), ``run_id``
the pass that produced it, ``child_time`` the summed duration of its
direct children (self time is duration minus child time; spans are
strictly nested because the benchmark is single-threaded), and
``outermost`` is False when a span of the same name is already open, so
that totals per name never count a recursive call twice. Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# Span names whose results are candidate gains. Only the outermost one
# counts towards ``evaluator.candidates_scored``: the cosine
# ``add_gain_matrix`` is built from ``add_gain_row`` calls.
GAIN_SPANS = ("evaluator.add_gain_matrix", "evaluator.add_gain_row",
              "evaluator.neighborhood_gains")


def _count_candidates(tracer, name, args, kwargs, result, seconds):
    if sum(tracer.depth[n] for n in GAIN_SPANS) != 1:
        return
    if name == "evaluator.neighborhood_gains":
        scored = sum(1 for _, gain in result if np.isfinite(gain))
    else:
        scored = int(np.count_nonzero(np.isfinite(result)))
    tracer.counts["evaluator.candidates_scored"] += scored


def _first_init(tracer, name, args, kwargs, result, seconds):
    # args[0] is the evaluator itself; the first evaluator built on an
    # instance pays for lazily built tables (the cosine pair lists).
    inst = args[1] if len(args) > 1 else kwargs["instance"]
    if id(inst) not in tracer.seen_instances:
        tracer.seen_instances.add(id(inst))
        tracer.keep_alive.append(inst)
        tracer.counts["evaluator.first_init_s"] += seconds


def _ingest(tracer, name, args, kwargs, result, seconds):
    tracer.counts["geodata.checkin_lines"] += result.total_lines


def _construction(tracer, name, args, kwargs, result, seconds):
    tracer.counts["heuristics.additions"] += result[2]
    tracer.counts["heuristics.restarts"] += 1


def _local_search(tracer, name, args, kwargs, result, seconds):
    tracer.counts["heuristics.ls_moves"] += result[2]
    instance = args[0] if args else kwargs["instance"]
    tracer.counts["heuristics.ls_entries"] += instance.num_entries


def _iterations(counter):
    def hook(tracer, name, args, kwargs, result, seconds):
        tracer.counts[counter] += result.iterations
    return hook


def _lp_error(tracer, name, exc):
    from privpart.relaxation import LpInfeasibleError

    if isinstance(exc, LpInfeasibleError):
        tracer.counts["relaxation.lp_infeasible"] += 1


# (module, attribute, span name, result hook, error hook). A dotted
# attribute names a method on a class of that module.
TARGETS = (
    ("geodata", "ingest_checkins", "geodata.ingest", _ingest, None),
    ("geodata", "read_friendships", "geodata.friendships", None, None),
    ("geodata", "build_location_instance", "geodata.build", None, None),
    ("synth", "generate_instance", "synth.generate", None, None),
    ("synth", "random_small_instance", "synth.generate", None, None),
    ("instance", "validate_instance", "instance.validate", None, None),
    ("evaluator", "IncrementalEvaluator.__init__", "evaluator.init", _first_init, None),
    ("evaluator", "IncrementalEvaluator.add_gain_matrix", "evaluator.add_gain_matrix",
     _count_candidates, None),
    ("evaluator", "IncrementalEvaluator.add_gain_row", "evaluator.add_gain_row",
     _count_candidates, None),
    ("evaluator", "IncrementalEvaluator.neighborhood_gains", "evaluator.neighborhood_gains",
     _count_candidates, None),
    ("evaluator", "IncrementalEvaluator.apply", "evaluator.apply", None, None),
    ("heuristics", "construction", "heuristics.construction", _construction, None),
    ("heuristics", "local_search", "heuristics.local_search", _local_search, None),
    ("heuristics", "rand_plus", "heuristics.rand_plus", None, None),
    ("heuristics", "finalize_result", "heuristics.finalize", None, None),
    ("objective", "tradeoff_objective", "objective.tradeoff", None, None),
    ("disclosure", "disclosure_vector", "disclosure.vector", None, None),
    ("exact", "enumerate_optimum", "exact.enumerate", _iterations("exact.enum_assignments"),
     None),
    ("exact", "solve_exact", "exact.bnb", _iterations("exact.bnb_nodes"), None),
    ("relaxation", "solve_lp_relaxation", "relaxation.lp", None, _lp_error),
    ("relaxation", "linprog", "relaxation.linprog", None, None),
    ("relaxation", "round_and_repair", "relaxation.round", _iterations("relaxation.rounds"),
     None),
    ("experiments", "run_algorithm", "experiments.run_algorithm", None, None),
)

# Per-layer metrics in output order: (name, unit, how to compute it from
# the totals of one traced pass). ``cli`` is not measured: it is only
# reachable through a new process, whose start-up would swamp it.
_T, _S, _N, _C = "total", "self", "calls", "count"
LAYER_METRICS = (
    ("geodata.ingest_s", "s", (_T, "geodata.ingest")),
    ("geodata.friendships_s", "s", (_T, "geodata.friendships")),
    ("geodata.build_s", "s", (_T, "geodata.build")),
    ("geodata.checkin_lines", "count", (_C, "geodata.checkin_lines")),
    ("synth.generate_s", "s", (_T, "synth.generate")),
    ("instance.validate_s", "s", (_T, "instance.validate")),
    ("instance.validate_calls", "count", (_N, "instance.validate")),
    ("evaluator.init_s", "s", (_T, "evaluator.init")),
    ("evaluator.init_calls", "count", (_N, "evaluator.init")),
    ("evaluator.first_init_s", "s", (_C, "evaluator.first_init_s")),
    ("evaluator.add_gain_matrix_s", "s", (_T, "evaluator.add_gain_matrix")),
    ("evaluator.add_gain_matrix_calls", "count", (_N, "evaluator.add_gain_matrix")),
    ("evaluator.add_gain_row_s", "s", (_T, "evaluator.add_gain_row")),
    ("evaluator.add_gain_row_calls", "count", (_N, "evaluator.add_gain_row")),
    ("evaluator.neighborhood_gains_s", "s", (_T, "evaluator.neighborhood_gains")),
    ("evaluator.neighborhood_gains_calls", "count", (_N, "evaluator.neighborhood_gains")),
    ("evaluator.apply_s", "s", (_T, "evaluator.apply")),
    ("evaluator.apply_calls", "count", (_N, "evaluator.apply")),
    ("evaluator.candidates_scored", "count", (_C, "evaluator.candidates_scored")),
    ("heuristics.construction_s", "s", (_T, "heuristics.construction")),
    ("heuristics.construction_self_s", "s", (_S, "heuristics.construction")),
    ("heuristics.local_search_s", "s", (_T, "heuristics.local_search")),
    ("heuristics.local_search_self_s", "s", (_S, "heuristics.local_search")),
    ("heuristics.ls_moves", "count", (_C, "heuristics.ls_moves")),
    ("heuristics.ls_accept_ratio", "ratio", ("ratio", "heuristics.ls_moves",
                                              "heuristics.ls_entries")),
    ("heuristics.additions", "count", (_C, "heuristics.additions")),
    ("heuristics.restarts", "count", (_C, "heuristics.restarts")),
    ("heuristics.rand_plus_s", "s", (_T, "heuristics.rand_plus")),
    ("heuristics.finalize_s", "s", (_T, "heuristics.finalize")),
    ("objective.tradeoff_s", "s", (_T, "objective.tradeoff")),
    ("objective.tradeoff_calls", "count", (_N, "objective.tradeoff")),
    ("disclosure.vector_s", "s", (_T, "disclosure.vector")),
    ("disclosure.vector_calls", "count", (_N, "disclosure.vector")),
    ("exact.enumerate_s", "s", (_T, "exact.enumerate")),
    ("exact.enum_assignments", "count", (_C, "exact.enum_assignments")),
    ("exact.bnb_s", "s", (_T, "exact.bnb")),
    ("exact.bnb_nodes", "count", (_C, "exact.bnb_nodes")),
    ("exact.bnb_node_ratio", "ratio", ("ratio", "exact.bnb_nodes", "exact.enum_assignments")),
    ("relaxation.lp_s", "s", (_T, "relaxation.lp")),
    ("relaxation.linprog_s", "s", (_T, "relaxation.linprog")),
    ("relaxation.lp_build_s", "s", ("difference", "relaxation.lp", "relaxation.linprog")),
    ("relaxation.lp_calls", "count", (_N, "relaxation.lp")),
    ("relaxation.lp_infeasible", "count", (_C, "relaxation.lp_infeasible")),
    ("relaxation.round_s", "s", (_T, "relaxation.round")),
    ("relaxation.rounds", "count", (_C, "relaxation.rounds")),
    ("experiments.run_algorithm_s", "s", (_T, "experiments.run_algorithm")),
    ("experiments.cells", "count", (_N, "experiments.run_algorithm")),
)

# Deterministic work counts: equal on every pass over the same inputs.
DETERMINISTIC = tuple(name for name, unit, _ in LAYER_METRICS if unit == "count")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self.counts: Counter = Counter()
        self.depth: Counter = Counter()
        self.seen_instances: set[int] = set()
        self.keep_alive: list = []  # ids in seen_instances stay unique
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin_pass(self, run_id: int) -> None:
        """Start a new pass: spans get ``run_id`` and counters restart."""
        self.run_id = run_id
        self.counts = Counter()
        self.seen_instances.clear()
        self.keep_alive.clear()

    # -- patching ---------------------------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "privpart" or n.startswith("privpart."))]
        for mod_name, attr, name, on_result, on_error in TARGETS:
            owner = sys.modules[f"privpart.{mod_name}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(name, original, on_result, on_error))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, on_result, on_error)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name, fn, on_result, on_error):
        spans, stack, depth = self.spans, self._stack, self.depth

        def traced(*args, **kwargs):
            depth[name] += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, 0.0,
                   depth[name] == 1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[2] = perf_counter()
                if on_error is not None:
                    on_error(self, name, exc)
                raise
            else:
                rec[2] = perf_counter()
                if on_result is not None:
                    on_result(self, name, args, kwargs, result, rec[2] - rec[1])
                return result
            finally:
                stack.pop()
                depth[name] -= 1
                if rec[3] >= 0:
                    spans[rec[3]][5] += rec[2] - rec[1]

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- reporting ----------------------------------------------------------
    def pass_metrics(self, run_id: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass, read before the next
        ``begin_pass`` resets the counters."""
        counts = self.counts
        total: Counter = Counter()
        self_time: Counter = Counter()
        calls: Counter = Counter()
        for name, start, end, _parent, rid, child, outermost in self.spans:
            if rid != run_id:
                continue
            calls[name] += 1
            if outermost:
                total[name] += end - start
            self_time[name] += (end - start) - child
        out = {}
        for metric, _unit, (kind, *keys) in LAYER_METRICS:
            if kind == _T:
                value = total[keys[0]]
            elif kind == _S:
                value = self_time[keys[0]]
            elif kind == _N:
                value = calls[keys[0]]
            elif kind == _C:
                value = counts[keys[0]]
            elif kind == "difference":
                value = total[keys[0]] - total[keys[1]]
            else:
                value = counts[keys[0]] / counts[keys[1]] if counts[keys[1]] else 0.0
            out[metric] = value
        return out

    def write(self, path, header: dict) -> None:
        """Write every span as one JSON document (gzip)."""
        doc = {
            **header,
            "fields": ["name", "start", "end", "parent", "run_id", "child_time", "outermost"],
            "spans": self.spans,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
