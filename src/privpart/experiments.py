"""Experiment harness: run a set of algorithms over seeds (and optionally
a sweep over adversary counts), then emit a deterministic results.csv
plus a summary.json with per-cell means and standard errors.

results.csv carries only reproducible columns, so re-running an
identical configuration yields a byte-identical file; wall-clock
statistics live in summary.json.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product
from numbers import Integral
from pathlib import Path

import numpy as np

from .exact import _check_formulation, solve_exact
from .geodata import build_location_instance, ingest_checkins, read_friendships, read_lines
from .heuristics import SearchParams, SolveResult, rand_plus, solve
from .instance import (
    DisclosureModel,
    Instance,
    InstanceError,
    _json_float,
    _json_int,
    load_instance,
)
from .relaxation import check_lp_family, round_and_repair, solve_lp_relaxation
from .synth import SynthConfig, generate_instance

# The algorithms, each with the keys a config's params may override for it
# (see run_algorithm).
OVERRIDES = {"rand+": ("restarts",), "lp": ("restarts",), "ilp": ("formulation",),
             "greedy": ("r",), "greedyl": ("r",), "grasp": ("n", "r"), "graspl": ("n", "r")}
ALGORITHMS = tuple(OVERRIDES)

FULL_DISCLOSURE_THRESHOLD = 1.0 - 1e-9

CSV_COLUMNS = (
    "algorithm", "seed", "k", "t", "num_entries", "num_properties",
    "utility", "disclosure", "objective", "fully_disclosed",
)


@dataclass
class ExperimentConfig:
    source: dict
    algorithms: list[str]
    seeds: list[int]
    output_dir: str
    params: dict = field(default_factory=dict)
    k_values: list[int] | None = None

    def __post_init__(self):
        if not self.algorithms:
            raise InstanceError("config needs at least one algorithm")
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise InstanceError(f"unknown algorithm {name!r}")
        if not self.seeds:
            raise InstanceError("config needs at least one seed")
        if self.k_values is not None and not self.k_values:
            raise InstanceError("config k_values needs at least one value")
        if any(isinstance(v, bool) or not isinstance(v, Integral)
               for v in [*self.seeds, *(self.k_values or [])]):
            raise InstanceError("seeds and k_values must be integers")
        if any(v < 0 for v in self.seeds):
            raise InstanceError(f"seeds must be non-negative, got {self.seeds}")
        for name, values in (("algorithms", self.algorithms), ("seeds", self.seeds),
                             ("k_values", self.k_values or [])):
            if len(set(values)) != len(values):
                raise InstanceError(f"config {name} repeat a value: {values}")
        if not isinstance(self.params, dict) or not all(
                isinstance(v, dict) for v in self.params.values()):
            raise InstanceError("params must map algorithm names to objects of overrides")
        for name, overrides in self.params.items():
            if name not in OVERRIDES:
                raise InstanceError(f"params names unknown algorithm {name!r}")
            check_overrides(name, overrides)
        kind = _source_kind(self.source)
        if kind == "geodata" and _json_int(
                self.source["geodata"].get("seed", 0), "geodata seed") < 0:
            raise InstanceError("geodata seed must be non-negative")
        if kind == "file" and self.k_values is not None:
            raise InstanceError("k_values sweep requires a synth or geodata source")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"not a valid config document: {exc}") from exc
        if not isinstance(doc, dict):
            raise InstanceError("config must be a JSON object")
        missing = [key for key in ("source", "algorithms", "seeds", "output_dir") if key not in doc]
        if missing:
            raise InstanceError(f"config is missing {', '.join(missing)}")
        if not (isinstance(doc["algorithms"], list) and isinstance(doc["seeds"], list)
                and isinstance(doc.get("k_values", []), (list, type(None)))):
            raise InstanceError("config algorithms, seeds and k_values must be lists")
        if not isinstance(doc["output_dir"], str):
            raise InstanceError("config output_dir must be a path")
        return cls(
            source=doc["source"],
            algorithms=list(doc["algorithms"]),
            seeds=list(doc["seeds"]),
            output_dir=doc["output_dir"],
            params=doc.get("params", {}),
            k_values=doc.get("k_values"),
        )


def check_overrides(name: str, overrides: dict) -> None:
    """Reject an override that algorithm ``name`` does not take, a count
    that is not a positive integer and an unknown ilp formulation."""
    for key, value in overrides.items():
        if key not in OVERRIDES[name]:
            raise InstanceError(f"{name} takes no override {key!r}, "
                                f"only {', '.join(OVERRIDES[name])}")
        if key == "formulation":
            _check_formulation(value)
        elif _json_int(value, f"{name} override {key}") < 1:
            raise InstanceError(f"{name} override {key} must be >= 1, got {value}")


def _source_kind(source: dict) -> str:
    if not isinstance(source, dict):
        raise InstanceError("source must be an object")
    kinds = [k for k in ("file", "synth", "geodata") if k in source]
    if len(kinds) != 1:
        raise InstanceError("source must contain exactly one of file|synth|geodata")
    kind = kinds[0]
    if not isinstance(source[kind], str if kind == "file" else dict):
        raise InstanceError(f"source {kind} must be {'a path' if kind == 'file' else 'an object'}")
    if kind == "geodata" and not all(
            isinstance(source[kind].get(path), str) for path in ("checkins", "friends")):
        raise InstanceError("geodata source needs checkins and friends paths")
    return kind


def _materialize(source: dict, k: int | None) -> Instance:
    kind = _source_kind(source)
    if kind == "file":
        return load_instance(source["file"])
    if kind == "synth":
        spec = dict(source["synth"])
        model = DisclosureModel(spec.pop("family", "linear"), spec.pop("aggregation", "average"))
        lam = _json_float(spec.pop("lambda", 1.0), "synth lambda")
        tau = _json_float(spec.pop("tau_I", 0.0), "synth tau_I")
        if k is not None:
            spec["k"] = k
        try:
            cfg = SynthConfig(**spec)
        except TypeError as exc:  # an unknown or missing key
            raise InstanceError(f"bad synth source: {exc}") from exc
        return generate_instance(cfg, model=model, lam=lam, tau=tau)
    spec = source["geodata"]

    def field(key, default, read=_json_int):
        return read(spec.get(key, default), f"geodata {key}")

    # Checked before any file is read; the caps may be null (no cap).
    params = dict(
        k=k if k is not None else field("k", 2),
        t=field("t", 1),
        seed=field("seed", 0),
        lam=field("lambda", 1.0, _json_float),
        tau=field("tau_I", 0.0, _json_float),
        max_users=None if spec.get("max_users") is None else field("max_users", None),
        max_edges=None if spec.get("max_edges") is None else field("max_edges", None),
    )
    ingest = read_lines(spec["checkins"], ingest_checkins)
    friends = read_lines(spec["friends"], read_friendships)
    return build_location_instance(ingest.entries, friends, **params)


def run_algorithm(name: str, instance: Instance, seed: int, overrides: dict | None = None) -> SolveResult:
    """Dispatch one benchmark cell with the conventional defaults:
    greedy variants run once, randomized variants repeat (r=10 for the
    searches, 100 restarts for the sampling baselines)."""
    o = dict(overrides or {})
    if name == "rand+":
        return rand_plus(instance, runs=o.get("restarts", 100), seed=seed)
    if name == "lp":
        return _round_lp(instance, solve_lp_relaxation(instance), seed, o)
    if name == "ilp":
        return solve_exact(instance, formulation=o.get("formulation", "tradeoff"))
    if name == "greedy":
        params = SearchParams("greedy", "global", r=o.get("r", 1), seed=seed)
    elif name == "grasp":
        params = SearchParams("grasp", "global", n=o.get("n", 5), r=o.get("r", 10), seed=seed)
    elif name == "greedyl":
        params = SearchParams("greedy", "myopic", r=o.get("r", 1), seed=seed)
    else:
        params = SearchParams(
            "grasp", "myopic", n=o.get("n", min(instance.k, 3)), r=o.get("r", 10), seed=seed
        )
    return solve(instance, params)


def _round_lp(instance: Instance, frac, seed: int, overrides: dict | None) -> SolveResult:
    """An ``lp`` cell from its instance's relaxation ``frac``."""
    return round_and_repair(instance, frac, runs=(overrides or {}).get("restarts", 100), seed=seed)


def count_fully_disclosed(result: SolveResult) -> int:
    """Properties whose max-over-adversaries disclosure reaches 1."""
    return int(np.count_nonzero(result.per_property_disclosure >= FULL_DISCLOSURE_THRESHOLD))


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute every (algorithm, k, seed) cell and write the report files.
    Returns {"rows": ..., "results_csv": path, "summary_json": path}.
    Every instance is built and every cell's family checked before
    ``output_dir`` is made, so a bad config leaves no directory. The LP
    relaxation of an instance is solved once and rounded for every seed
    (an ``lp`` cell's wall time leaves the solve out)."""
    ks = cfg.k_values if cfg.k_values is not None else [None]
    instances = {k: _materialize(cfg.source, k) for k in ks}
    if "lp" in cfg.algorithms:
        for inst in instances.values():
            check_lp_family(inst)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    walls = {}
    relaxations = {}
    for alg, k, seed in product(cfg.algorithms, ks, cfg.seeds):
        inst = instances[k]
        if alg == "lp":
            if k not in relaxations:
                relaxations[k] = solve_lp_relaxation(inst)
            result = _round_lp(inst, relaxations[k], seed, cfg.params.get(alg))
        else:
            result = run_algorithm(alg, inst, seed, cfg.params.get(alg))
        rows.append({
            "algorithm": alg,
            "seed": seed,
            "k": inst.k,
            "t": inst.t,
            "num_entries": inst.num_entries,
            "num_properties": inst.num_properties,
            "utility": result.objective.utility,
            "disclosure": result.objective.disclosure,
            "objective": result.objective.value,
            "fully_disclosed": count_fully_disclosed(result),
        })
        walls.setdefault((alg, inst.k), []).append(result.wall_time * 1000.0)
    rows.sort(key=lambda r: (r["algorithm"], r["k"], r["seed"]))

    results_csv = out_dir / "results.csv"
    with open(results_csv, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in rows:
            fh.write(",".join(_format_cell(r[c]) for c in CSV_COLUMNS) + "\n")

    summary = {}
    for (alg, k), wall in sorted(walls.items()):
        cell_rows = [r for r in rows if r["algorithm"] == alg and r["k"] == k]
        entry = {"cells": len(cell_rows), "wall_ms_mean": float(np.mean(wall))}
        for metric in ("utility", "disclosure", "objective"):
            vals = np.array([r[metric] for r in cell_rows])
            entry[f"{metric}_mean"] = float(vals.mean())
            entry[f"{metric}_stderr"] = (
                float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
            )
        summary[f"{alg},k={k}"] = entry
    summary_json = out_dir / "summary.json"
    with open(summary_json, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")

    return {"rows": rows, "results_csv": str(results_csv), "summary_json": str(summary_json)}


def _format_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)
