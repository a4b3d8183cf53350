"""Benchmark command for privpart.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ``src/``;
nothing is installed or built.

One process, one caller, no threads: a closed loop in which every solver
call waits for the previous one. A run repeats *passes* until ``--seconds``
have elapsed (a pass that has started is finished). A pass sets the
workload up ``SETUP_REPEATS`` times from the seed's inputs, then makes
every solver call of the workload on the last instance(s) built, then
checks every result.

Every pass is bracketed by runs of ``speed_probe()``, and every time the
benchmark reports is in seconds at reference speed (see there); raw
wall times are printed and recorded beside them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, including
the tracing overhead, from the traced ones. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Earlier lines print every metric by name with its unit, the
run metadata and the SHA-256 digest of the workload's assignments.

``attempted`` counts solver calls plus cross-pass checks; ``failed``
counts calls that raised or failed a check, plus failed cross-pass
checks. Their ratio is ``fail_ratio``. It is printed but is not a gated
metric: it is 0 when the program is correct, and a bound relative to 0
means nothing; ``correct`` gates it instead.

The ``cli`` module is not measured: it is only reachable through a new
process, whose start-up would swamp it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 3
# Duration of one ``speed_probe()`` at the reference speed. Times are
# reported in seconds at that speed (see ``speed_probe``).
PROBE_NOMINAL_S = 0.015
PROBES_PER_POINT = 2
PROBE_EVERY_S = 0.5

sys.dont_write_bytecode = True  # leave no caches in the checkout's src/


def _import_package():
    src = ROOT / "src"
    if not (src / "privpart" / "__init__.py").is_file():
        raise ImportError(f"no privpart package under {src}")
    sys.path.insert(0, str(src))
    import privpart  # noqa: F401  (binds every privpart module in sys.modules)


def git_sha() -> str | None:
    """HEAD's commit id, read from .git without starting a process;
    None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata() -> dict:
    import numpy
    import scipy

    src_files = sorted((ROOT / "src").rglob("*.py"))
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": sum(len(f.read_text().splitlines()) for f in src_files),
        "PRIVPART_WORKERS": os.environ.get("PRIVPART_WORKERS", "unset"),
        # The benchmark calls run_algorithm / solve directly, never
        # run_experiment, so its thread pool never runs here.
        "run_experiment_pool": "bypassed",
        "loop": "closed, 1 caller, no threads",
    }


def speed_probe() -> float:
    """Wall time of a fixed piece of work that does not touch privpart:
    interpreter arithmetic and dict stores, then small numpy calls, the
    two costs privpart's hot loops are made of.

    The machine this benchmark was tuned on changes speed by 25% to 2x
    for seconds to minutes at a time (other tenants on shared cores):
    over ten minutes of back-to-back identical passes, the median pass
    time of 10 s to 100 s windows spread by 21% of its median whatever
    the window length, so no run length averages it out. Probes are
    therefore taken between timed segments (set-ups and cells), at most
    ``PROBE_EVERY_S`` apart, and each segment's wall time is divided by
    ``mean(probe before, probe after) / PROBE_NOMINAL_S``: every time the
    benchmark reports is in seconds at reference speed. Raw wall times
    are printed and recorded beside them.
    """
    t0 = perf_counter()
    acc, seen = 0, {}
    for i in range(60000):
        acc += i * i
        seen[i & 255] = acc
    a = np.linspace(0.0, 1.0, 2500).reshape(500, 5)
    total = 0.0
    for i in range(600):
        g = a + i * 1e-6
        total += g.flat[int(np.argmax(g))]
        a[i % 500] = g[(i * 7) % 500]
    return perf_counter() - t0


class Pass:
    """Everything one pass measured. Timed segments are stored as
    (raw wall seconds, index of the probe point taken just before)."""

    def __init__(self, index: int, traced: bool):
        self.index = index
        self.traced = traced
        self.probes: list[float] = []  # probe points, in order
        self.setups: list[tuple[float, int]] = []
        self.cell_times: list[tuple[float, int]] = []
        self.cells: list[list] = []  # the Ops of each cell
        self.layers: dict[str, float] = {}
        self._last_probe = 0.0

    def probe(self, force: bool = False) -> None:
        if force or perf_counter() - self._last_probe >= PROBE_EVERY_S:
            self.probes.append(statistics.fmean(
                speed_probe() for _ in range(PROBES_PER_POINT)))
            self._last_probe = perf_counter()

    def _normalized(self, segments) -> list[float]:
        return [raw * 2.0 * PROBE_NOMINAL_S / (self.probes[b] + self.probes[b + 1])
                for raw, b in segments]

    @property
    def setup_s(self) -> list[float]:
        return self._normalized(self.setups)

    @property
    def cell_s(self) -> list[float]:
        return self._normalized(self.cell_times)

    @property
    def solve_s(self) -> float:
        return sum(self.cell_s)

    @property
    def raw_solve_s(self) -> float:
        return sum(raw for raw, _ in self.cell_times)

    @property
    def speed(self) -> float:
        """How much slower than reference speed the machine ran this pass."""
        return statistics.fmean(self.probes) / PROBE_NOMINAL_S

    @property
    def ops(self) -> list:
        return [op for ops in self.cells for op in ops]

    @property
    def digests(self) -> list[str | None]:
        return [op.digest for op in self.ops]


def run_pass(wl, inputs, seed: int, index: int, tracer=None) -> Pass:
    from workloads import Op, check_result

    p = Pass(index, tracer is not None)
    p.probe(force=True)
    if tracer is not None:
        tracer.begin_pass(index)
        tracer.install()
    try:
        for _ in range(SETUP_REPEATS):
            p.probe()
            t0 = perf_counter()
            state = wl.setup(inputs)
            p.setups.append((perf_counter() - t0, len(p.probes) - 1))
        for cell in wl.cells(state, seed):
            p.probe()
            ops = []
            t0 = perf_counter()
            for label, inst, call in cell:
                op = Op(label, inst)
                try:
                    op.result = call()
                except Exception as exc:  # counted in `failed`, the run goes on
                    op.error = f"{type(exc).__name__}: {exc}"
                ops.append(op)
            p.cell_times.append((perf_counter() - t0, len(p.probes) - 1))
            p.cells.append(ops)
    finally:
        if tracer is not None:
            tracer.uninstall()
    p.probe(force=True)
    if tracer is not None:
        p.layers = tracer.pass_metrics(index)
    for ops in p.cells:
        for op in ops:
            if op.error is None:
                check_result(op)
        if wl.check_cell is not None:
            wl.check_cell(ops)
        for op in ops:
            op.freeze()
    return p


def _quantile(values, q):
    """Inclusive-method quantile: q in (0, 1)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(passes) -> dict[str, tuple[float, str]]:
    """Times are in seconds at reference speed (see ``speed_probe``)."""
    reported = [op.reported for op in passes[0].ops if op.reported is not None]
    cells = [c for p in passes for c in p.cell_s]
    return {
        "setup_s": (statistics.median(s for p in passes for s in p.setup_s), "s"),
        "solve_s": (statistics.median(p.solve_s for p in passes), "s"),
        "cell_ms_p50": (1000.0 * statistics.median(cells), "ms"),
        "cell_ms_p95": (1000.0 * _quantile(cells, 0.95), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "objective_mean": (statistics.fmean(value for value, _ in reported), "score"),
        "disclosure_max": (max(disclosure for _, disclosure in reported), "fraction"),
    }


def per_layer(passes) -> dict[str, tuple[float, str]]:
    """Medians over the traced passes; span times are divided by the
    pass's mean speed factor, so they too are at reference speed."""
    from spans import LAYER_METRICS

    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    out = {}
    for name, unit, _ in LAYER_METRICS:
        out[name] = (statistics.median(
            p.layers[name] / p.speed if unit == "s" else p.layers[name] for p in traced), unit)
    overhead = (statistics.median(p.solve_s for p in traced)
                - statistics.median(p.solve_s for p in untraced))
    out["trace.overhead_s"] = (overhead, "s")
    return out


def cross_pass_checks(passes) -> tuple[int, list[str]]:
    """Every pass must reproduce the first pass's assignments bit for
    bit (traced passes included: the wrappers change nothing), and every
    traced pass the first traced pass's work counts. Returns the number
    of checks made and the failures."""
    from spans import DETERMINISTIC

    traced = [p for p in passes if p.traced]
    failures = []
    for p in passes[1:]:
        if p.digests != passes[0].digests:
            failures.append(f"pass {p.index} ({'traced' if p.traced else 'untraced'}) "
                            f"assignments differ from pass 0")
    for p in traced[1:]:
        changed = [n for n in DETERMINISTIC if p.layers[n] != traced[0].layers[n]]
        if changed:
            failures.append(f"pass {p.index} work counts differ: {', '.join(changed)}")
    return len(passes) - 1 + max(0, len(traced) - 1), failures


def combined_digest(p: Pass) -> str:
    return hashlib.sha256("\n".join(d or "-" for d in p.digests).encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        _import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import privpart from src/: {exc}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    meta = metadata()
    inputs = wl.make_inputs(args.seed)  # input generation is not timed
    tracer = Tracer() if args.trace else None

    started = perf_counter()
    passes: list[Pass] = []
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()
        t0 = perf_counter()
        passes.append(run_pass(wl, inputs, args.seed, len(passes),
                               tracer if traced else None))
        took = perf_counter() - t0
        # Start no pass that would end past the deadline, once the
        # minimum (one untraced pass, plus one traced pass if tracing)
        # has run: the run lasts about --seconds whatever the pass length.
        if len(passes) >= (2 if tracer is not None else 1) and \
                perf_counter() - started + took > args.seconds:
            break

    pass_checks, pass_failures = cross_pass_checks(passes)
    ops = [op for p in passes for op in p.ops]
    failed_ops = [op for op in ops if op.error or op.failures]
    attempted = len(ops) + pass_checks
    failed = len(failed_ops) + len(pass_failures)

    metrics = per_layer(passes) if tracer is not None else end_to_end(passes)
    record = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "meta": meta,
        "probe_nominal_s": PROBE_NOMINAL_S,
        "note": "setups and cells are [raw wall seconds, index of the probe before]",
        "passes": [{"index": p.index, "traced": p.traced, "speed": p.speed,
                    "probes_s": p.probes, "setups": p.setups, "cells": p.cell_times,
                    "solve_s": p.solve_s, "raw_solve_s": p.raw_solve_s,
                    "digest": combined_digest(p)} for p in passes],
        "digests": passes[0].digests,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "failures": pass_failures + [f"{op.label}: {op.error or '; '.join(op.failures)}"
                                     for op in failed_ops],
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}.trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{wl.name}.spans.json.gz",
                     {"workload": wl.name, "seed": args.seed, "meta": meta})

    print(f"workload {wl.name} seed={args.seed} passes={len(passes)} "
          f"traced={sum(p.traced for p in passes)} ({meta['loop']})")
    print("meta " + " ".join(f"{k}={v}" for k, v in meta.items()))
    print(f"digest {combined_digest(passes[0])} ({len(ops) // len(passes)} calls per pass)")
    if tracer is None:
        print(f"samples cell_ms: {sum(len(p.cell_times) for p in passes)} cells "
              f"({len(passes[0].cell_times)} per pass)")
    print("speed " + " ".join(f"{p.speed:.4f}" for p in passes)
          + f" (mean probe / {PROBE_NOMINAL_S} s, per pass)")
    print(f"raw wall: setup_s {statistics.median(raw for p in passes for raw, _ in p.setups)!r}"
          f" s, solve_s {statistics.median(p.raw_solve_s for p in passes)!r} s (all passes)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(f"metric fail_ratio {failed / attempted!r} ratio ({failed}/{attempted})")
    for line in record["failures"][:20]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
