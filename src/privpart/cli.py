"""Command-line front end.

Verbs:
  gen     -- write a synthetic instance as JSON
  ingest  -- build an instance from check-in and friendship files
  solve   -- run one algorithm on one instance
  bench   -- run a full experiment config (results.csv + summary.json)
  verify  -- oracle cross-checks on random small instances

Exit codes: 0 success, 1 failure, 2 infeasible, 3 size guard.
"""

from __future__ import annotations

import argparse
import json
import sys

from .exact import InfeasibleError, SizeGuardError, enumerate_optimum, solve_exact
from .experiments import (
    ALGORITHMS,
    ExperimentConfig,
    check_overrides,
    count_fully_disclosed,
    run_algorithm,
    run_experiment,
)
from .geodata import (
    GeodataError,
    build_location_instance,
    ingest_checkins,
    read_friendships,
    read_lines,
)
from .heuristics import SearchParams, solve
from .instance import DisclosureModel, InstanceError, load_instance, read_text, save_instance
from .relaxation import LP_FAMILIES, LpInfeasibleError, solve_lp_relaxation
from .synth import SynthConfig, generate_instance, random_small_instance

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INFEASIBLE = 2
EXIT_SIZE_GUARD = 3


def _add_gen(sub):
    p = sub.add_parser("gen", help="generate a synthetic instance")
    p.add_argument("--entries", type=int, required=True)
    p.add_argument("--properties", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--pf", type=float, default=0.3)
    p.add_argument("--pu", type=float, default=0.4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--family", default="linear")
    p.add_argument("--aggregation", default="average")
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("-o", "--output", required=True)


def _add_ingest(sub):
    p = sub.add_parser("ingest", help="build an instance from check-in data")
    p.add_argument("--checkins", required=True)
    p.add_argument("--friends", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--max-users", type=int, default=None)
    p.add_argument("--max-edges", type=int, default=None)
    p.add_argument("-o", "--output", required=True)


def _add_solve(sub):
    p = sub.add_parser("solve", help="run one algorithm on one instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("-o", "--output", default=None)


def _add_bench(sub):
    p = sub.add_parser("bench", help="run an experiment config")
    p.add_argument("--config", required=True)


def _add_verify(sub):
    p = sub.add_parser("verify", help="oracle cross-checks on random instances")
    p.add_argument("--count", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)


def _cmd_gen(args) -> int:
    cfg = SynthConfig(
        num_entries=args.entries, num_properties=args.properties,
        k=args.k, t=args.t, p_f=args.pf, p_u=args.pu, seed=args.seed,
    )
    inst = generate_instance(
        cfg, model=DisclosureModel(args.family, args.aggregation), lam=args.lam, tau=args.tau
    )
    save_instance(inst, args.output)
    print(f"wrote instance |D|={inst.num_entries} |P|={inst.num_properties} "
          f"k={inst.k} t={inst.t} -> {args.output}")
    return EXIT_OK


def _cmd_ingest(args) -> int:
    ingest = read_lines(args.checkins, ingest_checkins)
    friends = read_lines(args.friends, read_friendships)
    inst = build_location_instance(
        ingest.entries, friends, k=args.k, t=args.t, seed=args.seed,
        lam=args.lam, tau=args.tau, max_users=args.max_users, max_edges=args.max_edges,
    )
    save_instance(inst, args.output)
    print(f"aggregated {len(ingest.entries)} entries "
          f"({ingest.skipped_lines} lines skipped), "
          f"|P|={inst.num_properties} -> {args.output}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    overrides = {key: getattr(args, key) for key in ("n", "r", "restarts")
                 if getattr(args, key) is not None}
    check_overrides(args.algorithm, overrides)
    inst = load_instance(args.instance)
    result = run_algorithm(args.algorithm, inst, args.seed, overrides)
    obj = result.objective
    print(f"{args.algorithm}: objective={obj.value:.6f} utility={obj.utility:.6f} "
          f"disclosure={obj.disclosure:.6f} fully_disclosed={count_fully_disclosed(result)} "
          f"wall={result.wall_time * 1000:.1f}ms")
    if args.output:
        doc = {
            "algorithm": args.algorithm,
            "seed": args.seed,
            "objective": obj.value,
            "utility": obj.utility,
            "disclosure": obj.disclosure,
            "unassigned": obj.unassigned_count,
            "fully_disclosed": count_fully_disclosed(result),
            "per_property_disclosure": result.per_property_disclosure.tolist(),
            "assignment": result.assignment.bits.astype(int).tolist(),
        }
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return EXIT_OK


def _cmd_bench(args) -> int:
    cfg = ExperimentConfig.from_json(read_text(args.config))
    out = run_experiment(cfg)
    print(f"wrote {out['results_csv']} ({len(out['rows'])} rows) and {out['summary_json']}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.count < 1:
        raise InstanceError(f"--count must be at least 1, not {args.count}")
    failures = 0
    lp_checked = 0
    for i in range(args.count):
        inst = random_small_instance(args.seed + i)
        label = (f"[{i}] |D|={inst.num_entries} k={inst.k} t={inst.t} "
                 f"{inst.model.family}/{inst.model.aggregation}")
        try:
            reference = enumerate_optimum(inst)
            bnb = solve_exact(inst)
            ok = abs(reference.objective.value - bnb.objective.value) <= 1e-12
            heur = solve(inst, SearchParams("greedy", "global", seed=args.seed + i))
            ok_h = heur.objective.value <= bnb.objective.value + 1e-9
            ok_lp = True
            if inst.model.family in LP_FAMILIES:
                try:
                    frac = solve_lp_relaxation(inst)
                    ok_lp = frac.lp_objective >= bnb.objective.value - 1e-9
                    lp_checked += 1
                except LpInfeasibleError:
                    pass
            status = ok and ok_h and ok_lp
        except (InstanceError, GeodataError) as exc:
            print(f"FAIL {label}: {exc}")
            failures += 1
            continue
        if status:
            print(f"ok   {label}")
        else:
            print(f"FAIL {label}: enum/bnb={ok} heuristic<=exact={ok_h} lp_bound={ok_lp}")
            failures += 1
    print(f"{args.count - failures}/{args.count} checks passed ({lp_checked} LP bounds)")
    return EXIT_OK if failures == 0 else EXIT_FAIL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="privpart",
        description="Privacy-aware partitioning of sensitive data across "
                    "non-colluding recipients",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_gen(sub)
    _add_ingest(sub)
    _add_solve(sub)
    _add_bench(sub)
    _add_verify(sub)
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "ingest": _cmd_ingest,
        "solve": _cmd_solve,
        "bench": _cmd_bench,
        "verify": _cmd_verify,
    }
    try:
        if getattr(args, "seed", 0) < 0:  # numpy seeds are non-negative
            raise InstanceError(f"--seed must be non-negative, not {args.seed}")
        return handlers[args.command](args)
    except (InfeasibleError, LpInfeasibleError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_SIZE_GUARD
    except (InstanceError, GeodataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
