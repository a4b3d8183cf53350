"""privpart: privacy-aware partitioning of sensitive data across
multiple non-colluding recipients.

A dataset of entries must each be handed to between 1 and t of k
untrusted parties. Facts worth protecting (sensitive properties) are
inferable only when enough of their member entries land with the same
party; the dependency structure forms a hypergraph over the entries.
The package maximizes a utility/disclosure tradeoff over that structure:

* ``instance``    -- data model, validation, serialization
* ``disclosure``  -- step / linear / quadratic / cosine families, one batched scorer
* ``objective``   -- penalized tradeoff with top-t normalized utility
* ``heuristics``  -- greedy / randomized construction + local search
* ``exact``       -- exhaustive oracle and branch-and-bound
* ``relaxation``  -- LP relaxation and randomized rounding
* ``synth``       -- seeded synthetic instance generator
* ``geodata``     -- check-in ingestion and cosine instances
* ``experiments`` -- seeded benchmark harness with CSV/JSON reports
"""

from .disclosure import (
    aggregate_disclosure,
    batch_disclosure,
    disclosure_vector,
    per_property_disclosure,
)
from .evaluator import IncrementalEvaluator
from .exact import InfeasibleError, SizeGuardError, enumerate_optimum, solve_exact
from .experiments import (
    ExperimentConfig,
    count_fully_disclosed,
    run_algorithm,
    run_experiment,
)
from .geodata import (
    AggregatedEntry,
    GeodataError,
    IngestResult,
    build_location_instance,
    ingest_checkins,
    read_friendships,
    synthetic_checkin_lines,
)
from .heuristics import (
    SearchParams,
    SolveResult,
    construction,
    local_search,
    rand_plus,
    solve,
)
from .instance import (
    Assignment,
    DataEntry,
    DependencyHypergraph,
    DisclosureModel,
    Instance,
    InstanceError,
    Move,
    MoveError,
    SensitiveProperty,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
    validate_instance,
)
from .objective import ObjectiveValue, tradeoff_objective
from .relaxation import (
    FractionalSolution,
    LpInfeasibleError,
    round_and_repair,
    rounding_mean_objective,
    solve_lp_relaxation,
)
from .synth import SynthConfig, generate_instance, random_small_instance

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
