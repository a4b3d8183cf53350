"""Synthetic instance generator for benchmark experiments.

Utility weights: one minimum utility value is drawn per instance from
U(0, 0.1); every (entry, adversary) pair then gets a draw from
U(0.8, 1) with probability p_u, otherwise the minimum; finally all
weights are scaled down by the adversary count. The dependency graph
inserts each (entry, property) edge independently with probability p_f;
a property whose column comes up empty is re-sampled a bounded number
of times. Per-property disclosure weights are uniform over members.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .instance import (
    DependencyHypergraph,
    DisclosureModel,
    Instance,
    InstanceError,
    SensitiveProperty,
    check_k_t,
    validate_instance,
)

MAX_PROPERTY_RETRIES = 100


@dataclass(frozen=True)
class SynthConfig:
    num_entries: int
    num_properties: int
    k: int
    t: int
    p_f: float = 0.3
    p_u: float = 0.4
    seed: int = 0

    def __post_init__(self):
        counts = (self.num_entries, self.num_properties, self.k, self.t, self.seed)
        if any(isinstance(v, bool) or not isinstance(v, Integral) for v in counts):
            raise InstanceError("num_entries, num_properties, k, t and seed must be integers")
        if self.seed < 0:
            raise InstanceError(f"seed must be non-negative, got {self.seed}")
        if any(isinstance(v, bool) or not isinstance(v, Real) for v in (self.p_f, self.p_u)):
            raise InstanceError("p_f and p_u must be numbers")
        if not (0.0 <= self.p_f <= 1.0 and 0.0 <= self.p_u <= 1.0):
            raise InstanceError("p_f and p_u must lie in [0, 1]")
        if self.num_entries < 1 or self.num_properties < 0:
            raise InstanceError("need at least one entry and a nonnegative property count")
        check_k_t(self.k, self.t)


def generate_instance(
    cfg: SynthConfig,
    model: DisclosureModel = DisclosureModel("linear", "average"),
    lam: float = 1.0,
    tau: float = 0.0,
) -> Instance:
    """Deterministic in the seed; the caller picks the disclosure model."""
    rng = np.random.default_rng(cfg.seed)
    num_d, k = cfg.num_entries, cfg.k

    u_min = rng.uniform(0.0, 0.1)  # drawn once per instance
    high = rng.random((num_d, k)) < cfg.p_u
    weights = np.where(high, rng.uniform(0.8, 1.0, size=(num_d, k)), u_min) / k

    props = []
    for pid in range(cfg.num_properties):
        members = None
        for _ in range(MAX_PROPERTY_RETRIES):
            mask = rng.random(num_d) < cfg.p_f
            if mask.any():
                members = tuple(int(d) for d in np.nonzero(mask)[0])
                break
        if members is None:
            raise InstanceError(
                f"p_f={cfg.p_f} too small for non-empty properties "
                f"(gave up after {MAX_PROPERTY_RETRIES} tries)"
            )
        w = 1.0 / len(members)
        props.append(SensitiveProperty(pid, members, tuple(w for _ in members)))

    inst = Instance(
        DependencyHypergraph(num_d, props),
        weights,
        k=k,
        t=cfg.t,
        lam=lam,
        tau=tau,
        model=model,
    )
    return validate_instance(inst)


def random_small_instance(seed: int, family: str | None = None) -> Instance:
    """Desk-scale random instance for oracle cross-checks: at most 6
    entries, 3 adversaries, cap 2, any disclosure family.

    Step instances are generated with lam = 1: that is the regime in
    which the zero-disclosure relaxation bounds the tradeoff optimum.
    """
    rng = np.random.default_rng(seed)
    if family is None:
        family = ("step", "linear", "quadratic", "cosine")[rng.integers(4)]
    num_d = int(rng.integers(2, 7))
    k = int(rng.integers(2, 4))
    t = int(rng.integers(1, min(2, k) + 1))
    aggregation = ("worst", "average")[rng.integers(2)]
    lam = 1.0 if family == "step" else float(rng.choice([0.5, 1.0]))
    tau = float(rng.choice([0.0, 0.3]))
    weights = rng.random((num_d, k))

    entries = None
    if family == "cosine":
        from .instance import DataEntry

        num_users = int(rng.integers(2, min(4, num_d) + 1))
        user_of = [u % num_users for u in range(num_d)]
        payloads = []
        for d in range(num_d):
            loc = f"L{d // num_users}"
            payloads.append((f"u{user_of[d]}", loc, int(rng.integers(1, 6))))
        entries = [DataEntry(d, payloads[d]) for d in range(num_d)]
        pairs = [(i, j) for i in range(num_users) for j in range(i + 1, num_users)]
        rng.shuffle(pairs)
        num_props = int(rng.integers(1, len(pairs) + 1))
        props = []
        for pid, (ui, uj) in enumerate(pairs[:num_props]):
            members = tuple(d for d in range(num_d) if user_of[d] in (ui, uj))
            props.append(SensitiveProperty(pid, members))
    else:
        num_props = int(rng.integers(0, 5))
        props = []
        for pid in range(num_props):
            size = int(rng.integers(1, num_d + 1))
            members = tuple(sorted(int(x) for x in rng.choice(num_d, size=size, replace=False)))
            raw = rng.random(len(members)) + 0.1
            w = tuple(float(x) for x in raw / raw.sum())
            props.append(SensitiveProperty(pid, members, w))

    inst = Instance(
        DependencyHypergraph(num_d, props),
        weights,
        k=k,
        t=t,
        lam=lam,
        tau=tau,
        model=DisclosureModel(family, aggregation),
        entries=entries,
    )
    return validate_instance(inst)
