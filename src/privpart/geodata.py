"""Location check-in ingestion and instance construction.

The pipeline mirrors a location-sharing scenario: a check-in log (user,
timestamp, [lat, lon,] location) plus a friendship graph. Check-ins are
aggregated to unique (user, location) pairs with visit counts; each
friendship link becomes a sensitive property whose members are all
entries of either endpoint, scored with the cosine disclosure family.
Utility weights simulate region-focused recipients: location ids are
partitioned at random across adversaries and an entry is worth
U(0.8, 1) to the adversary owning its region, 0.1 to the rest.

``synthetic_checkin_lines`` fabricates a log with the same texture
(shared high-count meeting spots between friends, private filler
locations) for experiments that cannot ship the real data.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .instance import (
    DataEntry,
    DependencyHypergraph,
    DisclosureModel,
    Instance,
    SensitiveProperty,
    validate_instance,
)

log = logging.getLogger(__name__)


class GeodataError(ValueError):
    """Raised on unusable check-in or friendship inputs."""


@dataclass(frozen=True)
class AggregatedEntry:
    user_id: str
    location_id: str
    count: int


@dataclass
class IngestResult:
    entries: list[AggregatedEntry]
    skipped_lines: int
    total_lines: int


def _parse_line(line: str) -> tuple[str, str] | None:
    """The ``(user, location)`` key of a check-in line (tab-separated if
    it holds a tab, else comma-separated), or None when it is malformed."""
    fields = [f.strip() for f in line.rstrip("\n").split("\t" if "\t" in line else ",")]
    if len(fields) < 3:
        return None
    user, loc = fields[0], fields[-1]
    if not user or not loc:
        return None
    return user, loc


def ingest_checkins(lines: Iterable[str]) -> IngestResult:
    """Aggregate a check-in stream to unique (user, location) pairs in
    first-appearance order; malformed lines are counted and skipped."""
    counts: dict[tuple[str, str], int] = {}
    skipped = 0
    total = 0
    for line in lines:
        if not line.strip():
            continue
        total += 1
        key = _parse_line(line)
        if key is None:
            skipped += 1
            continue
        counts[key] = counts.get(key, 0) + 1
    if total - skipped == 0:
        raise GeodataError("no valid check-in lines in input")
    entries = [AggregatedEntry(u, loc, c) for (u, loc), c in counts.items()]
    return IngestResult(entries=entries, skipped_lines=skipped, total_lines=total)


def read_lines(path, parse):
    """``parse`` applied to the lines of a UTF-8 text file; a file that is
    not UTF-8 is a ``GeodataError`` naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(fh)
        except UnicodeDecodeError as exc:
            raise GeodataError(f"{path} is not UTF-8 text: {exc.reason}") from exc


def read_friendships(lines: Iterable[str]) -> list[tuple[str, str]]:
    """Parse an edge list: two whitespace- or comma-separated user ids
    per line. Lines with one id and self-loops are skipped with a
    warning."""
    edges = []
    skipped = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        if len(parts) >= 2 and parts[0] != parts[1]:
            edges.append((parts[0], parts[1]))
        else:
            skipped += 1
    if skipped:
        log.warning("skipped %d friendship lines without two distinct user ids", skipped)
    return edges


def build_location_instance(
    entries: Sequence[AggregatedEntry],
    friendships: Iterable[tuple[str, str]],
    k: int,
    t: int,
    seed: int = 0,
    lam: float = 1.0,
    tau: float = 0.0,
    max_users: int | None = None,
    max_edges: int | None = None,
) -> Instance:
    """Build a cosine-disclosure instance from aggregated check-ins and a
    friendship edge list. Friendships whose endpoints have no check-ins
    are dropped with a warning; optional caps subsample users and edges
    deterministically in the seed."""
    rng = np.random.default_rng(seed)
    entries = list(entries)

    if max_users is not None:
        keep = set()
        for e in entries:
            keep.add(e.user_id)
        ordered = sorted(keep)
        if len(ordered) > max_users:
            chosen = set(
                ordered[i] for i in rng.choice(len(ordered), size=max_users, replace=False)
            )
            entries = [e for e in entries if e.user_id in chosen]

    users = {e.user_id for e in entries}
    edges = sorted({tuple(sorted(edge)) for edge in friendships})
    surviving = [e for e in edges if e[0] in users and e[1] in users]
    dropped = len(edges) - len(surviving)
    if dropped:
        log.warning("dropped %d friendship edges with missing endpoints", dropped)
    if max_edges is not None and len(surviving) > max_edges:
        idx = np.sort(rng.choice(len(surviving), size=max_edges, replace=False))
        surviving = [surviving[i] for i in idx]
    if not surviving:
        raise GeodataError("no friendship edge survives filtering")

    entries_of: dict[str, list[int]] = {}
    for i, e in enumerate(entries):
        entries_of.setdefault(e.user_id, []).append(i)

    props = [
        SensitiveProperty(pid, tuple(sorted(entries_of[u] + entries_of[v])))
        for pid, (u, v) in enumerate(surviving)
    ]

    # Region-focused utility: partition location ids across adversaries.
    locations = sorted({e.location_id for e in entries})
    perm = rng.permutation(len(locations))
    region = {locations[int(j)]: int(pos % k) for pos, j in enumerate(perm)}
    high = rng.uniform(0.8, 1.0, size=(len(entries), k))
    loc_region = np.array([region[e.location_id] for e in entries])
    weights = np.where(loc_region[:, None] == np.arange(k)[None, :], high, 0.1)

    inst = Instance(
        DependencyHypergraph(len(entries), props),
        weights,
        k=k,
        t=t,
        lam=lam,
        tau=tau,
        model=DisclosureModel("cosine", "average"),
        entries=[
            DataEntry(i, (e.user_id, e.location_id, e.count)) for i, e in enumerate(entries)
        ],
    )
    return validate_instance(inst)


def synthetic_checkin_lines(
    num_users: int = 500,
    num_edges: int = 800,
    num_entries: int = 5000,
    hub_visits: int = 10,
    seed: int = 0,
):
    """Fabricate a check-in log plus friendship list with meeting-spot
    structure: a fifth of the users anchor a "hub" location each; every
    friendship links a hub user to a satellite who also frequents that
    hub. Friends therefore share one high-count location while the rest
    of each trajectory is private, which is what makes careless
    co-publication leak link structure.

    Returns (checkin lines, friendship pairs).
    """
    if num_users < 10:
        raise GeodataError("need at least 10 users")
    rng = np.random.default_rng(seed)
    n_hubs = max(1, num_users // 5)
    hubs = [f"u{h}" for h in range(n_hubs)]
    sats = [f"u{h}" for h in range(n_hubs, num_users)]
    if num_edges > n_hubs * len(sats):
        raise GeodataError("too many edges for the user split")

    # Deal satellites into hub slots round-robin over a shuffled order:
    # a star's slots are consecutive, so as long as no star exceeds the
    # satellite count a satellite cannot land twice in the same star.
    slots_per_hub = [num_edges // n_hubs] * n_hubs
    for i in range(num_edges % n_hubs):
        slots_per_hub[i] += 1
    if max(slots_per_hub) > len(sats):
        raise GeodataError("a hub would need more satellites than exist")
    shuffled = [sats[int(i)] for i in rng.permutation(len(sats))]
    hub_of = {}
    edges: list[tuple[str, str]] = []
    slot = 0
    for h in range(n_hubs):
        hub_of[hubs[h]] = h
        for _ in range(slots_per_hub[h]):
            edges.append((hubs[h], shuffled[slot % len(sats)]))
            slot += 1
    edges = sorted(set(edges))
    if len(edges) != num_edges:
        raise GeodataError("edge construction collided; adjust user/edge counts")

    visits: list[tuple[str, str, int]] = []
    for h, hub in enumerate(hubs):
        visits.append((hub, f"hub{h}", hub_visits))
    for (hub, s) in edges:
        visits.append((s, f"hub{hub_of[hub]}", hub_visits))

    # Private filler locations bring the aggregated entry count to target.
    fillers_needed = num_entries - len(visits)
    if fillers_needed < 0:
        raise GeodataError("num_entries too small for the hub structure")
    all_users = hubs + sats
    per_user_fill = [0] * len(all_users)
    for i in range(fillers_needed):
        per_user_fill[i % len(all_users)] += 1
    for ui, u in enumerate(all_users):
        for j in range(per_user_fill[ui]):
            visits.append((u, f"priv_{u}_{j}", 1))

    lines = []
    for (u, loc, count) in visits:
        for v in range(count):
            lines.append(f"{u}\t2010-10-0{(v % 9) + 1}T00:00:00Z\t0.0\t0.0\t{loc}")
    return lines, edges
