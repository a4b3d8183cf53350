"""Fuzz the check-in and friendship parsers: on any text they return a
result or raise ``GeodataError``, nothing else."""

from hypothesis import given, settings
from hypothesis import strategies as st

from privpart import GeodataError, ingest_checkins, read_friendships

_LINES = st.lists(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40)
                  | st.sampled_from(["u1\t2010\t0\t0\tL1", "u1,2010,L2", "a b", "a a", "a"]),
                  max_size=12)


@settings(max_examples=150, deadline=None)
@given(_LINES)
def test_fuzz_ingest_raises_only_geodata_error(lines):
    try:
        out = ingest_checkins(lines)
    except GeodataError:
        return
    assert out.total_lines - out.skipped_lines == sum(e.count for e in out.entries) > 0


@settings(max_examples=150, deadline=None)
@given(_LINES)
def test_fuzz_read_friendships_returns_distinct_pairs(lines):
    for u, v in read_friendships(lines):
        assert u != v and u.strip() == u and u and v
