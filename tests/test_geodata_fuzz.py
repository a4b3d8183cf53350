"""Fuzz the check-in and friendship parsers: on any text they return a
result or raise ``GeodataError``, nothing else; the check-in parser keeps
the keys of a reference parse that strips every field."""

import pytest
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


def _reference_ingest(lines):
    """(user, location) -> count as a parse that strips every field of a
    line finds them, with the skipped and counted line totals."""
    counts, skipped, total = {}, 0, 0
    for line in lines:
        if not line.strip():
            continue
        total += 1
        fields = [f.strip() for f in line.rstrip("\n").split("\t" if "\t" in line else ",")]
        if len(fields) < 3 or not fields[0] or not fields[-1]:
            skipped += 1
            continue
        counts[fields[0], fields[-1]] = counts.get((fields[0], fields[-1]), 0) + 1
    return list(counts.items()), skipped, total


_PAD = st.sampled_from(["", " ", "  ", "\t", "\n", " \n", "\r\n", "\x0b", "\u3000"])
_FIELD = st.sampled_from(["", "u1", "u2", "L1", "L 2", "2010", "0.0"])


@st.composite
def _padded_line(draw):
    """Fields padded with whitespace (a tab in a pad makes a comma line a
    tab-separated one), joined by either separator."""
    sep = draw(st.sampled_from(["\t", ","]))
    fields = draw(st.lists(st.tuples(_PAD, _FIELD, _PAD).map("".join), min_size=1, max_size=6))
    return sep.join(fields) + draw(st.sampled_from(["", "\n", " \n", "\n\n"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_padded_line() | st.text(max_size=20), max_size=12))
def test_ingest_matches_a_reference_parse(lines):
    # Padded and empty fields, either separator, trailing newlines and
    # blanks: the keys, counts and line totals of a parse that strips
    # every field.
    want_counts, want_skipped, want_total = _reference_ingest(lines)
    if want_total == want_skipped:
        with pytest.raises(GeodataError):
            ingest_checkins(lines)
        return
    out = ingest_checkins(lines)
    assert [((e.user_id, e.location_id), e.count) for e in out.entries] == want_counts
    assert (out.skipped_lines, out.total_lines) == (want_skipped, want_total)
