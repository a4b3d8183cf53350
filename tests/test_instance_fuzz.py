"""Fuzz the instance loader: a mutated instance document either loads as a
validated instance or raises ``InstanceError``, nothing else."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from privpart import InstanceError, instance_from_json, instance_to_json
from privpart.synth import random_small_instance

# Small integers only: a mutated count must not ask for a large allocation.
_VALUES = (st.none() | st.booleans() | st.integers(-3, 12) | st.floats()
           | st.text(max_size=4) | st.lists(st.integers(-2, 8), max_size=3)
           | st.just({}))


def _slots(doc) -> list:
    """Every (container, key) slot of a JSON document, depth first."""
    out = []
    for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        out.append((doc, key))
        if isinstance(value, (dict, list)):
            out.extend(_slots(value))
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 500), st.data())
def test_fuzz_instance_from_json_raises_only_instance_error(seed, data):
    # random_small_instance covers all four families; cosine ones carry
    # (user, location, count) entries.
    doc = json.loads(instance_to_json(random_small_instance(seed)))
    for _ in range(data.draw(st.integers(1, 3))):
        slots = _slots(doc)
        if not slots:
            break
        parent, key = data.draw(st.sampled_from(slots))
        if data.draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = data.draw(_VALUES)
    text = json.dumps(doc)
    if data.draw(st.booleans()):
        text = text[: data.draw(st.integers(0, len(text)))]
    try:
        inst = instance_from_json(text)
    except InstanceError:
        return
    assert inst.validated
