"""Work counts are a ratchet: the decision path's Python calls per op,
bare and audited with observability on, the metrics-registry lookups
the audited path makes, and the controller and kernel entries per frame
shape (``tests/work_counts.py`` counts them).

The pins in ``tests/data/work_counts.json`` are exact and filed per
interpreter and numpy minor version.  A count above its pin is a
regression; a count below it is a gain that must be written down, so it
fails too until the pin is lowered.  On an interpreter with no pins
only the ratio of audited to bare calls is checked.
"""

import json
from pathlib import Path

from work_counts import count_work, interpreter_key, per_op

PINS = Path(__file__).resolve().parent / "data" / "work_counts.json"

#: Audited-with-observability calls per op over bare ones, at most.
MAX_AUDITED_RATIO = 1.5


def test_work_counts_match_their_pins():
    counts = count_work()
    rates = per_op(counts)
    assert rates["bulk_audited_calls"] <= MAX_AUDITED_RATIO * rates["bulk_calls"], rates
    pins = json.loads(PINS.read_text(encoding="utf-8")).get(interpreter_key())
    if pins is None:
        return
    assert counts.keys() == pins.keys()
    over = {k: (counts[k], pin) for k, pin in pins.items() if counts[k] > pin}
    under = {k: (counts[k], pin) for k, pin in pins.items() if counts[k] < pin}
    assert not over, f"more work than pinned, (count, pin): {over}; per op now {rates}"
    assert not under, (
        f"less work than pinned, (count, pin): {under}; lower the pin "
        f"under {interpreter_key()!r} in {PINS.name} (per op now {rates})"
    )
