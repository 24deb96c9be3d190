"""``docs/telemetry.md`` names every metric series the package spells.

A series name is a ``repro_…`` token anywhere under ``src/repro``; one
that ends in ``_`` is the prefix of names an f-string completes (the
cluster front door's ``repro_cluster_{key}``).  Every such name must
appear in the doc, and every name in the doc's tables must be spelled
in the source, so a retired series cannot linger on either side.
"""

import re
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOC = (ROOT / "docs" / "telemetry.md").read_text(encoding="utf-8")
SERIES = re.compile(r"\brepro_\w+")


@lru_cache(maxsize=None)
def spelled_in_source():
    return frozenset(
        name
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for name in SERIES.findall(path.read_text(encoding="utf-8"))
    )


def undocumented(doc):
    """Names the source spells that ``doc`` never mentions."""
    documented = set(SERIES.findall(doc))
    return sorted(
        name
        for name in spelled_in_source()
        if not (
            any(d.startswith(name) for d in documented)
            if name.endswith("_")
            else name in documented
        )
    )


def unspelled(doc):
    """Names in ``doc``'s table rows that no source file spells."""
    source = spelled_in_source()
    prefixes = tuple(name for name in source if name.endswith("_"))
    return sorted(
        name
        for line in doc.splitlines()
        if line.startswith("|")
        for name in SERIES.findall(line)
        if name not in source and not name.startswith(prefixes)
    )


def test_every_series_in_the_source_is_documented():
    assert undocumented(DOC) == []


def test_every_series_in_the_doc_tables_is_spelled_in_the_source():
    assert unspelled(DOC) == []


def test_both_directions_fire_on_planted_docs():
    retired = "repro_admission_established_flows"
    assert unspelled(DOC + f"\n| `admission.*` | `{retired}` |\n") == [retired]
    assert undocumented(DOC.replace("repro_ledger_slots_in_use", "")) == [
        "repro_ledger_slots_in_use"
    ]
