"""Readers of the telemetry the package writes, for the tests.

:func:`parse_prometheus_text` reads the Prometheus exposition format
back (enough to round-trip ``repro.obs.export.to_prometheus_text``).
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Tuple


# The labels section is a sequence of bare chars and quoted strings;
# quoted strings may contain escaped characters (``\\``, ``\"``, ``\n``)
# and *unescaped* ``}`` or ``=`` — so the section cannot be delimited by
# a naive ``[^}]*`` and label values cannot be read with ``[^"]*``.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r'(?:\{(?P<labels>(?:[^{}"]|"(?:[^"\\]|\\.)*")*)\})?'
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<val>(?:[^"\\]|\\.)*)"'
)


def _unescape(value: str) -> str:
    """Invert the exposition-format label escapes ``to_prometheus_text`` writes."""
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "\\":
                out.append("\\")
            elif nxt == '"':
                out.append('"')
            elif nxt == "n":
                out.append("\n")
            else:  # unknown escape: keep verbatim, as Prometheus does
                out.append(ch)
                out.append(nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def parse_prometheus_text(
    text: str,
) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Parse exposition text into ``{(name, labels): value}``.

    Handles the subset :func:`to_prometheus_text` emits (which is the
    subset real Prometheus scrapes happily): ``# TYPE``/comment lines
    are skipped, ``+Inf``/``NaN`` values are honoured.
    """
    samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"unparsable sample at line {lineno}: {line!r}")
        labels = tuple(
            sorted(
                (lm.group("key"), _unescape(lm.group("val")))
                for lm in _LABEL_RE.finditer(m.group("labels") or "")
            )
        )
        raw = m.group("value")
        if raw == "+Inf":
            value = math.inf
        elif raw == "-Inf":
            value = -math.inf
        else:
            value = float(raw)
        samples[(m.group("name"), labels)] = value
    return samples
