"""Unit-helper conversions."""

import pytest

from repro import units


def test_rate_helpers():
    assert units.kbps(32) == 32_000.0
    assert units.mbps(100) == 100e6


def test_time_helpers():
    assert units.milliseconds(100) == pytest.approx(0.1)


def test_paper_constants_spellable():
    # The Section 6 scenario reads naturally with the helpers.
    assert units.kbps(32) == 32_000.0
    assert units.milliseconds(100) == 0.1
    assert units.mbps(100) == 100_000_000.0
