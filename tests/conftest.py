from pathlib import Path

import pytest

from seaweedcoh import chevalley
from seaweedcoh.cli import _all_specs, _ambient, verify_report
from seaweedcoh.seaweed import build_seaweed

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

SWEEP_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3), ("G", 2)]


@pytest.fixture(scope="session")
def a2_fixture():
    return chevalley.load_fixture(FIXTURES / "a2_table1")


@pytest.fixture(scope="session")
def g2_fixture():
    return chevalley.load_fixture(FIXTURES / "g2_seaweed")


@pytest.fixture(scope="session")
def a2_cartan_mixed():
    return chevalley.load_fixture(FIXTURES / "a2_cartan_mixed")


@pytest.fixture(scope="session")
def ambient():
    return _ambient


class SweepData(dict):
    elapsed = 0.0


@pytest.fixture(scope="session")
def sweep_reports():
    """verify_report for every (pi1, pi2) pair of the swept types."""
    import time
    t0 = time.monotonic()
    out = SweepData()
    for type_label, rank in SWEEP_TYPES:
        rows = []
        for spec in _all_specs(type_label, rank):
            if spec.rank != rank:
                continue
            sw = build_seaweed(_ambient(type_label, rank), spec)
            rows.append((spec, sw, verify_report(sw, spec)))
        out[(type_label, rank)] = rows
    out.elapsed = time.monotonic() - t0
    return out
