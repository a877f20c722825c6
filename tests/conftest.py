from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


# The reference netlist and its assignment; T1..T9 request
# {p1, p2, p1, p3, p1, p4, p5, p3, p3}.
DATA = Path(__file__).parent / "data"
REFERENCE_NETLIST_PATH = DATA / "reference.net"
REFERENCE_ASSIGNMENT_PATH = DATA / "reference.assign"
REFERENCE_NETLIST = REFERENCE_NETLIST_PATH.read_text(encoding="utf-8")
REFERENCE_ASSIGNMENT = {
    name.strip(): float(value)
    for name, value in (line.split("=") for line in
                        REFERENCE_ASSIGNMENT_PATH.read_text(encoding="utf-8").splitlines())
}


@pytest.fixture
def reference_netlist_text():
    return REFERENCE_NETLIST


@pytest.fixture
def reference_assignment():
    return dict(REFERENCE_ASSIGNMENT)
