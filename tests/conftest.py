"""Shared fixtures: small hand networks and a session-scoped mesh."""

from __future__ import annotations

import pytest

from gridpatterns.network import Network
from gridpatterns.synthnet import synthetic_network


@pytest.fixture
def path3() -> Network:
    """A - B - C path, 2 lines."""
    return Network([("A", "B"), ("B", "C")])


@pytest.fixture
def path4() -> Network:
    """A - B - C - D path, 3 lines."""
    return Network([("A", "B"), ("B", "C"), ("C", "D")])


@pytest.fixture
def star4() -> Network:
    """Star with center X and spokes a, b, c, d."""
    return Network([("X", "A"), ("X", "B"), ("X", "C"), ("X", "D")])


@pytest.fixture
def triangle() -> Network:
    return Network([("A", "B"), ("B", "C"), ("A", "C")])


@pytest.fixture
def cycle4() -> Network:
    return Network([("A", "B"), ("B", "C"), ("C", "D"), ("A", "D")])


@pytest.fixture(scope="session")
def mesh480() -> Network:
    """480-line grid mesh with some multi-circuit lines, shared read-only."""
    return synthetic_network("grid-mesh", 480, multi_circuit_fraction=0.1, seed=11)


@pytest.fixture(scope="session")
def ba500() -> Network:
    """500-line preferential-attachment network, shared read-only."""
    return synthetic_network("ba-like", 500, seed=5)
