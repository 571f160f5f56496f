import json
from pathlib import Path

import pytest

from spinbrauer.diagrams import SpinDiagram

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def load_fixture(name: str):
    return json.loads((FIXTURES / name).read_text())


def assert_validated(d: SpinDiagram) -> None:
    """d equals, field for field, the diagram the checking constructor
    builds from its fields."""
    rebuilt = SpinDiagram(d.n, d.top_isolated, d.bottom_isolated,
                          d.top_arcs, d.bottom_arcs, d.through)
    assert rebuilt == d and repr(rebuilt) == repr(d)


# The five-vertex datum: two isolated vertices per row, one arc per row,
# a single through string 4 -> 3'.
FIVE_VERTEX = SpinDiagram(5, (2, 5), (1, 4), ((1, 3),), ((2, 5),), ((4, 3),))

# The seven-vertex product demo and its exact expansion -d*A + 2d*B.
DEMO_TOP = SpinDiagram(
    7, (4,), (2, 5, 7), ((2, 3), (6, 7)), ((3, 4),), ((1, 1), (5, 6))
)
DEMO_BOTTOM = SpinDiagram(
    7, (6,), (5,), ((2, 3), (4, 5)), ((3, 4), (6, 7)), ((1, 1), (7, 2))
)
DEMO_A = SpinDiagram(
    7, (4, 5), (2, 5), ((2, 3), (6, 7)), ((3, 4), (6, 7)), ((1, 1),)
)
DEMO_B = SpinDiagram(
    7, (4,), (5,), ((2, 3), (6, 7)), ((3, 4), (6, 7)), ((1, 1), (5, 2))
)
