import itertools
import os
from pathlib import Path

import pytest

from hgx import Hypergraph, gen_standard

# subprocesses started by the tests import hgx from this checkout too
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def t3() -> Hypergraph:
    return Hypergraph(5, [[0, 1, 2], [1, 2, 3], [2, 3, 4]], uniform_r=3)


@pytest.fixture
def m2() -> Hypergraph:
    return gen_standard("matching", s=2, r=3)


@pytest.fixture
def m3() -> Hypergraph:
    return gen_standard("matching", s=3, r=3)


@pytest.fixture
def k35() -> Hypergraph:
    return Hypergraph(5, list(itertools.combinations(range(5), 3)), uniform_r=3)


@pytest.fixture
def l33() -> Hypergraph:
    return gen_standard("linear_star", p=3, r=3)


@pytest.fixture
def l32() -> Hypergraph:
    return gen_standard("linear_star", p=2, r=3)


@pytest.fixture
def c34() -> Hypergraph:
    return gen_standard("linear_cycle", m=4, r=3)


@pytest.fixture
def ex511() -> Hypergraph:
    return gen_standard("ex511")


@pytest.fixture
def triangle() -> Hypergraph:
    return Hypergraph(3, [[0, 1], [0, 2], [1, 2]], uniform_r=2)
