import os
import pathlib
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hptmaster import cli, instances
from hptmaster.complexes import build_contraction
from hptmaster.transfer import transfer

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

CORPUS_SIZE = 50
CORPUS_N = 4


def kahler_bv():
    """The seven-dimensional weak differential BV algebra of
    fixtures/kahler_bv.json, one Hodge square plus harmonic classes (see
    README), as a fresh BVData, built in one step with the bracket its
    Delta generates: a BVData keeps what it derives, so each caller gets
    its own."""
    return cli.load_problem(os.path.join(FIXTURES, "kahler_bv.json"))[1]


@pytest.fixture(scope="session")
def corpus():
    """The deterministic randomized corpus with contractions and transfers."""
    out = []
    for seed in range(CORPUS_SIZE):
        g = instances.random_dgla(seed)
        con = build_contraction(g.complex)
        out.append((seed, g, con, transfer(g, con, CORPUS_N)))
    return out


@pytest.fixture(scope="session")
def fixture_dir():
    return pathlib.Path(FIXTURES)
