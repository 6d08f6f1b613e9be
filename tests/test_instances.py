"""The random basis change of the test instances against the Fraction
elimination it replaced (tests/instances_oracle.py)."""

import random

import pytest

import instances_oracle
from hptmaster import instances, linalg
from test_int_kernels import direct_sum


def _assert_same(g, rng, oracle_g, oracle_rng):
    assert (g.d.columns, g.d.den) == (oracle_g.d.columns, oracle_g.d.den)
    assert ((g.bracket.numerator_rows(), g.bracket.den)
            == (oracle_g.bracket.numerator_rows(), oracle_g.bracket.den))
    assert g.space == oracle_g.space
    assert rng.getstate() == oracle_rng.getstate()


def _both(seed):
    """random_dgla(seed) drawn with the library's basis change and with
    the oracle's, with the generator each leaves behind."""
    out = []
    for change_basis in (instances.change_basis,
                         instances_oracle.change_basis):
        rng = random.Random(seed)
        out += [change_basis(instances._random_family(rng), rng), rng]
    return out


def test_random_dgla_matches_the_fraction_basis_change():
    for seed in range(500):
        g, rng, oracle_g, oracle_rng = _both(seed)
        _assert_same(g, rng, oracle_g, oracle_rng)
        table = instances.random_dgla(seed).bracket
        assert ((table.numerator_rows(), table.den)
                == (g.bracket.numerator_rows(), g.bracket.den))


def test_dense_basis_change_matches_the_fraction_basis_change():
    l3 = instances.nonzero_l3_dgla()
    g = direct_sum([l3, l3])
    for seed in range(64):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        _assert_same(instances.change_basis(g, rng), rng,
                     instances_oracle.change_basis(g, oracle_rng), oracle_rng)


@pytest.mark.parametrize("seed, redraws", [(4, 1), (16, 1), (34, 2)])
def test_singular_blocks_are_redrawn(monkeypatch, seed, redraws):
    # a singular block raises in its inverse and is drawn again, as often
    # as the Fraction rank test rejected it
    raised = []
    inverse = linalg.inverse

    def counting(columns):
        try:
            return inverse(columns)
        except ValueError:
            raised.append(len(columns))
            raise

    monkeypatch.setattr(linalg, "inverse", counting)
    g, rng, oracle_g, oracle_rng = _both(seed)
    assert len(raised) == redraws
    _assert_same(g, rng, oracle_g, oracle_rng)
