"""Sign discipline: Koszul signs, hom differential, suspension."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hptmaster.graded import (GradedMap, GradedVectorSpace, hom_differential,
                              koszul_sign, suspend_map, suspend_space,
                              suspension_iso)


def bubble_sign(perm, degrees):
    """Independent oracle: product of adjacent-transposition signs."""
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        for j in range(len(perm) - 1 - i):
            if perm[j] > perm[j + 1]:
                if degrees[perm[j]] % 2 and degrees[perm[j + 1]] % 2:
                    sign = -sign
                perm[j], perm[j + 1] = perm[j + 1], perm[j]
    return sign


def _perm_and_degrees(n):
    return st.tuples(st.permutations(range(n)),
                     st.lists(st.integers(-2, 3), min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 7).flatmap(_perm_and_degrees))
def test_koszul_sign_matches_bubble_oracle(case):
    perm, degrees = case
    assert koszul_sign(perm, degrees) == bubble_sign(perm, degrees)


def test_koszul_sign_rejects_malformed_permutation():
    for perm, degrees in (([0, 0], [1, 1]), ([0, 2], [1, 1]), ([0], [1, 1])):
        with pytest.raises(ValueError):
            koszul_sign(perm, degrees)


@settings(max_examples=100, deadline=None)
@given(st.permutations(range(4)),
       st.lists(st.integers(-2, 3), min_size=4, max_size=4))
def test_koszul_sign_even_elements_transparent(perm, degrees):
    evened = [2 * d for d in degrees]
    assert koszul_sign(perm, evened) == 1


def test_koszul_sign_single_odd_swap():
    assert koszul_sign([1, 0], [1, 1]) == -1
    assert koszul_sign([1, 0], [1, 2]) == 1


def test_graded_map_degree_enforced():
    V = GradedVectorSpace([("a", 0), ("b", 1)])
    try:
        GradedMap(V, V, 0, {(0, 1): Fraction(1)})
    except ValueError:
        pass
    else:
        raise AssertionError("inhomogeneous entry accepted")


def test_hom_differential_hand():
    # src: u (deg 1) -> v (deg 0); tgt: p (deg 2) -> q (deg 1)
    U = GradedVectorSpace([("u", 1), ("v", 0)])
    W = GradedVectorSpace([("p", 2), ("q", 1)])
    dU = GradedMap(U, U, -1, {(1, 0): Fraction(1)})
    dW = GradedMap(W, W, -1, {(1, 0): Fraction(1)})
    phi = GradedMap(U, W, 1, {(0, 0): Fraction(1), (1, 1): Fraction(3)})
    D = hom_differential(phi, dU, dW)
    # D phi = d phi - (-1)^1 phi d; on u: d(p) + phi(v) = q + 3q = 4q
    assert D.apply_basis(0) == {1: Fraction(4)}
    assert D.apply_basis(1) == {}


def test_hom_differential_squares_to_zero():
    U = GradedVectorSpace([("u", 1), ("v", 0), ("w", 2)])
    dU = GradedMap(U, U, -1, {(1, 0): Fraction(2)})
    phi = GradedMap(U, U, 1, {(2, 0): Fraction(5)})
    once = hom_differential(phi, dU, dU)
    twice = hom_differential(once, dU, dU)
    assert twice.is_zero()


def test_suspension_roundtrip():
    V = GradedVectorSpace([("x", 0), ("y", 2)])
    sV = suspend_space(V)
    assert sV.basis == [("sx", 1), ("sy", 3)]
    s = suspension_iso(V)
    assert s.degree == 1
    for i in range(V.dim):
        assert s.apply_basis(i) == {i: Fraction(1)}


def test_suspend_map_sign():
    # the suspended differential is -s d s^{-1} for a degree -1 map
    V = GradedVectorSpace([("u", 1), ("v", 0)])
    d = GradedMap(V, V, -1, {(1, 0): Fraction(1)})
    sd = suspend_map(d)
    assert sd.apply_basis(0) == {1: Fraction(-1)}
    # even maps suspend without a sign
    f = GradedMap(V, V, 0, {(0, 0): Fraction(7)})
    assert suspend_map(f).apply_basis(0) == {0: Fraction(7)}


def test_compose_and_arithmetic():
    V = GradedVectorSpace([("a", 0), ("b", 1)])
    f = GradedMap(V, V, 1, {(1, 0): Fraction(2)})
    g = GradedMap(V, V, -1, {(0, 1): Fraction(3)})
    assert g.compose(f).apply_basis(0) == {0: Fraction(6)}
    assert (f + f).apply_basis(0) == {1: Fraction(4)}
    assert f.scale(Fraction(1, 2)).apply_basis(0) == {1: Fraction(1)}
