"""Sign discipline: Koszul signs, hom differential, suspension."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import lie_instances
import table_oracle
from contraction_oracle import hom_differential
from linalg_oracle import sparse
from word_oracle import koszul_sign
from hptmaster.bv import GerstenhaberAlgebra
from hptmaster.graded import (GradedMap, GradedVectorSpace, StructureTable,
                              suspend_map, suspend_space)


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


def suspension_iso(space):
    """The canonical degree-1 isomorphism M -> sM (entries all 1)."""
    return GradedMap.from_columns(space, suspend_space(space), 1,
                                  [{i: 1} for i in range(space.dim)])


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


# -- structure tables --------------------------------------------------------

# operation kind: degree, symmetric, and the parent's signed lookup
TABLE_KINDS = {
    "lie": (0, False, table_oracle.lie_bracket_basis),
    "product": (0, True, lambda table, degrees, i, j:
                table_oracle.product_basis(table, degrees, None, i, j)),
    "gerstenhaber": (-1, False, table_oracle.gerstenhaber_bracket_basis),
}
TABLE_COEFFS = [Fraction(c) for c in (0, 1, -1, 2, Fraction(1, 2))]


@st.composite
def structure_rows(draw, kinds=tuple(sorted(TABLE_KINDS)), unit=False):
    """A kind, degrees in -2..3 (the first one 0 when unit is set), rows
    (i, j, k, c) of the kind's degree in either index order, and two dense
    vectors."""
    kind = draw(st.sampled_from(kinds))
    degree = TABLE_KINDS[kind][0]
    degrees = draw(st.lists(st.integers(-2, 3), min_size=1, max_size=4))
    if unit:
        degrees[0] = 0
    n = len(degrees)
    triples = [(i, j, k) for i in range(n) for j in range(n)
               for k in range(n)
               if degrees[k] == degrees[i] + degrees[j] + degree]
    rows = []
    if triples:
        rows = draw(st.lists(
            st.tuples(st.sampled_from(triples), st.sampled_from(TABLE_COEFFS))
            .map(lambda row: row[0] + (row[1],)), max_size=8))
    vector = st.lists(st.sampled_from(TABLE_COEFFS), min_size=n, max_size=n)
    return kind, degrees, rows, draw(vector), draw(vector)


def _space(degrees):
    return GradedVectorSpace([("x%d" % i, d) for i, d in enumerate(degrees)])


def _first_forced_square(table, degrees, degree, symmetric, skip=None):
    for i, j in table:
        if i == j != skip and table_oracle.square_must_vanish(
                degrees, degree, symmetric, i):
            return i
    return None


@settings(max_examples=300, deadline=None)
@given(structure_rows())
def test_structure_table_matches_the_parent_sign_code(case):
    kind, degrees, rows, u, v = case
    degree, symmetric, basis = TABLE_KINDS[kind]
    expected = table_oracle.canonical_rows(rows, degrees, degree, symmetric)
    handed = [((i, j), {k: c}) for i, j, k, c in rows]
    forced = _first_forced_square(expected, degrees, degree, symmetric)
    if forced is not None:
        with pytest.raises(ValueError, match="square of 'x%d' must vanish"
                           % forced):
            StructureTable(_space(degrees), handed, degree, symmetric)
        return
    table = StructureTable(_space(degrees), handed, degree, symmetric)
    assert table.canonical == expected
    n = len(degrees)
    for i in range(n):
        for j in range(n):
            assert table.get(i, j) == basis(expected, degrees, i, j)
    assert table(sparse(u), sparse(v)) == sparse(table_oracle.bilinear(
        u, v, lambda i, j: basis(expected, degrees, i, j)))


@settings(max_examples=150, deadline=None)
@given(structure_rows(kinds=("product",), unit=True))
def test_unital_product_matches_the_parent_sign_code(case):
    # rows given for the unit (index 0) give way to 1 x = x 1 = x
    _, degrees, rows, u, v = case
    expected = table_oracle.canonical_rows(rows, degrees, 0, True)
    handed = [((i, j), {k: c}) for i, j, k, c in rows]
    if _first_forced_square(expected, degrees, 0, True, skip=0) is not None:
        with pytest.raises(ValueError, match="must vanish"):
            GerstenhaberAlgebra(_space(degrees), handed)
        return
    product = GerstenhaberAlgebra(_space(degrees), handed).multiply
    n = len(degrees)

    def basis(i, j):
        return table_oracle.product_basis(expected, degrees, 0, i, j)
    for i in range(n):
        for j in range(n):
            assert product.get(i, j) == basis(i, j)
    assert product(sparse(u), sparse(v)) == sparse(
        table_oracle.bilinear(u, v, basis))


@pytest.mark.parametrize("kind", sorted(table_oracle.LIE3))
def test_lie_tensor_instances_match_the_parent_tables(kind):
    for build, products in (
            (lie_instances.lie_tensor_dgla, table_oracle.LIE_TENSOR_PRODUCTS),
            (lie_instances.commuting_lifts_dgla,
             table_oracle.COMMUTING_LIFTS_PRODUCTS)):
        g = build(kind)
        expected = table_oracle.lie_tensor_table(kind, products)
        assert g.bracket_table == expected
        degrees = g.space.degrees
        for i in range(g.space.dim):
            for j in range(g.space.dim):
                assert g.bracket.get(i, j) == table_oracle.lie_bracket_basis(
                    expected, degrees, i, j)
