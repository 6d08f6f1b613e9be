"""Exact linear algebra on sparse vectors: reduced echelon form, kernels,
solving, and parity with the dense oracle."""

import random
from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings, strategies as st

import linalg_oracle
from linalg_oracle import dense, dense_column, sparse
from hptmaster import linalg
from hptmaster.complexes import ChainComplex, build_contraction, homology
from hptmaster.graded import GradedMap, GradedVectorSpace

fracs = st.fractions(min_value=-20, max_value=20, max_denominator=8)
# mostly zeros, so that rows, columns and whole matrices vanish often
sparse_fracs = st.sampled_from([Fraction(c) for c in (0, 0, 0, 0, 1, -1, 2)]
                               + [Fraction(1, 2)])


def dense_matrix(rows, cols, entries=fracs):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def matrices(draw):
    """(M, n_cols): a dense matrix M of 0-5 rows and n_cols = 1-6 columns,
    sparse or dense."""
    entries = draw(st.sampled_from([fracs, sparse_fracs]))
    n_cols = draw(st.integers(1, 6))
    return draw(dense_matrix(draw(st.integers(0, 5)), n_cols, entries)), n_cols


def sparse_rows(M):
    return [sparse(row) for row in M]


def sparse_columns(M, n_cols):
    return [sparse([row[c] for row in M]) for c in range(n_cols)]


def over(x, den):
    """The Fraction vector of int numerators x over den (None stays)."""
    return None if x is None else {k: Fraction(c, den) for k, c in x.items()}


def unit_vectors(n):
    """The unit vectors e_0, ..., e_{n-1}, sparse."""
    return [{t: 1} for t in range(n)]


def assert_int_echelon(echelon, R, pivots, n_cols):
    """rref's answer against the oracle's reduced rows R with their pivots:
    the same pivots, and each row an int row, primitive, positive at its
    pivot (its first index) and zero at the other pivots, that equals the
    reduced row times the lcm of its denominators."""
    assert [p for p, _ in echelon] == pivots
    assert len(R) == len(echelon)
    for (p, row), want in zip(echelon, R):
        assert all(type(c) is int and c for c in row.values())
        assert gcd(*row.values()) == 1
        assert min(row) == p and row[p] > 0
        assert all(q not in row for q in pivots if q != p)
        m = lcm(*(c.denominator for c in want))
        assert dense(row, n_cols) == [c * m for c in want]


def test_rref_hand():
    M = [{0: Fraction(2), 1: Fraction(4)}, {0: Fraction(1), 1: Fraction(2)}]
    assert linalg.rref(M) == [(0, {0: 1, 1: 2})]
    assert M[0] == {0: Fraction(2), 1: Fraction(4)}
    # the reduced rows (1, 0, -2/3) and (0, 1, 1/2) times 3 and 2; a
    # negative pivot entry is made positive
    M = [{0: Fraction(-1, 2), 2: Fraction(1, 3)},
         {1: Fraction(-2), 2: Fraction(-1)}]
    echelon = linalg.rref(M)
    assert echelon == [(0, {0: 3, 2: -2}), (1, {1: 2, 2: 1})]
    assert all(type(c) is int for _, row in echelon for c in row.values())
    assert_int_echelon(echelon, [[1, 0, Fraction(-2, 3)],
                                 [0, 1, Fraction(1, 2)]], [0, 1], 3)


def test_kernel_hand():
    M = [[Fraction(1), Fraction(2), Fraction(3)]]
    K = linalg.kernel_basis(dict(enumerate(sparse_columns(M, 3))))
    assert len(K) == 2
    for v in K.values():
        assert sum(M[0][j] * c for j, c in v.items()) == 0


def test_solve_hand():
    M = [{0: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}]
    [x], den = linalg.solve(M, [{0: Fraction(3), 1: Fraction(1)}])
    assert over(x, den) == {0: Fraction(2), 1: Fraction(1)}
    assert linalg.solve([{}], [{0: Fraction(1)}])[0] == [None]
    # int numerators over one den for all right-hand sides
    assert linalg.solve([{0: 2}], [{0: 1}, {0: 3}]) == ([{0: 1}, {0: 3}], 2)


@settings(max_examples=60, deadline=None)
@given(dense_matrix(3, 4))
def test_rref_pivots_are_unit_columns(M):
    # each pivot column is nonzero in its own row only, and positive there
    echelon = linalg.rref(sparse_rows(M))
    for r, (c, row) in enumerate(echelon):
        assert min(row) == c and row[c] > 0
        assert all(c not in other for i, (_, other) in enumerate(echelon)
                   if i != r)
    R, pivots = linalg_oracle.rref(M)
    assert_int_echelon(echelon, R[:len(pivots)], pivots, 4)


@settings(max_examples=60, deadline=None)
@given(dense_matrix(3, 4))
def test_kernel_vectors_annihilate(M):
    K = linalg.kernel_basis(dict(enumerate(sparse_columns(M, 4))))
    for f, v in K.items():
        assert type(v[f]) is int and v[f] > 0
        for row in M:
            assert sum(row[j] * c for j, c in v.items()) == 0


@settings(max_examples=60, deadline=None)
@given(dense_matrix(3, 3))
def test_rank_nullity(M):
    K = linalg.kernel_basis(dict(enumerate(sparse_columns(M, 3))))
    assert linalg.rank(sparse_rows(M)) + len(K) == 3


@settings(max_examples=60, deadline=None)
@given(dense_matrix(3, 3), st.lists(fracs, min_size=3, max_size=3))
def test_solve_consistency(M, x):
    rhs = [sum(M[i][j] * x[j] for j in range(3)) for i in range(3)]
    [sol], den = linalg.solve(sparse_columns(M, 3), [sparse(rhs)])
    assert sol is not None
    sol = over(sol, den)
    back = [sum(M[i][j] * c for j, c in sol.items()) for i in range(3)]
    assert back == rhs


def test_in_span():
    cols = [{0: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}]
    assert linalg.in_span(cols, [{0: Fraction(5), 1: Fraction(3)}])
    assert not linalg.in_span([cols[0]], [{1: Fraction(1)}])


def test_rref_deterministic():
    M = [{0: Fraction(1, 3), 1: Fraction(2)},
         {0: Fraction(5), 1: Fraction(-1, 7)}]
    assert linalg.rref(M) == linalg.rref(M)


def test_inverse_hand():
    # the inverse is the solutions for the unit vectors: columns (1, 1) and
    # (0, 2) have the inverse with columns (1, -1/2), (0, 1/2)
    cols = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(2)}]
    xs, den = linalg.solve(cols, unit_vectors(2))
    assert (xs, den) == ([{0: 2, 1: -1}, {1: 1}], 2)
    assert [over(x, den) for x in xs] == [
        {0: Fraction(1), 1: Fraction(-1, 2)}, {1: Fraction(1, 2)}]
    # a singular matrix leaves some unit vector without a solution
    xs, _ = linalg.solve([{0: Fraction(1)}, {0: Fraction(2)}], unit_vectors(2))
    assert xs[1] is None


# -- parity with the dense oracle ---------------------------------------------

@st.composite
def square_matrices(draw):
    """(M, keys): a dense n x n matrix M, n = 1-8, with rational entries,
    singular when a drawn column is a combination of the others, and n
    increasing row keys for its sparse columns."""
    n = draw(st.integers(1, 8))
    entries = draw(st.sampled_from([fracs, sparse_fracs]))
    M = draw(dense_matrix(n, n, entries))
    if n > 1 and draw(st.booleans()):
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        c = draw(fracs)
        for row in M:
            row[a] = c * row[b]
    keys = sorted(draw(st.sets(st.integers(0, 30), min_size=n, max_size=n)))
    return M, keys


@settings(max_examples=120, deadline=None)
@given(square_matrices())
def test_inverse_matches_the_oracle_solve(case):
    # the fraction-free inverse against the dense Fraction elimination:
    # column t is the oracle's solution of M x = e_t
    M, keys = case
    n = len(M)
    cols = [{keys[i]: row[j] for i, row in enumerate(M) if row[j]}
            for j in range(n)]
    xs, den = linalg.solve(cols, [{k: 1} for k in keys])
    assert len(xs) == n
    if linalg_oracle.rank(M) < n:
        assert None in xs
        return
    for t, x in enumerate(xs):
        assert all(type(c) is int and c for c in x.values())
        e = [Fraction(int(i == t)) for i in range(n)]
        assert dense(over(x, den), n) == linalg_oracle.solve(M, e)


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_sparse_elimination_matches_the_dense_oracle(case, data):
    M, n_cols = case
    rows, cols = sparse_rows(M), sparse_columns(M, n_cols)

    # rref: the same pivots, and the rows as least positive int
    # multiples; the oracle keeps its zero rows
    R, pivots = linalg_oracle.rref(M)
    echelon = linalg.rref(rows)
    assert_int_echelon(echelon, R[:len(pivots)], pivots, n_cols)
    assert all(x == 0 for row in R[len(pivots):] for x in row)
    assert linalg.rank(rows) == linalg_oracle.rank(M)

    # kernel: the same vectors in the same order, keyed by free column
    K = linalg.kernel_basis(dict(enumerate(cols)))
    oracle_K = linalg_oracle.kernel_basis(M, n_cols)
    assert [dense(over(v, v[f]), n_cols) for f, v in K.items()] == oracle_K
    assert list(K) == [c for c in range(n_cols) if c not in pivots]

    # solve: one elimination for several right-hand sides, some of them
    # consistent by construction
    n_rows = len(M)
    xs = data.draw(st.lists(st.lists(sparse_fracs, min_size=n_cols,
                                     max_size=n_cols), max_size=3))
    rhs = [[sum(M[i][j] * x[j] for j in range(n_cols))
            for i in range(n_rows)] for x in xs]
    rhs += data.draw(st.lists(st.lists(fracs, min_size=n_rows,
                                       max_size=n_rows), max_size=3))
    got, den = linalg.solve(cols, [sparse(b) for b in rhs])
    got = [over(x, den) for x in got]
    # without rows the oracle sizes its solution by the rows
    want = [linalg_oracle.solve(M, b) if n_rows else [Fraction(0)] * n_cols
            for b in rhs]
    assert [None if x is None else dense(x, n_cols) for x in got] == want
    for x in got[:len(xs)]:
        assert x is not None

    # remainders: the same remainder over the echelon rows, and the next
    # vector reduced modulo the rows and that remainder too
    v, w = data.draw(st.lists(st.lists(fracs, min_size=n_cols,
                                       max_size=n_cols),
                              min_size=2, max_size=2))
    span = linalg_oracle.echelon_basis(M)
    got = linalg.remainders([sparse(v), sparse(w)], rows)
    for vec, rem in zip((v, w), got):
        want = linalg_oracle.reduce_against(vec, span)
        assert (None if rem is None else dense(over(*rem), n_cols)) == want
        if want is not None:
            span.append(want)

    # inverse: the solutions for the unit vectors are the oracle's, and
    # some unit vector has none when the matrix is singular
    if n_rows == n_cols:
        xs, den = linalg.solve(cols, unit_vectors(n_cols))
        if len(pivots) == n_cols:
            for t, x in enumerate(xs):
                e = [Fraction(int(i == t)) for i in range(n_cols)]
                assert dense(over(x, den), n_cols) == linalg_oracle.solve(M, e)
        else:
            assert None in xs


@st.composite
def complexes(draw):
    """A complex in degrees 0, 1 and 2 of dimensions 0-4 each, with d_1
    drawn and d_2 drawn from the combinations of kernel vectors of d_1,
    so that d_1 d_2 = 0."""
    dims = draw(st.lists(st.integers(0, 4), min_size=3, max_size=3))
    space = GradedVectorSpace([("e%d_%d" % (n, i), n)
                               for n in range(3) for i in range(dims[n])])
    idx = [space.indices_in_degree(n) for n in range(3)]
    entries = st.sampled_from([Fraction(c) for c in (0, 0, 1, -1, 2)])
    d1 = draw(dense_matrix(dims[0], dims[1], entries))
    kern = linalg_oracle.kernel_basis(d1, dims[1])
    ent = {}
    for a, row in enumerate(d1):
        for b, c in enumerate(row):
            if c:
                ent[(idx[0][a], idx[1][b])] = c
    for s in idx[2]:
        weights = draw(st.lists(entries, min_size=len(kern),
                                max_size=len(kern)))
        for b in range(dims[1]):
            c = sum(w * v[b] for w, v in zip(weights, kern))
            if c:
                ent[(idx[1][b], s)] = c
    return ChainComplex(space, GradedMap(space, space, -1, ent))


@settings(max_examples=150, deadline=None)
@given(complexes())
def test_homology_matches_the_dense_oracle(C):
    H, reps = homology(C)
    oracle_H, oracle_reps = linalg_oracle.homology(C)
    assert H.basis == oracle_H.basis
    assert [dense(rep, C.space.dim) for rep in reps] == oracle_reps


@settings(max_examples=150, deadline=None)
@given(complexes())
def test_build_contraction_matches_the_dense_oracle_homology(C):
    # the contraction's small space and nabla are the oracle's classes
    # and representatives, and its identities hold
    oracle_H, oracle_reps = linalg_oracle.homology(C)
    con = build_contraction(C)
    assert con.small.space.basis == oracle_H.basis
    assert [dense_column(con.nabla, k)
            for k in range(oracle_H.dim)] == oracle_reps
    assert con.identity_failures() == []


# -- no Fraction arithmetic inside an elimination -----------------------------

def seeded_matrices(seed):
    """A dense matrix of 1-6 rows and columns with Fraction entries, drawn
    from Random(seed); every third one gets a column that is a multiple of
    another, so it is singular when square."""
    rng = random.Random(seed)
    m, n = rng.randint(1, 6), rng.randint(1, 6)
    if seed % 2:
        n = m
    M = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
          if rng.random() < 0.6 else Fraction(0) for _ in range(n)]
         for _ in range(m)]
    if n > 1 and seed % 3 == 0:
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for row in M:
            row[n - 1] = c * row[0]
    return M


FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__",
                       "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                       "__neg__")


def test_eliminations_run_no_fraction_arithmetic(monkeypatch):
    # the oracle's answers first, then rref and solve (the inverse of a
    # square matrix too, as the solutions for the unit vectors) with every
    # Fraction operator raising: Fraction input is only read, and no
    # answer holds a Fraction
    cases = []
    for seed in range(150):
        M = seeded_matrices(seed)
        m, n = len(M), len(M[0])
        rng = random.Random(-seed)
        b = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m)]
        units = [[Fraction(int(i == t)) for i in range(m)] for t in range(m)]
        R, pivots = linalg_oracle.rref(M)
        cases.append((M, b, R[:len(pivots)], pivots,
                      linalg_oracle.solve(M, b),
                      [linalg_oracle.solve(M, e) for e in units]
                      if m == n == len(pivots) else None))

    def refuse(*args):
        raise AssertionError("Fraction arithmetic inside an elimination")

    got = []
    with monkeypatch.context() as patch:
        for name in FRACTION_ARITHMETIC:
            patch.setattr(Fraction, name, refuse)
        for M, b, *_ in cases:
            n = len(M[0])
            cols = sparse_columns(M, n)
            inv = linalg.solve(cols, unit_vectors(n)) if len(M) == n else None
            [x], den = linalg.solve(cols, [sparse(b)])
            got.append((linalg.rref(sparse_rows(M)), (x, den), inv))

    # square cases both invertible and singular
    assert {want_inv is None for M, *_, want_inv in cases
            if len(M) == len(M[0])} == {True, False}
    for (M, _, R, pivots, want_x, want_inv), (echelon, x, inv) in zip(
            cases, got):
        n = len(M[0])
        answers = [row for _, row in echelon] + [x[0]]
        if inv is not None:
            answers += inv[0]
        assert not any(type(c) is not int for v in answers if v
                       for c in v.values())
        assert_int_echelon(echelon, R, pivots, n)
        x = over(*x)
        assert (None if x is None else dense(x, n)) == want_x
        if inv is not None:
            xs, den = inv
            assert (None if None in xs
                    else [dense(over(col, den), n) for col in xs]) == want_inv
