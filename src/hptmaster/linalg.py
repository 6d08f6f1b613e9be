"""Exact linear algebra over the rationals on sparse vectors.

A vector is a dict {index: Fraction} that holds no zero values, the form
GradedMap.by_column and the __call__ of maps and tables hand out.  A
matrix is a list of vectors: its rows for rref and rank, its columns
everywhere else.  Elimination runs on the Fraction values, except in
inverse, which clears the denominators of each column and eliminates
fraction-free on ints (Bareiss), handing Fractions out.
Pivoting takes the first nonzero entry in index order, so every function
here is deterministic, and since a matrix has only one reduced row echelon
form, the results are the ones dense Gauss-Jordan elimination gives.
"""

from fractions import Fraction
from math import lcm

from .graded import ONE, ZERO


def rref(rows):
    """Reduced row echelon form of the matrix with the given rows.

    Returns [(pivot, row)] in increasing pivot order, without zero rows:
    each row is 1 at its pivot, which is its first index, and 0 at the
    pivot of every other row.  The rows are taken in turn, each cleared at
    the pivots found so far and then cleared from the rows that hold
    them, so the work follows the nonzero entries.  The rows given are
    not modified.
    """
    echelon = {}
    for row in rows:
        v = dict(row)
        # an echelon row is 0 at the other pivots, so clearing one pivot
        # leaves the entries of v at the others as they were
        for p in [p for p in v if p in echelon]:
            _subtract(v, v[p], echelon[p])
        if not v:
            continue
        q = min(v)
        lead = v[q]
        if lead != 1:
            v = {k: c / lead for k, c in v.items()}
        for r in echelon.values():
            if q in r:
                _subtract(r, r[q], v)
        echelon[q] = v
    return sorted(echelon.items())


def _subtract(v, f, row):
    """v -= f * row in place, dropping the entries that cancel."""
    for k, c in row.items():
        x = v.get(k, ZERO) - f * c
        if x:
            v[k] = x
        else:
            del v[k]


def _rows(columns):
    """The rows of the matrix given by (index, column) pairs."""
    rows = {}
    for s, col in columns:
        for t, c in col.items():
            rows.setdefault(t, {})[s] = c
    return rows.values()


def rank(rows):
    """Rank of the matrix with the given rows, or with the given columns:
    a matrix and its transpose have the same rank."""
    return len(rref(rows))


def kernel_basis(columns):
    """A basis of the kernel of the matrix whose columns are the values of
    the dict columns, indexed by its keys.

    Returns a dict f -> vector with one vector for each free column f, in
    increasing order: it is 1 at f and 0 at the other free columns.  The
    keys missing from the result are the pivot columns.
    """
    echelon = rref(_rows(columns.items()))
    pivots = {p for p, _ in echelon}
    basis = {f: {f: ONE} for f in sorted(columns) if f not in pivots}
    for p, row in echelon:
        for f, c in row.items():
            if f != p:
                basis[f][p] = -c
    return basis


def solve(columns, rhs):
    """For each vector b of rhs, one solution x of M x = b, or None when
    there is none; M is the matrix with the given columns, and x sets the
    free variables to zero.  All of rhs takes one elimination, of
    [M | rhs]."""
    n = len(columns)
    rhs = list(rhs)
    echelon = rref(_rows(enumerate(list(columns) + rhs)))
    out = [{} for _ in rhs]
    # rows with a pivot in M come first; a row with its pivot in rhs
    # proves each right-hand side it touches inconsistent
    for p, row in echelon:
        for k, c in row.items():
            if k >= n:
                if p < n:
                    out[k - n][p] = c
                else:
                    out[k - n] = None
    return out


def inverse(columns):
    """The inverse of the matrix with the given columns: for each row index
    t in increasing order, the coordinates of the unit vector e_t over the
    columns.  Raises ValueError when the matrix is not invertible.

    Column j times the lcm l_j of its denominators is an int column of A,
    and Gauss-Jordan runs on the int rows of [A | I] fraction-free: each
    step sets every other row r to (p r - r_j pivot_row) / q, with p the
    pivot and q the one before it, a division that is exact because every
    entry stays a minor of [A | I].  At the end each pivot row is the last
    pivot det at its pivot j and det times row j of A^{-1} on the right,
    and M^{-1} = diag(l) A^{-1}.
    """
    keys = sorted(set().union(*columns))
    n = len(columns)
    if len(keys) != n:
        raise ValueError("matrix not invertible")
    position = {t: i for i, t in enumerate(keys)}
    # row i of [A | I]: A at the keys j < n, I at the keys n + i
    rows = [{n + i: 1} for i in range(n)]
    scale = []
    for j, col in enumerate(columns):
        l = lcm(*(c.denominator for c in col.values()))
        scale.append(l)
        for t, c in col.items():
            rows[position[t]][j] = c.numerator * (l // c.denominator)
    pivot_rows = []
    prev = 1
    for j in range(n):
        pivot = next((r for r in rows if j in r), None)
        if pivot is None:
            raise ValueError("matrix not invertible")
        rows.remove(pivot)
        p = pivot[j]
        for r in rows + pivot_rows:
            c = r.pop(j, 0)
            for k in r:
                r[k] *= p
            if c:
                for k, v in pivot.items():
                    if k != j:
                        x = r.get(k, 0) - c * v
                        if x:
                            r[k] = x
                        else:
                            del r[k]
            if prev != 1:
                for k in r:
                    r[k] //= prev
        pivot_rows.append(pivot)
        prev = p
    out = [{} for _ in range(n)]
    for j, row in enumerate(pivot_rows):
        for k, v in row.items():
            if k >= n:
                out[k - n][j] = Fraction(scale[j] * v, prev)
    return out


def reduce_against(v, echelon):
    """Clear the pivot entry of each echelon row (pivot, row) from v in
    turn.

    Returns the remainder, or None when it is zero (v lies in the span).
    """
    v = dict(v)
    for p, row in echelon:
        c = v.get(p)
        if c:
            _subtract(v, c / row[p], row)
    return v or None


def coordinates(vectors, basis, modulo):
    """For each vector v, its coefficients over basis, modulo the span of
    the vectors modulo; None when v lies outside the span of both lists.

    The coefficients are unique when basis is independent modulo that span.
    """
    n = len(basis)
    return [x if x is None else {k: c for k, c in x.items() if k < n}
            for x in solve(list(basis) + list(modulo), vectors)]


def in_span(vectors, v):
    """Is v in the span of the given vectors?  Exact test."""
    return solve(vectors, [v])[0] is not None
