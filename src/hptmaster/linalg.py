"""Exact linear algebra over the rationals on sparse vectors.

A vector is a dict {index: value} that holds no zero values, with int or
Fraction values: the int numerator columns of a map (GradedMap.columns),
read as they are where only their span counts, or Fraction vectors.  A
matrix is a list of vectors: its rows for rref and rank, its columns
everywhere else.  Every elimination runs in one kernel, _echelon, on int
rows: a row given is multiplied by the lcm of its denominators.  Every
answer is in ints: rref's rows are int multiples of the reduced rows, and
kernel_basis, solve, coordinates and remainders hand back int numerators
(a den, or the entry at a free column, says what to divide by), which
GradedMap.from_columns takes as they are.  A finished echelon row is a
multiple of the reduced row with its pivot, so dividing it by the gcd of
its entries leaves the least int multiple: the entries stay bounded by
the reduced echelon form of the rows taken so far, not by the steps that
led to it.  Pivoting takes the first nonzero entry in index order, so
every function here is deterministic, and since a matrix has only one
reduced row echelon form, the results are the ones dense Gauss-Jordan
elimination gives.
"""

from math import gcd, lcm


def _echelon(rows):
    """The reduced row echelon form of the matrix with the given rows, on
    ints: {pivot: row}, each row the least int multiple of the reduced row
    with that pivot.

    The rows are taken in turn, each cleared at the pivots found so far;
    an echelon row is 0 at the other pivots, so clearing one only scales
    the entries of the new row there.  What is left takes its first index
    as a pivot and is cleared from the rows that hold it.  The work follows
    the nonzero entries, and the rows given are not modified.
    """
    echelon = {}
    for row in rows:
        den = lcm(*(c.denominator for c in row.values()))
        v = {k: c.numerator * (den // c.denominator) for k, c in row.items()}
        for p in [p for p in v if p in echelon]:
            _clear(v, echelon[p], p)
        if not v:
            continue
        _divide_gcd(v)
        q = min(v)
        for r in echelon.values():
            if q in r:
                _clear(r, v, q)
                _divide_gcd(r)
        echelon[q] = v
    return echelon


def _clear(v, u, p):
    """Clear index p of the int row v by the int row u, which is nonzero
    there: v = a v - b u in place with a : b = u[p] : v[p] in lowest
    terms.  Returns a."""
    a, b = u[p], v[p]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        for k in v:
            v[k] *= a
    _subtract(v, b, u)
    return a


def _divide_gcd(v):
    """Divide the int row v by the gcd of its entries, in place."""
    g = gcd(*v.values())
    if g != 1:
        for k in v:
            v[k] //= g


def _subtract(v, f, row):
    """v -= f * row in place, dropping the entries that cancel."""
    for k, c in row.items():
        x = v.get(k, 0) - f * c
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


def rref(rows):
    """Reduced row echelon form of the matrix with the given rows, on ints.

    Returns [(pivot, row)] in increasing pivot order, without zero rows:
    each row is the least positive int multiple of the reduced row with
    that pivot, its first index (the int row of _echelon, negated when it
    is negative there).  The rows given are not modified.
    """
    return [(p, row if row[p] > 0 else {k: -c for k, c in row.items()})
            for p, row in sorted(_echelon(rows).items())]


def rank(rows):
    """Rank of the matrix with the given rows, or with the given columns:
    a matrix and its transpose have the same rank."""
    return len(_echelon(rows))


def kernel_basis(columns):
    """A basis of the kernel of the matrix whose columns are the values of
    the dict columns, indexed by its keys.

    Returns a dict f -> int vector v for each free column f, in increasing
    order, with v[f] > 0: v / v[f] is the kernel vector that is 1 at f and
    0 at the other free columns.  The keys missing from the result are the
    pivot columns.
    """
    echelon = _echelon(_rows(columns.items()))
    terms = {f: [] for f in sorted(columns) if f not in echelon}
    for p, row in sorted(echelon.items()):
        for f, c in row.items():
            if f != p:
                terms[f].append((p, c, row[p]))
    basis = {}
    for f, ts in terms.items():
        den = lcm(*(abs(a) for _, _, a in ts))
        v = basis[f] = {f: den}
        for p, c, a in ts:
            v[p] = -c * (den // a)
    return basis


def solve(columns, rhs):
    """For each vector b of rhs, one solution x of M x = b, or None when
    there is none; M is the matrix with the given columns, and x sets the
    free variables to zero.  All of rhs takes one elimination, of
    [M | rhs].

    Returns (xs, den): each solution x is xs[i] / den, xs[i] an int vector,
    over one positive den for all of rhs.
    """
    n = len(columns)
    rhs = list(rhs)
    echelon = sorted(_echelon(_rows(enumerate(list(columns) + rhs))).items())
    den = lcm(*(abs(row[p]) for p, row in echelon if p < n))
    out = [{} for _ in rhs]
    # rows with a pivot in M come first; a row with its pivot in rhs
    # proves each right-hand side it touches inconsistent
    for p, row in echelon:
        if p < n:
            f = den // row[p]
            for k, c in row.items():
                if k >= n:
                    out[k - n][p] = c * f
        else:
            for k in row:
                out[k - n] = None
    return out, den


def remainders(vectors, rows):
    """Each vector in turn modulo the span of the rows and of the
    remainders kept before it.

    Returns one entry per vector: None when it lies in that span, else
    (r, den), r an int vector and den > 0, with r / den the vector minus
    the one combination of the rows and the kept remainders that is 0 at
    each of their pivots (the first index of a kept remainder).  The rows
    are brought to echelon form first (one elimination); each pivot is
    cleared by _clear, and den collects the factors it multiplies v by.
    """
    echelon = list(_echelon(rows).items())
    kept = []
    out = []
    for vec in vectors:
        den = lcm(*(c.denominator for c in vec.values()))
        v = {k: c.numerator * (den // c.denominator) for k, c in vec.items()}
        # the echelon rows are 0 at each other's pivots and the kept
        # remainders at the pivots before their own, so one pass in this
        # order clears them all
        for p, u in echelon + kept:
            if p in v:
                den *= _clear(v, u, p)
        if not v:
            out.append(None)
            continue
        g = gcd(den, *v.values()) * (1 if den > 0 else -1)
        v = {k: c // g for k, c in v.items()}
        kept.append((min(v), v))
        out.append((v, den // g))
    return out


def coordinates(vectors, basis, modulo):
    """For each vector v, its coefficients over basis, modulo the span of
    the vectors modulo; None when v lies outside the span of both lists.
    Returns (xs, den) as solve does.

    The coefficients are unique when basis is independent modulo that span.
    """
    n = len(basis)
    out, den = solve(list(basis) + list(modulo), vectors)
    return [x if x is None else {k: c for k, c in x.items() if k < n}
            for x in out], den


def in_span(rows, vectors):
    """Do all the vectors lie in the span of the rows?  One elimination."""
    return not any(remainders(vectors, rows))
