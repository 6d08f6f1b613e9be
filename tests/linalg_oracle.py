"""The dense exact linear algebra the library used before its sparse
eliminator, kept unchanged as an exact oracle for `hptmaster.linalg` and
`complexes.homology`.

Matrices are lists of rows of Fractions.  Pivoting always takes the first
nonzero entry in basis order, so every function here is deterministic.
"""

from fractions import Fraction
from typing import Optional

from hptmaster.graded import GradedVectorSpace

ZERO = Fraction(0)


def zeros(m, n):
    return [[Fraction(0)] * n for _ in range(m)]


def identity(n):
    M = zeros(n, n)
    for i in range(n):
        M[i][i] = Fraction(1)
    return M


def mat_copy(M):
    return [row[:] for row in M]


def rref(M):
    """Reduced row echelon form.

    Returns (R, pivots) where pivots is the list of pivot column indices.
    M is not modified.
    """
    R = mat_copy(M)
    n_rows = len(R)
    n_cols = len(R[0]) if n_rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pr = None
        for i in range(r, n_rows):
            if R[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        p = R[r][c]
        R[r] = [x / p for x in R[r]]
        for i in range(n_rows):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [a - f * b for a, b in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return R, pivots


def rank(M):
    if not M or not M[0]:
        return 0
    return len(rref(M)[1])


def kernel_basis(M, n_cols):
    """Basis of the right kernel of M (list of column vectors of length n_cols).

    Free variables are set to 1 in increasing column order, which makes the
    output deterministic.
    """
    if not M:
        return [[Fraction(1 if i == j else 0) for i in range(n_cols)]
                for j in range(n_cols)]
    R, pivots = rref(M)
    pivot_set = set(pivots)
    free = [c for c in range(n_cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -R[r][f]
        basis.append(v)
    return basis


def echelon_basis(vectors):
    """The nonzero rows of rref: an echelon basis of the span of vectors."""
    rows, _ = rref([list(v) for v in vectors])
    return [r for r in rows if any(x != 0 for x in r)]


def reduce_against(v, echelon_rows):
    """Clear the lead entry of each echelon row from v in turn.

    Returns the remainder, or None when it is zero (v lies in the span).
    """
    for row in echelon_rows:
        lead = next(i for i, c in enumerate(row) if c != 0)
        if v[lead] != 0:
            f = v[lead] / row[lead]
            v = [a - f * b for a, b in zip(v, row)]
    return None if all(c == 0 for c in v) else list(v)


def solve(M, b) -> Optional[list]:
    """One solution x of M x = b, or None when inconsistent.

    Free variables are set to zero.  M is a list of rows, b a column.
    """
    n_rows = len(M)
    n_cols = len(M[0]) if n_rows else 0
    aug = [M[i][:] + [b[i]] for i in range(n_rows)]
    R, pivots = rref(aug)
    if n_cols in pivots:
        return None
    x = [Fraction(0)] * n_cols
    for r, p in enumerate(pivots):
        x[p] = R[r][n_cols]
    return x


def coordinates(v, basis, modulo):
    """Coefficients of v over basis, modulo the span of the vectors modulo.

    None when v lies outside the span of both lists.  The coefficients are
    unique when basis is independent modulo that span.
    """
    cols = list(basis) + list(modulo)
    x = solve([[col[r] for col in cols] for r in range(len(v))], v)
    return None if x is None else x[:len(basis)]


def columns(M):
    if not M:
        return []
    return [[row[c] for row in M] for c in range(len(M[0]))]


def in_span(vectors, v):
    """Is v in the span of the given column vectors?  Exact test."""
    if not vectors:
        return all(x == 0 for x in v)
    M = [[vec[i] for vec in vectors] for i in range(len(v))]
    return solve(M, v) is not None


def homology(C):
    """A chosen basis of ker d / im d, as a GradedVectorSpace.

    Returns (H, representatives) where representatives[i] is a cycle in C
    (dense coefficient vector) representing the i-th basis class.  Classes
    are reduced row echelon representatives of ker d modulo im d; labels are
    "h{n}_{k}" for the k-th class in degree n.
    """
    space = C.space
    reps = []
    labels = []
    degrees = sorted(set(space.degrees))
    for n in degrees:
        idx_n = space.indices_in_degree(n)
        if not idx_n:
            continue
        # rows of d restricted to degree n sources
        rows = [[C.d.entries.get((t, s), ZERO) for s in idx_n]
                for t in space.indices_in_degree(n - 1)]
        kern = kernel_basis(rows, len(idx_n))
        # echelon rows spanning the image of d from degree n+1, in
        # degree-n coordinates; extend by kernel vectors
        span_rows = echelon_basis(
            [[C.d.entries.get((t, s), ZERO) for t in idx_n]
             for s in space.indices_in_degree(n + 1)])
        k = 0
        for v in kern:
            resid = reduce_against(v, span_rows)
            if resid is not None:
                lead = next(c for c in resid if c != 0)
                resid = [x / lead for x in resid]
                span_rows.append(resid)
                full = [ZERO] * space.dim
                for j, c in zip(idx_n, resid):
                    full[j] = c
                reps.append(full)
                labels.append((f"h{n}_{k}", n))
                k += 1
    H = GradedVectorSpace(labels)
    return H, reps


# -- conversions between the library's sparse vectors and dense lists -------

def dense(vec, dim):
    """The dense coefficient list of a sparse vector {index: coeff}."""
    out = [ZERO] * dim
    for i, c in vec.items():
        out[i] = c
    return out


def sparse(vec):
    """The sparse vector {index: coeff} of a dense coefficient list."""
    return {i: c for i, c in enumerate(vec) if c != 0}


def dense_column(f, s):
    """Column s of the GradedMap f as a dense list over its target."""
    return dense(f.apply_basis(s), f.target.dim)
