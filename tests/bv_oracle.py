"""The BV checks as they stood before `graded.StructureTable` owned the
product kernel, kept as an exact oracle for the sparse checks of `bv` and
`StructureTable.first_non_derivation`.

Every product was formed densely over basis vectors: associativity on all
ordered triples (`validate_bv`), the Leibniz rule of an odd operator on all
ordered pairs with the sign chosen by hand for the product or the bracket
(`non_derivation`), and the generated bracket from dense columns of Delta
(`bracket_from_generator`).  Dense products go through
`table_oracle.bilinear` on the table's signed lookup, so nothing here calls
the table's own product.

`formality_report` is the Kahler-type formality predicate as it stood
before `bv.BVData.kernel_algebra` owned (ker Delta, d): it builds its own
copy of that complex on the raw kernel basis, in the grading -deg, solves
for d on it, builds its own projection onto H(A, Delta) and decides the
chain-map condition by an elimination against im Delta.
"""

from fractions import Fraction

from hptmaster import linalg
from hptmaster.complexes import ChainComplex, is_quasi_iso
from hptmaster.graded import GradedMap, GradedVectorSpace, StructureTable
from linalg_oracle import dense_column
from table_oracle import bilinear

ONE = Fraction(1)
ZERO = Fraction(0)


def _basis(dim):
    return [[ONE if t == i else ZERO for t in range(dim)] for i in range(dim)]


def bracket_from_generator(algebra, delta):
    """[a, b] = (-1)^{|a|} ( Delta(ab) - (Delta a) b - (-1)^{|a|} a (Delta b) )
    over the product of algebra (a bv.BVData), as a canonical i <= j table;
    raises when its values on the pairs i > j fail shifted graded
    antisymmetry, which bv.bracket_from_generator proves they never do and
    so never evaluates."""
    if delta.degree != -1:
        raise ValueError("generator must have degree -1")
    space = algebra.space
    dim = space.dim
    product = algebra.multiply
    dcol = [dense_column(delta, s) for s in range(dim)]
    basis = _basis(dim)

    def value(i, j):
        dprod = [ZERO] * dim
        for k, c in product.get(i, j).items():
            for t, c2 in enumerate(dcol[k]):
                dprod[t] += c * c2
        t1 = bilinear(dcol[i], basis[j], product.get)
        t2 = bilinear(basis[i], dcol[j], product.get)
        sa = -ONE if space.degrees[i] % 2 else ONE
        out = [sa * (dprod[t] - t1[t] - sa * t2[t]) for t in range(dim)]
        return {k: c for k, c in enumerate(out) if c != 0}

    table = StructureTable(space, [((i, j), value(i, j))
                                   for i in range(dim)
                                   for j in range(i, dim)], degree=-1)
    for i in range(dim):
        for j in range(i):
            if value(i, j) != table.get(i, j):
                raise AssertionError("generated bracket is not antisymmetric")
    return table.canonical


def non_derivation(A, op, bracket):
    """The first basis pair (i, j) where the odd operator op fails to derive
    the product of A, or its bracket; None when it derives it.

    The rule is op(xy) = (op x) y + (-1)^{|x|} x (op y) for the product and
    op[x, y] = [op x, y] - (-1)^{|x|} [x, op y] for the bracket.
    """
    if bracket:
        pair, sign = A.bracket, -ONE
    else:
        pair, sign = A.multiply, ONE
    dim = A.space.dim
    cols = [dense_column(op, s) for s in range(dim)]
    basis = _basis(dim)
    for i in range(dim):
        sa = -sign if A.space.degrees[i] % 2 else sign
        for j in range(dim):
            lhs = [ZERO] * dim
            for k, c in pair.get(i, j).items():
                for t, c2 in enumerate(cols[k]):
                    lhs[t] += c * c2
            r1 = bilinear(cols[i], basis[j], pair.get)
            r2 = bilinear(basis[i], cols[j], pair.get)
            if any(l - (a + sa * b) != 0 for l, a, b in zip(lhs, r1, r2)):
                return i, j
    return None


def validate_bv(bv):
    """The axiom report of `bv.validate_bv`, every product formed densely."""
    space = bv.space
    dim = space.dim
    labels = space.labels
    basis = _basis(dim)

    def mul(u, v):
        return bilinear(u, v, bv.multiply.get)

    report = {"passed": True}
    assoc = None
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                lhs = mul(mul(basis[i], basis[j]), basis[k])
                rhs = mul(basis[i], mul(basis[j], basis[k]))
                if lhs != rhs:
                    assoc = (labels[i], labels[j], labels[k])
                    break
            if assoc:
                break
        if assoc:
            break
    report["associative"] = assoc is None
    if assoc:
        report["associativity_witness"] = assoc

    report["d_squared_zero"] = bv.d.compose(bv.d).is_zero()

    leib = non_derivation(bv, bv.d, bracket=False)
    report["d_product_derivation"] = leib is None
    if leib:
        report["derivation_witness"] = (labels[leib[0]], labels[leib[1]])

    report["delta_squared_zero"] = bv.delta_exact()
    report["d_delta_commute"] = bv.weak_differential()
    report["bracket_generated"] = (
        bracket_from_generator(bv, bv.delta) == bv.bracket.canonical)
    report["passed"] = all(report[k] for k in
                           ("associative", "d_squared_zero",
                            "d_product_derivation", "delta_squared_zero",
                            "d_delta_commute", "bracket_generated"))
    return report


def formality_report(bv):
    """The report of `bv.kahler_formality_check`, on a second copy of
    (ker Delta, d) and of the projection."""
    space = bv.space
    if not bv.d.compose(bv.d).is_zero():
        raise ValueError("d d != 0")
    if not bv.delta_exact():
        raise ValueError("Delta Delta != 0")
    if not bv.weak_differential():
        raise ValueError("d does not graded-commute with Delta")
    ker, h_basis, h_reps, image = bv.delta_splitting

    neg = GradedVectorSpace([(lab, -deg) for lab, deg in space.basis])
    d_neg = GradedMap.from_columns(neg, neg, -1, bv.d.columns, bv.d.den)
    A_cx = ChainComplex(neg, d_neg)

    m_space = GradedVectorSpace(
        [("m%d" % i, -space.vector_degree(v)) for i, v in enumerate(ker)])
    d_ker = [bv.d(v) for v in ker]
    d_m_cols, den = linalg.solve(ker, d_ker)
    if None in d_m_cols:
        raise AssertionError("ker Delta is not d-stable")
    m_cx = ChainComplex(m_space, GradedMap.from_columns(m_space, m_space, -1,
                                                        d_m_cols, den))
    incl = GradedMap.from_columns(m_space, neg, 0, ker)
    first = is_quasi_iso(incl, m_cx, A_cx)

    H_space = GradedVectorSpace([(lab, -deg) for lab, deg in h_basis])
    cols, den = linalg.coordinates(ker, h_reps, image)
    if None in cols:
        raise AssertionError("kernel element escaped ker/im analysis")
    proj = GradedMap.from_columns(m_space, H_space, 0, cols, den)
    chain_map = linalg.in_span(image, d_ker)
    second = chain_map and is_quasi_iso(proj, m_cx, ChainComplex(H_space))
    return {
        "inclusion_quasi_iso": first,
        "projection_chain_map": chain_map,
        "projection_quasi_iso": second,
        "passed": first and second,
    }
