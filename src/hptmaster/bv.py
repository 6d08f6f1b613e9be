"""Gerstenhaber algebras, BV generators, and the odd-Laplacian pipeline.

This module works in cohomological degrees: the product has degree 0, the
bracket degree -1, a differential d degree +1, a generator Delta degree -1.
The regrading g_n = A^{1-n} turns the bracket into an ordinary degree-0
graded Lie bracket with homological differential, with the same structure
constants; everything downstream (transfer, twisting cochains) runs on the
regraded side.
"""

from fractions import Fraction
from functools import cached_property

from . import linalg
from .complexes import (ChainComplex, contraction_extending_projection,
                        homology, is_quasi_iso)
from .dgla import DgLieAlgebra
from .graded import GradedMap, GradedVectorSpace, StructureTable
from .transfer import theorem_29_pipeline


class GerstenhaberAlgebra:
    """Graded commutative algebra with a degree -1 bracket, cohomological.

    multiply is the StructureTable of the product, built from rows
    (i, j) -> {k: c} in either index order, with the unit's rows
    1 x = x 1 = x written in (rows given for the unit are replaced).
    bracket is the table of the bracket, whose swap rule is the shifted
    antisymmetry [b,a] = -(-1)^{(|a|-1)(|b|-1)}[a,b].  Either may be
    handed in as a table already built, such as another algebra's
    multiply or the result of bracket_from_generator, and is then used as
    it is.  product_table and bracket_table are their canonical i <= j
    dicts.  An optional degree +1 differential completes the data.
    """

    def __init__(self, space, product_rows, bracket_rows=None, d=None,
                 unit_index=0):
        self.space = space
        self.unit_index = unit_index
        if space.dim and space.degrees[unit_index] != 0:
            raise ValueError("unit: %r must have degree 0"
                             % space.labels[unit_index])
        if isinstance(product_rows, StructureTable):
            self.multiply = product_rows
        else:
            if isinstance(product_rows, dict):
                product_rows = product_rows.items()
            rows = [(key, val) for key, val in product_rows
                    if unit_index not in key]
            rows += [((unit_index, j), {j: 1}) for j in range(space.dim)]
            self.multiply = StructureTable(space, rows, symmetric=True)
        if isinstance(bracket_rows, StructureTable):
            self.bracket = bracket_rows
        else:
            self.bracket = StructureTable(space, bracket_rows or (),
                                          degree=-1)
        if d is None:
            d = GradedMap.zero(space, space, 1)
        if d.degree != 1:
            raise ValueError("differential must have degree +1")
        self.d = d

    @property
    def product_table(self):
        return self.multiply.canonical

    @property
    def bracket_table(self):
        return self.bracket.canonical


def bracket_from_generator(algebra, delta):
    """The bracket measured by the failure of Delta to be a derivation.

    [a, b] = (-1)^{|a|} ( Delta(ab) - (Delta a) b - (-1)^{|a|} a (Delta b) ).
    Returns the StructureTable of the bracket; raises when the formula
    fails shifted graded antisymmetry (it never does for homogeneous
    degree -1 Delta).
    """
    if delta.degree != -1:
        raise ValueError("generator must have degree -1")
    space = algebra.space
    dim = space.dim
    product = algebra.multiply
    dcols = delta.columns
    # each term on numerators comes out product.den delta.den times too
    # large
    den = product.den * delta.den

    def value(i, j):
        sa = -1 if space.degrees[i] % 2 else 1
        out = delta.add_image({}, product.numerators(i, j), sa)
        product.add_product(out, dcols.get(i, {}), {j: 1}, -sa)
        product.add_product(out, {i: 1}, dcols.get(j, {}), -1)
        return {k: out[k] for k in sorted(out) if out[k]}

    # the table refuses the squares the swap rule forces to vanish; the
    # values on pairs i > j must be the ones it derives, compared over the
    # two denominators
    table = StructureTable(space, [((i, j), value(i, j))
                                   for i in range(dim)
                                   for j in range(i, dim)], degree=-1,
                           den=den)
    for i in range(dim):
        for j in range(i):
            if ({k: n * table.den for k, n in value(i, j).items()}
                    != {k: n * den
                        for k, n in table.numerators(i, j).items()}):
                raise AssertionError("generated bracket is not antisymmetric")
    return table


class BVData:
    """A Gerstenhaber algebra together with its generating operator."""

    def __init__(self, algebra, delta):
        if delta.degree != -1:
            raise ValueError("generator must have degree -1")
        self.algebra = algebra
        self.delta = delta

    def generates_bracket(self):
        gen = bracket_from_generator(self.algebra, self.delta)
        table = self.algebra.bracket
        return (gen.den == table.den
                and gen.numerator_rows() == table.numerator_rows())

    # BVData is never mutated, so the Delta-splitting and the formality
    # report are computed on first use and then shared by every check and
    # pipeline run on it
    @cached_property
    def delta_splitting(self):
        return _delta_splitting(self)

    @cached_property
    def formality(self):
        return _formality_report(self)

    @cached_property
    def kernel_algebra(self):
        """(m, incl): ker Delta as a sub-dgLa of the regraded algebra, and
        its inclusion."""
        return regrade_to_lie(self.algebra).sub_algebra(
            self.delta_splitting[0])

    def delta_exact(self):
        return self.delta.compose(self.delta).is_zero()

    def weak_differential(self):
        """[d, Delta] = d Delta + Delta d = 0 (both are odd)."""
        d = self.algebra.d
        return (d.compose(self.delta) + self.delta.compose(d)).is_zero()


def validate_bv(bv):
    """Axiom report for BV data: algebra, differential, and generator.

    Checks product associativity, that d squares to zero and derives the
    product, that Delta squares to zero and graded-commutes with d, and
    that the stored bracket is the one the generator produces.  The
    product table's first_non_associative and first_non_derivation visit
    only the triples and pairs its supports and those of d let fail.
    Witnesses are basis-label pairs or triples for the first failure of
    each kind.
    """
    A = bv.algebra
    labels = A.space.labels
    report = {"passed": True}

    assoc = A.multiply.first_non_associative()
    report["associative"] = assoc is None
    if assoc:
        report["associativity_witness"] = tuple(labels[i] for i in assoc)

    report["d_squared_zero"] = A.d.compose(A.d).is_zero()

    leib = A.multiply.first_non_derivation(A.d)
    report["d_product_derivation"] = leib is None
    if leib:
        report["derivation_witness"] = (labels[leib[0]], labels[leib[1]])

    report["delta_squared_zero"] = bv.delta_exact()
    report["d_delta_commute"] = bv.weak_differential()
    report["bracket_generated"] = bv.generates_bracket()
    report["passed"] = all(report[k] for k in
                           ("associative", "d_squared_zero",
                            "d_product_derivation", "delta_squared_zero",
                            "d_delta_commute", "bracket_generated"))
    return report


def koszul_identity_check(bv):
    """Delta is a derivation of the bracket it generates, when exact:
    Delta[x, y] = [Delta x, y] - (-1)^{|x|} [x, Delta y], the Leibniz rule
    StructureTable.first_non_derivation checks for n = -1.
    """
    if not bv.delta_exact():
        return {"applicable": False, "passed": False,
                "reason": "Delta Delta != 0"}
    return {"applicable": True,
            "passed": bv.algebra.bracket.first_non_derivation(bv.delta)
            is None}


def proposition_37_check(bv):
    """d is a derivation of the bracket when it commutes with Delta
    (Prop. 3.7): d[x, y] = [d x, y] - (-1)^{|x|} [x, d y], the Leibniz
    rule StructureTable.first_non_derivation checks for n = -1.
    """
    if not bv.weak_differential():
        raise ValueError("d does not graded-commute with Delta")
    A = bv.algebra
    return {"passed": A.bracket.first_non_derivation(A.d) is None}


def regrade_to_lie(algebra):
    """The dg Lie algebra with g_n = A^{1-n}.

    Structure constants of bracket and differential carry over verbatim;
    only the grading bookkeeping changes (shifted antisymmetry becomes
    ordinary graded antisymmetry because (p-1)(q-1) has the parity of the
    product of the new degrees).
    """
    space = GradedVectorSpace(
        [(lab, 1 - deg) for lab, deg in algebra.space.basis])
    d = GradedMap.from_columns(space, space, -1, algebra.d.columns,
                               algebra.d.den)
    return DgLieAlgebra(ChainComplex(space, d),
                        algebra.bracket.numerator_rows(),
                        den=algebra.bracket.den)


def _kernel_subspace(op, space):
    """Homogeneous basis of ker(op), as sparse vectors over space."""
    cols = op.columns
    vecs = []
    for deg in sorted(set(space.degrees)):
        vecs.extend({k: Fraction(c, v[f]) for k, c in v.items()}
                    for f, v in linalg.kernel_basis(
                        {s: cols.get(s, {})
                         for s in space.indices_in_degree(deg)}).items())
    return vecs


def _delta_splitting(bv):
    """ker Delta, H(A, Delta) and im Delta (BVData.delta_splitting).

    Returns (ker, basis, reps, image): a homogeneous basis of ker Delta;
    the labels and degrees of the classes of H(A, Delta); a representative
    of each class, grown from ker Delta modulo im Delta; and the echelon
    rows of im Delta.  All vectors are sparse over A.  Every
    vector is homogeneous, so reducing one against image only uses the
    rows of its own degree.  When Delta Delta = 0, reps and image together
    are a basis of ker Delta.
    """
    space = bv.algebra.space
    ker = _kernel_subspace(bv.delta, space)
    image = [row for _, row in linalg.rref(bv.delta.by_column().values())]
    # the representatives are the remainders modulo im Delta and the
    # representatives before them, so that image spans im Delta only
    basis = []
    reps = []
    counters = {}
    for v, rem in zip(ker, linalg.remainders(ker, image)):
        if rem is None:
            continue
        resid, den = rem
        deg = space.vector_degree(v)
        k = counters.get(deg, 0)
        counters[deg] = k + 1
        basis.append(("H%d_%d" % (deg, k), deg))
        reps.append({i: Fraction(c, den) for i, c in resid.items()})
    return ker, basis, reps, image


def _projection_columns(vectors, reps, image):
    """The columns of the projection onto H(A, Delta): column s holds the
    coordinates of vectors[s] over the representatives, modulo im Delta."""
    cols, den = linalg.coordinates(vectors, reps, image)
    if None in cols:
        raise AssertionError("kernel element escaped ker/im analysis")
    return cols, den


def kahler_formality_check(bv):
    """Both comparison maps out of (ker Delta, d) are quasi-isomorphisms.

    The inclusion into (A, d) and the projection onto (H(A, Delta), 0); the
    latter is only a chain map when d(ker Delta) lies in im Delta, which is
    reported separately.  Homology ranks are computed exactly after the
    homological regrading of all three complexes.
    """
    return bv.formality


def _formality_report(bv):
    A = bv.algebra
    space = A.space
    if not A.d.compose(A.d).is_zero():
        raise ValueError("d d != 0")
    if not bv.delta_exact():
        raise ValueError("Delta Delta != 0")
    if not bv.weak_differential():
        raise ValueError("d does not graded-commute with Delta")
    ker, h_basis, h_reps, image = bv.delta_splitting

    neg = GradedVectorSpace([(lab, -deg) for lab, deg in space.basis])
    d_neg = GradedMap.from_columns(neg, neg, -1, A.d.columns, A.d.den)
    A_cx = ChainComplex(neg, d_neg)

    m_space = GradedVectorSpace(
        [("m%d" % i, -space.vector_degree(v)) for i, v in enumerate(ker)])
    d_ker = [A.d(v) for v in ker]
    d_m_cols, den = linalg.solve(ker, d_ker)
    if None in d_m_cols:
        raise AssertionError("ker Delta is not d-stable")
    m_cx = ChainComplex(m_space, GradedMap.from_columns(m_space, m_space, -1,
                                                        d_m_cols, den))
    m_homology = homology(m_cx)  # shared by both comparison maps
    incl = GradedMap.from_columns(m_space, neg, 0, ker)
    first = is_quasi_iso(incl, m_cx, A_cx, m_homology)

    H_space = GradedVectorSpace([(lab, -deg) for lab, deg in h_basis])
    proj = GradedMap.from_columns(m_space, H_space, 0,
                                  *_projection_columns(ker, h_reps, image))
    chain_map = linalg.in_span(image, d_ker)
    second = chain_map and is_quasi_iso(proj, m_cx, ChainComplex(H_space),
                                        m_homology)
    return {
        "inclusion_quasi_iso": first,
        "projection_chain_map": chain_map,
        "projection_quasi_iso": second,
        "passed": first and second,
    }


def theorem_38_pipeline(bv, N):
    """Transfer inside ker Delta and certify the three conclusions.

    Regrades A to a dg Lie algebra, takes the sub-dgLa m = ker Delta,
    extends the projection onto H(A, Delta) to a contraction, and runs the
    vanishing-bracket transfer.  Asserts exactly: (i) Delta o tau = 0,
    (ii) pi tau is the universal twisting cochain, (iii) the values of the
    components tau_k, k >= 2, lie in im Delta.  The kernel sub-dgLa and its
    inclusion are cached on bv (BVData.kernel_algebra), where
    addendum_382_flat_identity, which runs this pipeline, reads them too.
    """
    predicate = bv.formality
    if not predicate["passed"]:
        raise ValueError("formality predicate fails")
    ker, h_basis, h_reps, image = bv.delta_splitting
    m, incl = bv.kernel_algebra

    # regrade H to the Lie side and project m onto it
    H_space = GradedVectorSpace([(lab, 1 - deg) for lab, deg in h_basis])
    m_cols = [incl.apply_basis(s) for s in range(m.space.dim)]
    pi = GradedMap.from_columns(m.space, H_space, 0,
                                *_projection_columns(m_cols, h_reps, image))
    con = contraction_extending_projection(m.complex, pi, H_space)

    result, report = theorem_29_pipeline(m, con, N, inclusion=incl)

    tau_in_A = incl.compose(result.tau.hom)
    # (i) Delta o tau = 0 in A coordinates
    delta_tau_zero = not any(bv.delta(col)
                             for col in tau_in_A.by_column().values())
    # (iii) tau_k values in im Delta for k >= 2
    values_in_im = linalg.in_span(
        image, [col for wi, col in tau_in_A.by_column().items()
                if result.coalg.word_length(wi) >= 2])
    report = dict(report)
    report["delta_tau_zero"] = delta_tau_zero
    report["tau_k_in_im_delta"] = values_in_im
    report["formality"] = predicate
    report["passed"] = (report["passed"] and delta_tau_zero and values_in_im)
    return result, report


def addendum_382_flat_identity(bv, N):
    """Variant with a flat unit: split off the line through 1.

    Requires the unit to span A^0, Delta(1) = 0, d(1) = 0, and the class
    of 1 in H(A, Delta) to be nonzero.  Because the unit spans A^0 the
    deterministic contraction is automatically blockwise (identity on the
    line through 1, homotopy vanishing there), so the transferred tau
    decomposes as the rank-one universal cochain plus a cochain valued in
    the complement; the components tau_k, k >= 2, then take values away
    from the unit line, which is verified exactly.
    """
    A = bv.algebra
    space = A.space
    u = A.unit_index
    if space.degrees[u] != 0 or any(
            space.degrees[i] == 0 for i in range(space.dim) if i != u):
        raise ValueError("A^0 must be spanned by the unit")
    if u in bv.delta.columns:
        raise ValueError("Delta(1) != 0")
    if u in A.d.columns:
        raise ValueError("d(1) != 0")
    # [1] nonzero in homology: 1 must not lie in im Delta, whose degree-0
    # part Delta(A^1) lies on the unit line, since the unit spans A^0
    if any(u in col for col in bv.delta.columns.values()):
        raise ValueError("the class of 1 vanishes in homology")

    result, report = theorem_38_pipeline(bv, N)
    tau_in_A = bv.kernel_algebra[1].compose(result.tau.hom)
    # tau_k values avoid the unit line for k >= 2
    away = all(u not in col for s, col in tau_in_A.columns.items()
               if result.coalg.word_length(s) >= 2)
    report["tau_k_avoids_unit"] = away
    report["passed"] = report["passed"] and away
    return result, report
