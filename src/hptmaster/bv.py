"""BV algebras, their generated brackets, and the odd-Laplacian pipeline.

This module works in cohomological degrees: the product has degree 0, the
bracket degree -1, a differential d degree +1, a generator Delta degree -1.
A BV problem is one BVData, built once: its bracket is given, or else
generated from Delta once, at construction, on the pairs i <= j.
The regrading g_n = A^{1-n} turns the bracket into an ordinary degree-0
graded Lie bracket with homological differential, with the same structure
constants; everything downstream (transfer, twisting cochains) runs on the
regraded side.  There BVData.kernel_algebra builds the one copy of
(ker Delta, d), a sub-dgLa, with its inclusion and its projection onto
H(A, Delta), and BVData.contraction the one contraction extending that
projection: the formality predicate reads its verdict off them, and both
Thm 3.8 pipelines contract along it.
"""

from fractions import Fraction
from functools import cached_property

from . import linalg
from .complexes import (ChainComplex, contraction_extending_projection,
                        is_quasi_iso)
from .dgla import DgLieAlgebra
from .graded import GradedMap, GradedVectorSpace, StructureTable
from .transfer import theorem_29_pipeline


def bracket_from_generator(product, delta):
    """The bracket measured by the failure of Delta to be a derivation of
    the product table `product`.

    [a, b] = (-1)^{|a|} F(a, b), where
    F(a, b) = Delta(ab) - (Delta a) b - (-1)^{|a|} a (Delta b).
    Returns the StructureTable of the bracket, evaluated on the pairs
    i <= j only.  The table derives the others by its swap rule, which the
    formula obeys: graded commutativity of the product, applied also to
    the homogeneous Delta b of degree |b| - 1, gives
    F(b, a) = (-1)^{|a||b|} F(a, b), so
    [b, a] = (-1)^{|a|+|b|+|a||b|} [a, b] = -(-1)^{(|a|-1)(|b|-1)} [a, b],
    the swap rule of a degree -1 table.  For odd a it gives [a, a] = 0, so
    the table's refusal of the squares that rule forces to vanish never
    fires.  Neither argument uses associativity.
    """
    if delta.degree != -1:
        raise ValueError("generator must have degree -1")
    space = product.space
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

    return StructureTable(space, [((i, j), value(i, j))
                                  for i in range(space.dim)
                                  for j in range(i, space.dim)],
                          degree=-1, den=den)


class BVData:
    """A BV algebra, cohomological: a graded commutative product with a
    unit, a degree -1 generator Delta, its degree -1 bracket and an
    optional degree +1 differential d.

    multiply is the StructureTable of the product, built from rows
    (i, j) -> {k: c} in either index order, with the unit's rows
    1 x = x 1 = x written in (rows given for the unit are replaced).
    bracket is the table of the bracket, whose swap rule is the shifted
    antisymmetry [b,a] = -(-1)^{(|a|-1)(|b|-1)}[a,b]: built from
    bracket_rows when they are given, and otherwise generated from Delta
    once, here (bracket_from_generator).
    """

    def __init__(self, space, product_rows, delta, bracket_rows=None, d=None,
                 unit_index=0):
        self.space = space
        self.unit_index = unit_index
        if not 0 <= unit_index < space.dim:
            raise ValueError("unit: no basis element at position %d"
                             % unit_index)
        if space.degrees[unit_index] != 0:
            raise ValueError("unit: %r must have degree 0"
                             % space.labels[unit_index])
        if isinstance(product_rows, dict):
            product_rows = product_rows.items()
        rows = [(key, val) for key, val in product_rows
                if unit_index not in key]
        rows += [((unit_index, j), {j: 1}) for j in range(space.dim)]
        self.multiply = StructureTable(space, rows, symmetric=True)
        if d is None:
            d = GradedMap.zero(space, space, 1)
        if d.degree != 1:
            raise ValueError("differential must have degree +1")
        self.d = d
        if delta.degree != -1:
            raise ValueError("generator must have degree -1")
        self.delta = delta
        self.bracket_given = bracket_rows is not None
        if self.bracket_given:
            self.bracket = StructureTable(space, bracket_rows, degree=-1)
        else:
            self.bracket = bracket_from_generator(self.multiply, delta)

    def generates_bracket(self):
        """Whether the bracket is the one Delta generates: so by
        construction when it was generated; a given bracket is compared
        with one generation."""
        if not self.bracket_given:
            return True
        gen = bracket_from_generator(self.multiply, self.delta)
        return (gen.den == self.bracket.den
                and gen.numerator_rows() == self.bracket.numerator_rows())

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
        """(lie, m, incl, pi): the regraded dgLa, its sub-dgLa m =
        (ker Delta, d) with the inclusion, and the projection of m onto
        H(A, Delta).  The formality report checks these maps and the
        pipelines contract along them.  Raises ValueError when the bracket
        leaves ker Delta (kahler_formality_check)."""
        ker, h_basis, reps, image = self.delta_splitting
        lie = regrade_to_lie(self)
        m, incl = lie.sub_algebra(ker)
        # column s of pi: the coordinates of the s-th basis vector of m over
        # the representatives, modulo im Delta
        cols, den = linalg.coordinates(
            [incl.apply_basis(s) for s in range(m.space.dim)], reps, image)
        if None in cols:
            raise AssertionError("kernel element escaped ker/im analysis")
        H = GradedVectorSpace([(lab, 1 - deg) for lab, deg in h_basis])
        return lie, m, incl, GradedMap.from_columns(m.space, H, 0, cols, den)

    @cached_property
    def contraction(self):
        """The extension of kernel_algebra's pi to a contraction, or None
        when it proves pi is not a quasi-isomorphism: a chain map onto
        (H, 0) is one exactly when it has a cycle-valued section and an
        acyclic kernel (long exact sequence of 0 -> ker pi -> m -> H -> 0).
        Any other fault propagates."""
        _, m, _, pi = self.kernel_algebra
        try:
            return contraction_extending_projection(m.complex, pi)
        except ValueError as exc:
            if str(exc) not in ("projection admits no cycle-valued section",
                                "projection is not a quasi-isomorphism"):
                raise
            return None

    def delta_exact(self):
        return self.delta.compose(self.delta).is_zero()

    def weak_differential(self):
        """[d, Delta] = d Delta + Delta d = 0 (both are odd)."""
        return (self.d.compose(self.delta)
                + self.delta.compose(self.d)).is_zero()


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
    labels = bv.space.labels
    report = {"passed": True}

    assoc = bv.multiply.first_non_associative()
    report["associative"] = assoc is None
    if assoc:
        report["associativity_witness"] = tuple(labels[i] for i in assoc)

    report["d_squared_zero"] = bv.d.compose(bv.d).is_zero()

    leib = bv.multiply.first_non_derivation(bv.d)
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
            "passed": bv.bracket.first_non_derivation(bv.delta)
            is None}


def proposition_37_check(bv):
    """d is a derivation of the bracket when it commutes with Delta
    (Prop. 3.7): d[x, y] = [d x, y] - (-1)^{|x|} [x, d y], the Leibniz
    rule StructureTable.first_non_derivation checks for n = -1.
    """
    if not bv.weak_differential():
        raise ValueError("d does not graded-commute with Delta")
    return {"passed": bv.bracket.first_non_derivation(bv.d) is None}


def regrade_to_lie(bv):
    """The dg Lie algebra with g_n = A^{1-n}, for the BVData bv.

    Structure constants of bracket and differential carry over verbatim;
    only the grading bookkeeping changes (shifted antisymmetry becomes
    ordinary graded antisymmetry because (p-1)(q-1) has the parity of the
    product of the new degrees).
    """
    space = GradedVectorSpace(
        [(lab, 1 - deg) for lab, deg in bv.space.basis])
    d = GradedMap.from_columns(space, space, -1, bv.d.columns, bv.d.den)
    return DgLieAlgebra(ChainComplex(space, d), bv.bracket.numerator_rows(),
                        den=bv.bracket.den)


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
    space = bv.space
    ker = _kernel_subspace(bv.delta, space)
    image = [row for _, row in linalg.rref(bv.delta.columns.values())]
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


def kahler_formality_check(bv):
    """Both comparison maps out of (ker Delta, d) are quasi-isomorphisms:
    the inclusion into (A, d), by its map on homology, and the projection
    onto (H(A, Delta), 0), a chain map exactly when d(ker Delta) lies in
    im Delta (reported separately), by BVData.contraction.  The maps are
    BVData.kernel_algebra's, in the grading g_n = A^{1-n}.

    Raises ValueError when d d, Delta Delta or d Delta + Delta d is not
    zero, and ValueError("subspace is not closed") when ker Delta is not
    closed under the bracket.  A bracket that Delta generates never is, if
    Delta Delta = 0: on a, b in ker Delta, [a, b] = (-1)^{|a|} Delta(ab),
    which Delta kills (the Koszul identity, Delta deriving the bracket it
    generates, restricted to ker Delta).  So only a given bracket that
    fails validate_bv's bracket_generated can raise it, and the bv
    subcommand stops at validate_bv before.  d maps ker Delta into itself
    because Delta d = -d Delta.
    """
    return bv.formality


def _formality_report(bv):
    if not bv.d.compose(bv.d).is_zero():
        raise ValueError("d d != 0")
    if not bv.delta_exact():
        raise ValueError("Delta Delta != 0")
    if not bv.weak_differential():
        raise ValueError("d does not graded-commute with Delta")
    lie, m, incl, pi = bv.kernel_algebra
    first = is_quasi_iso(incl, m.complex, lie.complex)
    # pi kills d(ker Delta) exactly when d(ker Delta) lies in im Delta, as
    # reps and im Delta are a basis of ker Delta (_delta_splitting)
    chain_map = pi.compose(m.d).is_zero()
    second = chain_map and bv.contraction is not None
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
    components tau_k, k >= 2, lie in im Delta.  The kernel sub-dgLa, its
    inclusion and the contraction are those the formality predicate
    checked (BVData.kernel_algebra and contraction), where
    addendum_382_flat_identity, which runs this pipeline, reads the
    inclusion too.
    """
    predicate = bv.formality
    if not predicate["passed"]:
        raise ValueError("formality predicate fails")
    image = bv.delta_splitting[3]
    _, m, incl, _ = bv.kernel_algebra
    result, report = theorem_29_pipeline(m, bv.contraction, N,
                                         inclusion=incl)

    tau_in_A = incl.compose(result.tau.hom)
    # (i) Delta o tau = 0 in A coordinates
    delta_tau_zero = not any(bv.delta(col)
                             for col in tau_in_A.columns.values())
    # (iii) tau_k values in im Delta for k >= 2
    values_in_im = linalg.in_span(
        image, [col for wi, col in tau_in_A.columns.items()
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
    space = bv.space
    u = bv.unit_index
    if space.degrees[u] != 0 or any(
            space.degrees[i] == 0 for i in range(space.dim) if i != u):
        raise ValueError("A^0 must be spanned by the unit")
    if u in bv.delta.columns:
        raise ValueError("Delta(1) != 0")
    if u in bv.d.columns:
        raise ValueError("d(1) != 0")
    # [1] nonzero in homology: 1 must not lie in im Delta, whose degree-0
    # part Delta(A^1) lies on the unit line, since the unit spans A^0
    if any(u in col for col in bv.delta.columns.values()):
        raise ValueError("the class of 1 vanishes in homology")

    result, report = theorem_38_pipeline(bv, N)
    tau_in_A = bv.kernel_algebra[2].compose(result.tau.hom)
    # tau_k values avoid the unit line for k >= 2
    away = all(u not in col for s, col in tau_in_A.columns.items()
               if result.coalg.word_length(s) >= 2)
    report["tau_k_avoids_unit"] = away
    report["passed"] = report["passed"] and away
    return result, report
