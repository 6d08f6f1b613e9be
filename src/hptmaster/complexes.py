"""Chain complexes over Q, homology, and synthesis of contractions.

A contraction (SDR data) of N onto M consists of chain maps pi: N -> M and
nabla: M -> N together with a degree +1 homotopy h on N satisfying

    pi nabla = Id,   Dh = nabla pi - Id,   pi h = 0,  h nabla = 0,  h h = 0.

build_contraction produces one onto homology for any finite complex; the
choices (pivoting, representatives) are deterministic, so the result is a
pure function of the input.
"""

from fractions import Fraction
from math import lcm

from . import linalg
from .graded import GradedMap, GradedVectorSpace

# names of the contraction identities, in the order identity_failures
# reports them
_IDENTITIES = ("pi nabla != Id", "Dh != nabla pi - Id", "pi h != 0",
              "h nabla != 0", "h h != 0", "pi not a chain map",
              "nabla not a chain map")


class ChainComplex:
    """A graded space with a degree -1 differential squaring to zero."""

    def __init__(self, space, d=None):
        self.space = space
        if d is None:
            d = GradedMap.zero(space, space, -1)
        if d.degree != -1 or d.source != space or d.target != space:
            raise ValueError("differential must be a degree -1 endomorphism")
        if not d.compose(d).is_zero():
            raise ValueError("d o d != 0")
        self.d = d

    def perturbed(self, delta):
        """The complex (space, d + delta), raising like the constructor.
        d^2 = 0 was checked on self, so of (d + delta)^2 only the rest,
        (d + delta) delta + delta d, is tested, as one residual on
        numerators: d.den d_new.den delta.den times the sum."""
        d = self.d
        d_new = d + delta
        if not _vanishes([(d.den, d_new.columns, delta.columns),
                          (d_new.den, delta.columns, d.columns)], 0, 0):
            raise ValueError("d o d != 0")
        out = ChainComplex.__new__(ChainComplex)
        out.space, out.d = self.space, d_new
        return out

    @property
    def dim(self):
        return self.space.dim

    def __eq__(self, other):
        return (isinstance(other, ChainComplex)
                and self.space == other.space and self.d == other.d)


class Contraction:
    """SDR data (nabla, pi, h) between big and small chain complexes,
    never mutated, so that its verdict is computed once and carried."""

    def __init__(self, big, small, nabla, pi, h, check=True):
        self.big = big
        self.small = small
        self.nabla = nabla
        self.pi = pi
        self.h = h
        self._failures = None
        if check:
            errs = self.identity_failures()
            if errs:
                raise ValueError("invalid contraction: " + ", ".join(errs))

    def identity_failures(self):
        """Names of the defining identities that fail (empty list = valid),
        computed on the first call and copied out on every call."""
        if self._failures is None:
            self._failures = self._check_identities()
        return list(self._failures)

    def _check_identities(self):
        """The failing identities, each tested as one residual, the sum of
        its terms f g over every column (_vanishes).

        The terms are taken on numerators, so a composite f g comes out
        f.den g.den times too large; each term of an identity is scaled to
        one common factor, and the identity is tested on ints."""
        maps = (self.big.d, self.small.d, self.nabla, self.pi, self.h)
        m_d, m_s, m_n, m_p, m_h = (f.den for f in maps)
        # the columns of the maps, named after them
        d, d_small, nabla, pi, h = (f.columns for f in maps)
        dim_s, dim = self.small.space.dim, self.big.space.dim
        # D h = d h - (-1)^{|h|} h d
        sign = 1 if self.h.degree % 2 else -1
        residuals = (
            ([(1, pi, nabla)], -m_p * m_n, dim_s),
            ([(m_n * m_p, d, h), (sign * m_n * m_p, h, d),
              (-m_d * m_h, nabla, pi)], m_d * m_h * m_n * m_p, dim),
            ([(1, pi, h)], 0, 0),
            ([(1, h, nabla)], 0, 0),
            ([(1, h, h)], 0, 0),
            ([(m_s, pi, d), (-m_d, d_small, pi)], 0, 0),
            ([(m_s, d, nabla), (-m_d, nabla, d_small)], 0, 0),
        )
        return [name for name, res in zip(_IDENTITIES, residuals)
                if not _vanishes(*res)]


def _vanishes(terms, unit, dim):
    """Is unit Id + the sum of scale f g over the terms (scale, f, g) zero
    on a space of dimension dim?  f and g are int columns, source ->
    {target: value}, as GradedMap.columns holds them.  The sum is formed
    one column of g at a time, so a column that no term reaches is zero,
    and every other column is tested exactly."""
    res = {s: {s: unit} for s in range(dim)}
    for scale, f, g in terms:
        for s, col in g.items():
            acc = res.get(s)
            if acc is None:
                acc = res[s] = {}
            for m, c in col.items():
                f_col = f.get(m)
                if f_col:
                    c *= scale
                    for t, n in f_col.items():
                        acc[t] = acc.get(t, 0) + c * n
    return not any(any(acc.values()) for acc in res.values())


def homology(C):
    """A chosen basis of ker d / im d, as a GradedVectorSpace.

    Returns (H, representatives) where representatives[i] is a cycle in C
    (a sparse vector of Fractions) representing the i-th basis class.
    Classes are reduced row echelon representatives of ker d modulo im d;
    labels are "h{n}_{k}" for the k-th class in degree n.  Each kernel
    vector of degree n is reduced modulo the image of d from degree n+1
    and the classes kept before it, on the int columns of d
    (linalg.remainders); a remainder r that is not zero gives the
    representative r / r[lead], lead its first index.
    """
    space = C.space
    d_cols = C.d.columns
    none = {}
    reps = []
    labels = []
    for n in sorted(set(space.degrees)):
        kern = linalg.kernel_basis(
            {s: d_cols.get(s, none) for s in space.indices_in_degree(n)})
        image = (d_cols.get(s, none) for s in space.indices_in_degree(n + 1))
        k = 0
        for rem in linalg.remainders(kern.values(), image):
            if rem is not None:
                resid = rem[0]
                lead = resid[min(resid)]
                reps.append({i: Fraction(c, lead) for i, c in resid.items()})
                labels.append((f"h{n}_{k}", n))
                k += 1
    return GradedVectorSpace(labels), reps


def build_contraction(C):
    """A contraction of C onto its homology (zero differential).

    Decompose each degree as im(d) + homology representatives + a complement
    A of the cycles; d maps A isomorphically onto the next im(d), and h is
    minus the inverse of that isomorphism (zero elsewhere).  All five
    contraction identities then hold on the nose.

    Degrees are taken from the top down, so d(A_{n+1}) is known in degree
    n, and each takes one elimination: it solves for the unit vectors of
    degree n over the int columns of d on A_{n+1}, the representatives and
    then the unit vectors themselves.  The unit vectors it keeps as pivot
    columns complete the cycles to a basis in index order; since d kills
    exactly the cycles, they sit at the pivot columns of d, and they are
    A_n.  The solutions are the coordinates over that adapted basis, int
    numerators over one den per degree; a coordinate over a column of d
    is d.den times the one over its numerators.
    """
    space = C.space
    H, reps = homology(C)
    small = ChainComplex(H)
    d_cols = C.d.columns
    m_d = C.d.den

    parts = []     # (den, pi columns, h columns) of each degree
    a_above = []   # A of the degree taken last, in index order
    for n in sorted(set(space.degrees), reverse=True):
        idx_n = space.indices_in_degree(n)
        # the adapted basis [d(A_{n+1}) | reps | A_n] of degree n, with
        # tags ("b", a_index) | ("h", class_index) for its first part
        tags = ([("b", j) for j in a_above if space.degrees[j] == n + 1]
                + [("h", k) for k in range(H.dim) if H.degrees[k] == n])
        block = [d_cols[j] if kind == "b" else reps[j] for kind, j in tags]
        m = len(tags)
        units = [{s: 1} for s in idx_n]
        coords, den = linalg.solve(block + units, units)
        pi_cols, h_cols = {}, {}
        kept = set()
        for t, x in zip(idx_n, coords):
            for pos, c in x.items():
                if pos >= m:
                    kept.add(idx_n[pos - m])
                    continue
                kind, ref = tags[pos]
                if kind == "h":
                    pi_cols.setdefault(t, {})[ref] = c
                else:
                    # h sends d(a) to -a
                    h_cols.setdefault(t, {})[ref] = -c * m_d
        parts.append((den, pi_cols, h_cols))
        a_above = sorted(kept)
        if m + len(a_above) != len(idx_n):
            raise AssertionError("adapted basis does not span degree %d" % n)

    # one den for all degrees
    den = lcm(*(part[0] for part in parts))
    pi_cols, h_cols = {}, {}
    for m, *cols in parts:
        f = den // m
        for out, part in zip((pi_cols, h_cols), cols):
            for t, col in part.items():
                out[t] = {k: c * f for k, c in col.items()} if f != 1 else col

    nabla = GradedMap.from_columns(small.space, space, 0, reps)
    pi = GradedMap.from_columns(space, small.space, 0, pi_cols, den)
    h = GradedMap.from_columns(space, space, 1, h_cols, den)
    return Contraction(C, small, nabla, pi, h)


def contraction_extending_projection(C, pi):
    """Extend a surjective chain map pi: C -> (pi.target, 0) to a
    contraction.

    Requires pi to be a quasi-isomorphism onto its target with zero
    differential.  nabla is chosen with image in ker d, determined by the
    deterministic solve; h contracts the acyclic complement ker(pi-part).
    """
    small = ChainComplex(pi.target)
    space = C.space

    # nabla: a section of pi with values in ker d; its columns solve
    # pi(v) = e_k and d(v) = 0 jointly, with d's rows after pi's
    shift = small.space.dim
    joint = [pi.apply_basis(s) for s in range(space.dim)]
    for s, col in C.d.by_column().items():
        joint[s].update((shift + t, c) for t, c in col.items())
    nabla_cols, den = linalg.solve(joint, [{k: 1} for k in range(shift)])
    if None in nabla_cols:
        raise ValueError("projection admits no cycle-valued section")
    nabla = GradedMap.from_columns(small.space, space, 0, nabla_cols, den)

    # acyclic complement: the image of Id - nabla pi, with an echelon
    # basis in each degree
    proj = GradedMap.identity(space) - nabla.compose(pi)
    proj_cols = proj.by_column()
    sub_basis = []
    for deg in sorted({space.degrees[s] for s in proj_cols}):
        sub_basis.extend(row for _, row in linalg.rref(
            col for s, col in proj_cols.items() if space.degrees[s] == deg))
    sub_space = GradedVectorSpace(
        [("c%d" % i, space.vector_degree(v)) for i, v in enumerate(sub_basis)])
    # one elimination gives d on the complement and the coordinates of the
    # columns of Id - nabla pi
    n_sub = len(sub_basis)
    coords, den = linalg.solve(
        sub_basis, [C.d(v) for v in sub_basis]
        + [proj_cols.get(s, {}) for s in range(space.dim)])
    if None in coords[:n_sub]:
        raise AssertionError("complement not d-stable")
    if None in coords[n_sub:]:
        raise AssertionError("projection image escaped the complement")
    sub = ChainComplex(sub_space, GradedMap.from_columns(
        sub_space, sub_space, -1, coords[:n_sub], den))
    sub_con = build_contraction(sub)
    if sub_con.small.space.dim != 0:
        raise ValueError("projection is not a quasi-isomorphism")
    # transport h of the acyclic complement back to C
    incl = GradedMap.from_columns(sub_space, space, 0, sub_basis)
    to_sub = GradedMap.from_columns(space, sub_space, 0, coords[n_sub:], den)
    h = incl.compose(sub_con.h).compose(to_sub)
    return Contraction(C, small, nabla, pi, h)


def induced_map_on_homology(f, C_src, C_tgt, src_homology=None):
    """H(f) with respect to the chosen homology bases, as a GradedMap.

    Returns (H(f), H_src, H_tgt).  f must be a chain map of degree 0.
    src_homology, when given, is homology(C_src) computed earlier.
    """
    H_src, reps_src = src_homology or homology(C_src)
    H_tgt, reps_tgt = homology(C_tgt)
    # express each f(rep) in homology of the target: one solve against
    # [reps | im d]
    cols, den = linalg.coordinates([f(rep) for rep in reps_src], reps_tgt,
                                   list(C_tgt.d.columns.values()))
    if None in cols:
        raise ValueError("f(cycle) is not a cycle mod boundaries")
    return GradedMap.from_columns(H_src, H_tgt, 0, cols, den), H_src, H_tgt


def is_quasi_iso(f, C_src, C_tgt, src_homology=None):
    M, H_src, H_tgt = induced_map_on_homology(f, C_src, C_tgt, src_homology)
    return (H_src.dim == H_tgt.dim
            and linalg.rank(M.columns.values()) == H_src.dim)
