"""Chain complexes over Q, homology, and synthesis of contractions.

A contraction (SDR data) of N onto M consists of chain maps pi: N -> M and
nabla: M -> N together with a degree +1 homotopy h on N satisfying

    pi nabla = Id,   Dh = nabla pi - Id,   pi h = 0,  h nabla = 0,  h h = 0.

Once the first two hold, for h of odd degree, the two chain-map
conditions on pi and nabla are both equivalent to one identity on the
small space, pi d nabla = d_small.  d d = 0 holds on every ChainComplex,
because its constructor and perturbed check it.  So D h = d h + h d =
nabla pi - Id gives d (nabla pi - Id) = d h d = (nabla pi - Id) d, that
is d nabla pi = nabla pi d.  If pi is a chain map, pi d nabla = d_small
pi nabla = d_small; if nabla is, pi d nabla = pi nabla d_small = d_small.
Conversely, pi d nabla = d_small gives pi d = pi nabla pi d = pi d nabla
pi = d_small pi and d nabla = d nabla pi nabla = nabla pi d nabla =
nabla d_small, using pi nabla = Id.  Contraction._check_identities
decides both conditions by that one residual then.

build_contraction produces one onto homology for any finite complex, and
contraction_extending_projection one extending a given quasi-isomorphism
onto (H, 0), both along one adapted basis (_adapted); the choices
(pivoting, representatives) are deterministic, so the result is a pure
function of the input.
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
        one common factor, and the identity is tested on ints.

        Once pi nabla = Id and D h = nabla pi - Id hold for an h of odd
        degree, one residual on the small space, pi d nabla = d_small,
        decides both chain-map identities: d d = 0 and D h = nabla pi - Id
        give d nabla pi = nabla pi d, and with pi nabla = Id each
        chain-map identity is then equivalent to pi d nabla = d_small (the
        module docstring has the steps).  d nabla is formed on the columns
        of nabla, and neither pi d nor nabla d_small is formed.  Otherwise
        each chain-map identity is tested on its own.
        """
        maps = (self.big.d, self.small.d, self.nabla, self.pi, self.h)
        m_d, m_s, m_n, m_p, m_h = (f.den for f in maps)
        # the columns of the maps, named after them
        d, d_small, nabla, pi, h = (f.columns for f in maps)
        dim_s, dim = self.small.space.dim, self.big.space.dim
        # D h = d h - (-1)^{|h|} h d
        odd_h = self.h.degree % 2
        sign = 1 if odd_h else -1
        residuals = (
            ([(1, pi, nabla)], -m_p * m_n, dim_s),
            ([(m_n * m_p, d, h), (sign * m_n * m_p, h, d),
              (-m_d * m_h, nabla, pi)], m_d * m_h * m_n * m_p, dim),
            ([(1, pi, h)], 0, 0),
            ([(1, h, nabla)], 0, 0),
            ([(1, h, h)], 0, 0),
        )
        held = [_vanishes(*res) for res in residuals]
        failures = [name for name, ok in zip(_IDENTITIES, held) if not ok]
        if odd_h and held[0] and held[1]:
            # m_s pi (d nabla) - m_p m_d m_n d_small, d nabla on numerators
            d_nabla = {s: self.big.d.add_image({}, col)
                       for s, col in nabla.items()}
            ident = {s: {s: 1} for s in d_small}
            if not _vanishes([(m_s, pi, d_nabla),
                              (-m_p * m_d * m_n, d_small, ident)], 0, 0):
                failures += _IDENTITIES[5:]
            return failures
        chain_maps = (([(m_s, pi, d), (-m_d, d_small, pi)], 0, 0),
                      ([(m_s, d, nabla), (-m_d, nabla, d_small)], 0, 0))
        return failures + [name for name, res
                           in zip(_IDENTITIES[5:], chain_maps)
                           if not _vanishes(*res)]


def _vanishes(terms, unit, dim):
    """Is unit Id + the sum of scale f g over the terms (scale, f, g) zero
    on a space of dimension dim?  f and g are int columns, source ->
    {target: value}, as GradedMap.columns holds them.  The sum is formed
    one column of g at a time, so a column that no term reaches is zero,
    and every other column is tested exactly.  A term whose g hits no
    column of f, no target index of g being a source index of f, is the
    zero map, f g = 0, and is skipped without a walk over g."""
    res = {s: {s: unit} for s in range(dim)}
    for scale, f, g in terms:
        if set().union(*g.values()).isdisjoint(f):
            continue
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
    """A contraction of C onto its homology (zero differential): _adapted
    on the homology representatives, with the unit vectors as candidates.

    Each degree is im(d) + representatives + a complement A of the cycles
    at pivot columns of d, and h is minus the inverse of d on A.  Neither
    refusal of _adapted can happen: d(A) and the representatives are a
    basis of the cycles, d is one-to-one on A, and A is empty above a
    missing degree, where d is zero.
    """
    H, reps = homology(C)
    return _adapted(C, GradedMap.from_columns(H, C.space, 0, reps))


def contraction_extending_projection(C, pi):
    """Extend a chain map pi: C -> (pi.target, 0) to a contraction.

    Refuses pi (ValueError) unless pi d = 0, pi has a cycle-valued section
    and ker pi is acyclic: by the long exact sequence of
    0 -> ker pi -> C -> H -> 0, the last two say pi is a quasi-isomorphism.
    _adapted picks A from the rref of the columns of Id - nabla pi.
    """
    if not pi.compose(C.d).is_zero():
        raise ValueError("projection is not a chain map")
    space = C.space
    # nabla solves pi(v) = e_k and d(v) = 0 (d's rows on numerators)
    shift = pi.target.dim
    joint = [pi.apply_basis(s) for s in range(space.dim)]
    for s, col in C.d.columns.items():
        joint[s].update((shift + t, c) for t, c in col.items())
    nabla_cols, den = linalg.solve(joint, [{k: 1} for k in range(shift)])
    if None in nabla_cols:
        raise ValueError("projection admits no cycle-valued section")
    nabla = GradedMap.from_columns(pi.target, space, 0, nabla_cols, den)

    by_degree = {}
    for s, col in (GradedMap.identity(space)
                   - nabla.compose(pi)).columns.items():
        by_degree.setdefault(space.degrees[s], []).append(col)
    candidates = {n: [row for _, row in linalg.rref(cols)]
                  for n, cols in by_degree.items()}
    return _adapted(C, nabla, candidates, pi)


def _adapted(C, nabla, candidates=None, pi=None):
    """The contraction of C onto (nabla.source, 0), nabla a section by
    cycles, along a basis [d(A_{n+1}) | nabla | A_n] of each degree n.

    From the top degree down, one solve per degree takes the unit vectors
    over [d(A_{n+1}) | nabla | candidates[n] (unit vectors if None)]: A_n
    is the candidates at pivot columns, h sends d(a) to -a, and pi, unless
    given, is the coordinates over nabla (d and nabla read on numerators).
    ValueError when the columns are not a basis of some degree, or when a
    nonempty A lies above a missing degree or below the lowest one, where d
    kills it; else the cycles of degree n are d(A_{n+1}) + nabla H_n, and
    d is one-to-one on A_n.  nabla H and the candidates span each degree
    in both callers, so every unit vector has a solution.

    For a projection pi, h is build_contraction's on (ker pi, d) on the
    candidates, carried back along Id - nabla pi: the candidates lie in
    ker pi, which meets nabla H only in 0, so a candidate is a pivot
    exactly when it is one after d(A) alone; and pi(e_t) = y in
    e_t = sum x d(a) + sum y nabla + sum z c, so the coordinates of e_t
    over d(A) are those of (Id - nabla pi) e_t.
    """
    space = C.space
    small = ChainComplex(nabla.source)
    d_cols, m_d, m_n = C.d.columns, C.d.den, nabla.den
    none = {}
    parts = []     # (den, pi columns, h columns) of each degree
    a_above, images = [], []   # A of the degree taken last, and d(A)
    degrees = sorted(set(space.degrees), reverse=True)
    for n, below in zip(degrees, degrees[1:] + [None]):
        idx_n = space.indices_in_degree(n)
        sections = small.space.indices_in_degree(n)
        b = len(images)
        block = images + [nabla.columns.get(k, none) for k in sections]
        m = len(block)
        units = [{s: 1} for s in idx_n]
        cands = units if candidates is None else candidates.get(n, [])
        coords, den = linalg.solve(block + cands, units)
        pi_cols, h_cols = {}, {}
        kept = set()
        for t, x in zip(idx_n, coords):
            for pos, c in x.items():
                if pos >= m:
                    kept.add(pos - m)
                elif pos >= b:
                    pi_cols.setdefault(t, {})[sections[pos - b]] = c * m_n
                else:   # h sends d(a) to -a
                    acc = h_cols.setdefault(t, {})
                    c *= -m_d
                    for s, v in a_above[pos].items():
                        acc[s] = acc.get(s, 0) + c * v
        if m + len(kept) != len(idx_n) or kept and below != n - 1:
            raise ValueError("projection is not a quasi-isomorphism")
        parts.append((den, pi_cols, h_cols))
        kept = sorted(kept)
        a_above = [cands[i] for i in kept]
        images = ([d_cols.get(idx_n[i], none) for i in kept]
                  if candidates is None else
                  [{t: c for t, c in C.d.add_image({}, a).items() if c}
                   for a in a_above])

    # one den for all degrees
    den = lcm(*(part[0] for part in parts))
    pi_cols, h_cols = {}, {}
    for m, *cols in parts:
        f = den // m
        for out, part in zip((pi_cols, h_cols), cols):
            for t, col in part.items():
                out[t] = {k: c * f for k, c in col.items()} if f != 1 else col
    if pi is None:
        pi = GradedMap.from_columns(space, small.space, 0, pi_cols, den)
    h = GradedMap.from_columns(space, space, 1, h_cols, den)
    return Contraction(C, small, nabla, pi, h)


def induced_map_on_homology(f, C_src, C_tgt):
    """H(f) with respect to the chosen homology bases, as a GradedMap.

    Returns (H(f), H_src, H_tgt).  f must be a chain map of degree 0.
    """
    H_src, reps_src = homology(C_src)
    H_tgt, reps_tgt = homology(C_tgt)
    # express each f(rep) in homology of the target: one solve against
    # [reps | im d]
    cols, den = linalg.coordinates([f(rep) for rep in reps_src], reps_tgt,
                                   list(C_tgt.d.columns.values()))
    if None in cols:
        raise ValueError("f(cycle) is not a cycle mod boundaries")
    return GradedMap.from_columns(H_src, H_tgt, 0, cols, den), H_src, H_tgt


def is_quasi_iso(f, C_src, C_tgt):
    M, H_src, H_tgt = induced_map_on_homology(f, C_src, C_tgt)
    return (H_src.dim == H_tgt.dim
            and linalg.rank(M.columns.values()) == H_src.dim)
