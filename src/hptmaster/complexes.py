"""Chain complexes over Q, homology, and synthesis of contractions.

A contraction (SDR data) of N onto M consists of chain maps pi: N -> M and
nabla: M -> N together with a degree +1 homotopy h on N satisfying

    pi nabla = Id,   Dh = nabla pi - Id,   pi h = 0,  h nabla = 0,  h h = 0.

build_contraction produces one onto homology for any finite complex; the
choices (pivoting, representatives) are deterministic, so the result is a
pure function of the input.
"""

from . import linalg
from .graded import GradedMap, GradedVectorSpace, ONE

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
        (d + delta) delta + delta d, is tested, one column at a time on
        numerators: d.den d_new.den delta.den times the column."""
        d = self.d
        d_new = d + delta
        d_cols, delta_cols = d.num_columns(), delta.num_columns()
        for s in set(d_cols).union(delta_cols):
            col = d_new.add_image({}, delta_cols.get(s, {}), d.den)
            delta.add_image(col, d_cols.get(s, {}), d_new.den)
            if any(col.values()):
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
        """The failing identities, checked column by column on sparse
        images: one pass over the basis of the small space (pi nabla = Id,
        h nabla = 0, nabla a chain map) and one over the big space (the
        other four).

        The images are taken on numerators, so a composite f g comes out
        f.den g.den times too large; each term of an identity is scaled to
        one common factor, and the identity is tested on ints."""
        d, d_small = self.big.d, self.small.d
        nabla, pi, h = self.nabla, self.pi, self.h
        d_cols, d_small_cols = d.num_columns(), d_small.num_columns()
        nabla_cols, pi_cols, h_cols = (
            nabla.num_columns(), pi.num_columns(), h.num_columns())
        m_d, m_s, m_n, m_p, m_h = (d.den, d_small.den, nabla.den, pi.den,
                                   h.den)
        # D h = d h - (-1)^{|h|} h d
        sign = 1 if h.degree % 2 else -1
        failed = set()
        for s in range(self.small.space.dim):
            ns = nabla_cols.get(s, {})
            if any(pi.add_image({s: -m_p * m_n}, ns).values()):
                failed.add("pi nabla != Id")
            if any(h.add_image({}, ns).values()):
                failed.add("h nabla != 0")
            acc = nabla.add_image(d.add_image({}, ns, m_s),
                                  d_small_cols.get(s, {}), -m_d)
            if any(acc.values()):
                failed.add("nabla not a chain map")
        for s in range(self.big.space.dim):
            hs, ds = h_cols.get(s, {}), d_cols.get(s, {})
            ps = pi_cols.get(s, {})
            acc = d.add_image({s: m_d * m_h * m_n * m_p}, hs, m_n * m_p)
            h.add_image(acc, ds, sign * m_n * m_p)
            if any(nabla.add_image(acc, ps, -m_d * m_h).values()):
                failed.add("Dh != nabla pi - Id")
            if any(pi.add_image({}, hs).values()):
                failed.add("pi h != 0")
            if any(h.add_image({}, hs).values()):
                failed.add("h h != 0")
            acc = d_small.add_image(pi.add_image({}, ds, m_s), ps, -m_d)
            if any(acc.values()):
                failed.add("pi not a chain map")
        return [name for name in _IDENTITIES if name in failed]


def homology(C):
    """A chosen basis of ker d / im d, as a GradedVectorSpace.

    Returns (H, representatives) where representatives[i] is a cycle in C
    (a sparse vector) representing the i-th basis class.  Classes are
    reduced row echelon representatives of ker d modulo im d; labels are
    "h{n}_{k}" for the k-th class in degree n.
    """
    space = C.space
    d_cols = C.d.by_column()
    reps = []
    labels = []
    for n in sorted(set(space.degrees)):
        kern = linalg.kernel_basis(
            {s: d_cols.get(s, {}) for s in space.indices_in_degree(n)})
        # echelon rows spanning the image of d from degree n+1; extend by
        # kernel vectors
        span = linalg.rref(d_cols.get(s, {})
                           for s in space.indices_in_degree(n + 1))
        k = 0
        for v in kern.values():
            resid = linalg.reduce_against(v, span)
            if resid is not None:
                lead = min(resid)
                resid = {i: c / resid[lead] for i, c in resid.items()}
                span.append((lead, resid))
                reps.append(resid)
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
    degree n over the columns d(A_{n+1}), the representatives and then
    the unit vectors themselves.  The unit vectors it keeps as pivot
    columns complete the cycles to a basis in index order; since d kills
    exactly the cycles, they sit at the pivot columns of d, and they are
    A_n.  The solutions are the coordinates over that adapted basis.
    """
    space = C.space
    H, reps = homology(C)
    small = ChainComplex(GradedVectorSpace(H.basis))
    d_cols = C.d.by_column()

    pi_ent = {}
    h_ent = {}
    a_above = []   # A of the degree taken last, in index order
    for n in sorted(set(space.degrees), reverse=True):
        idx_n = space.indices_in_degree(n)
        # the adapted basis [d(A_{n+1}) | reps | A_n] of degree n, with
        # tags ("b", a_index) | ("h", class_index) for its first part
        tags = ([("b", j) for j in a_above if space.degrees[j] == n + 1]
                + [("h", k) for k in range(H.dim) if H.degrees[k] == n])
        block = [d_cols[j] if kind == "b" else reps[j] for kind, j in tags]
        m = len(tags)
        units = [{s: ONE} for s in idx_n]
        kept = set()
        for t, coords in zip(idx_n, linalg.solve(block + units, units)):
            for pos, c in coords.items():
                if pos >= m:
                    kept.add(idx_n[pos - m])
                    continue
                kind, ref = tags[pos]
                if kind == "h":
                    pi_ent[(ref, t)] = c
                else:
                    # h sends d(a) to -a
                    h_ent[(ref, t)] = -c
        a_above = sorted(kept)
        if m + len(a_above) != len(idx_n):
            raise AssertionError("adapted basis does not span degree %d" % n)

    nabla = GradedMap.from_columns(small.space, space, 0, reps)
    pi = GradedMap(space, small.space, 0, pi_ent)
    h = GradedMap(space, space, 1, h_ent)
    return Contraction(C, small, nabla, pi, h)


def contraction_extending_projection(C, pi, small_space):
    """Extend a surjective chain map pi: C -> (small, 0) to a contraction.

    Requires pi to be a quasi-isomorphism onto a complex with zero
    differential.  nabla is chosen with image in ker d, determined by the
    deterministic solve; h contracts the acyclic complement ker(pi-part).
    """
    small = ChainComplex(GradedVectorSpace(small_space.basis))
    space = C.space

    # nabla: a section of pi with values in ker d; its columns solve
    # pi(v) = e_k and d(v) = 0 jointly, with d's rows after pi's
    shift = small.space.dim
    joint = [pi.apply_basis(s) for s in range(space.dim)]
    for s, col in C.d.by_column().items():
        joint[s].update((shift + t, c) for t, c in col.items())
    nabla_cols = linalg.solve(joint, [{k: ONE} for k in range(shift)])
    if None in nabla_cols:
        raise ValueError("projection admits no cycle-valued section")
    nabla = GradedMap.from_columns(small.space, space, 0, nabla_cols)

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
    coords = linalg.solve(sub_basis, [C.d(v) for v in sub_basis]
                          + [proj_cols.get(s, {}) for s in range(space.dim)])
    if None in coords[:n_sub]:
        raise AssertionError("complement not d-stable")
    if None in coords[n_sub:]:
        raise AssertionError("projection image escaped the complement")
    sub = ChainComplex(sub_space, GradedMap.from_columns(
        sub_space, sub_space, -1, coords[:n_sub]))
    sub_con = build_contraction(sub)
    if sub_con.small.space.dim != 0:
        raise ValueError("projection is not a quasi-isomorphism")
    # transport h of the acyclic complement back to C
    incl = GradedMap.from_columns(sub_space, space, 0, sub_basis)
    to_sub = GradedMap.from_columns(space, sub_space, 0, coords[n_sub:])
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
    cols = linalg.coordinates([f(rep) for rep in reps_src], reps_tgt,
                              list(C_tgt.d.by_column().values()))
    if None in cols:
        raise ValueError("f(cycle) is not a cycle mod boundaries")
    return GradedMap.from_columns(H_src, H_tgt, 0, cols), H_src, H_tgt


def is_quasi_iso(f, C_src, C_tgt, src_homology=None):
    M, H_src, H_tgt = induced_map_on_homology(f, C_src, C_tgt, src_homology)
    return (H_src.dim == H_tgt.dim
            and linalg.rank(M.by_column().values()) == H_src.dim)
