"""Chain complexes over Q, homology, and synthesis of contractions.

A contraction (SDR data) of N onto M consists of chain maps pi: N -> M and
nabla: M -> N together with a degree +1 homotopy h on N satisfying

    pi nabla = Id,   Dh = nabla pi - Id,   pi h = 0,  h nabla = 0,  h h = 0.

build_contraction produces one onto homology for any finite complex; the
choices (pivoting, representatives) are deterministic, so the result is a
pure function of the input.
"""

from . import linalg
from .graded import GradedMap, GradedVectorSpace, ONE, ZERO

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
        (d + delta) delta + delta d, is computed."""
        d_new = self.d + delta
        if not (d_new.compose(delta) + delta.compose(self.d)).is_zero():
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
        other four)."""
        d, d_small = self.big.d, self.small.d
        nabla, pi, h = self.nabla, self.pi, self.h
        d_cols, d_small_cols = d.by_column(), d_small.by_column()
        nabla_cols, pi_cols, h_cols = (
            nabla.by_column(), pi.by_column(), h.by_column())
        # D h = d h - (-1)^{|h|} h d
        sign = ONE if h.degree % 2 else -ONE
        failed = set()
        for s in range(self.small.space.dim):
            ns = nabla_cols.get(s, {})
            if _nonzero(pi.add_image({s: -ONE}, ns)):
                failed.add("pi nabla != Id")
            if _nonzero(h.add_image({}, ns)):
                failed.add("h nabla != 0")
            acc = nabla.add_image(d.add_image({}, ns),
                                  d_small_cols.get(s, {}), -ONE)
            if _nonzero(acc):
                failed.add("nabla not a chain map")
        for s in range(self.big.space.dim):
            hs, ds = h_cols.get(s, {}), d_cols.get(s, {})
            ps = pi_cols.get(s, {})
            acc = h.add_image(d.add_image({s: ONE}, hs), ds, sign)
            if _nonzero(nabla.add_image(acc, ps, -ONE)):
                failed.add("Dh != nabla pi - Id")
            if _nonzero(pi.add_image({}, hs)):
                failed.add("pi h != 0")
            if _nonzero(h.add_image({}, hs)):
                failed.add("h h != 0")
            if _nonzero(d_small.add_image(pi.add_image({}, ds), ps, -ONE)):
                failed.add("pi not a chain map")
        return [name for name in _IDENTITIES if name in failed]


def _nonzero(vec):
    return any(c != 0 for c in vec.values())


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
        kern = linalg.kernel_basis(rows, len(idx_n))
        # echelon rows spanning the image of d from degree n+1, in
        # degree-n coordinates; extend by kernel vectors
        span_rows = linalg.echelon_basis(
            [[C.d.entries.get((t, s), ZERO) for t in idx_n]
             for s in space.indices_in_degree(n + 1)])
        k = 0
        for v in kern:
            resid = linalg.reduce_against(v, span_rows)
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


def build_contraction(C):
    """A contraction of C onto its homology (zero differential).

    Decompose each degree as im(d) + homology representatives + a complement
    A of the cycles; d maps A isomorphically onto the next im(d), and h is
    minus the inverse of that isomorphism (zero elsewhere).  All five
    contraction identities then hold on the nose.
    """
    space = C.space
    H, reps = homology(C)
    small = ChainComplex(GradedVectorSpace(H.basis))

    # complement A of the cycles: unit vectors at pivot columns of d
    a_indices = []
    degrees = sorted(set(space.degrees))
    for n in degrees:
        idx_n = space.indices_in_degree(n)
        rows = [[C.d.entries.get((t, s), ZERO) for s in idx_n]
                for t in space.indices_in_degree(n - 1)]
        if rows:
            _, pivots = linalg.rref(rows)
            a_indices.extend(idx_n[p] for p in pivots)

    # basis of C adapted to the splitting: [d(A) | reps | A], degreewise
    b_vectors = []
    for j in a_indices:
        b_vectors.append(C.d.column(j))

    nabla_cols = reps
    pi_ent = {}
    h_ent = {}
    for n in degrees:
        idx_n = space.indices_in_degree(n)
        if not idx_n:
            continue
        block = []        # columns of the adapted basis, degree n part
        tags = []         # ("b", a_index) | ("h", class_index) | ("a", index)
        for j, vec in zip(a_indices, b_vectors):
            if space.degrees[j] == n + 1:   # d lowers degree: d(A_{n+1}) in C_n
                block.append([vec[i] for i in idx_n])
                tags.append(("b", j))
        for k, rep in enumerate(reps):
            if H.degrees[k] == n:
                block.append([rep[i] for i in idx_n])
                tags.append(("h", k))
        for j in a_indices:
            if space.degrees[j] == n:
                col = [ONE if i == j else ZERO for i in idx_n]
                block.append(col)
                tags.append(("a", j))
        if len(block) != len(idx_n):
            raise AssertionError("adapted basis does not span degree %d" % n)
        M = [[block[c][r] for c in range(len(block))] for r in range(len(idx_n))]
        for col_pos, i in enumerate(idx_n):
            e = [ONE if r == col_pos else ZERO for r in range(len(idx_n))]
            coords = linalg.solve(M, e)
            if coords is None:
                raise AssertionError("adapted basis is singular")
            for c, tag in zip(coords, tags):
                if c == 0:
                    continue
                kind, ref = tag
                if kind == "h":
                    pi_ent[(ref, i)] = pi_ent.get((ref, i), ZERO) + c
                elif kind == "b":
                    # h sends d(a) to -a
                    h_ent[(ref, i)] = h_ent.get((ref, i), ZERO) - c

    nabla = GradedMap.from_columns(small.space, space, 0, nabla_cols)
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

    # nabla: section of pi with values in ker d
    nabla_cols = []
    for k in range(small.space.dim):
        # solve pi(v) = e_k and d(v) = 0 jointly
        rows = []
        rhs = []
        for t in range(small.space.dim):
            rows.append([pi.entries.get((t, s), ZERO) for s in range(space.dim)])
            rhs.append(ONE if t == k else ZERO)
        for t in range(space.dim):
            rows.append([C.d.entries.get((t, s), ZERO) for s in range(space.dim)])
            rhs.append(ZERO)
        v = linalg.solve(rows, rhs)
        if v is None:
            raise ValueError("projection admits no cycle-valued section")
        nabla_cols.append(v)
    nabla = GradedMap.from_columns(small.space, space, 0, nabla_cols)

    # acyclic complement: image of Id - nabla pi
    proj = GradedMap.identity(space) - nabla.compose(pi)
    comp_cols = []
    for s in range(space.dim):
        col = proj.column(s)
        if any(c != 0 for c in col):
            comp_cols.append((space.degrees[s], col))
    # h on the complement via the acyclic-complex recipe, expressed on C by
    # solving in the adapted basis [complement echelon | nabla image]
    sub_basis = []
    for deg in sorted({d for d, _ in comp_cols}):
        sub_basis.extend(
            linalg.echelon_basis([c for d, c in comp_cols if d == deg]))
    sub_space = GradedVectorSpace(
        [("c%d" % i, space.vector_degree(v)) for i, v in enumerate(sub_basis)])
    d_sub_ent = {}
    M_sub = [[sub_basis[c][r] for c in range(len(sub_basis))]
             for r in range(space.dim)]
    for s, v in enumerate(sub_basis):
        dv = C.d(v)
        coords = linalg.solve(M_sub, dv)
        if coords is None:
            raise AssertionError("complement not d-stable")
        for t, c in enumerate(coords):
            if c != 0:
                d_sub_ent[(t, s)] = c
    sub = ChainComplex(sub_space, GradedMap(sub_space, sub_space, -1, d_sub_ent))
    sub_con = build_contraction(sub)
    if sub_con.small.space.dim != 0:
        raise ValueError("projection is not a quasi-isomorphism")
    # transport h of the acyclic complement back to C
    h_ent = {}
    for s in range(space.dim):
        v = proj.column(s)
        coords = linalg.solve(M_sub, v) if sub_basis else []
        if coords is None:
            raise AssertionError("projection image escaped the complement")
        hv_sub = [ZERO] * len(sub_basis)
        for j, c in enumerate(coords or []):
            if c != 0:
                for t, c2 in sub_con.h.apply_basis(j).items():
                    hv_sub[t] += c * c2
        for j, c in enumerate(hv_sub):
            if c != 0:
                for i in range(space.dim):
                    if sub_basis[j][i] != 0:
                        h_ent[(i, s)] = h_ent.get((i, s), ZERO) + c * sub_basis[j][i]
    h = GradedMap(space, space, 1, h_ent)
    return Contraction(C, small, nabla, pi, h)


def induced_map_on_homology(f, C_src, C_tgt, src_homology=None):
    """The matrix of H(f) with respect to the chosen homology bases.

    Returns (matrix rows over H(C_tgt) basis, H_src, H_tgt).  f must be a
    chain map of degree 0.  src_homology, when given, is homology(C_src)
    computed earlier.
    """
    H_src, reps_src = src_homology or homology(C_src)
    H_tgt, reps_tgt = homology(C_tgt)
    # express f(rep) in homology of the target: solve against [reps | im d]
    im_cols = [C_tgt.d.column(s) for s in range(C_tgt.space.dim)]
    out = [[ZERO] * H_src.dim for _ in range(H_tgt.dim)]
    for k, rep in enumerate(reps_src):
        coords = linalg.coordinates(f(rep), reps_tgt, im_cols)
        if coords is None:
            raise ValueError("f(cycle) is not a cycle mod boundaries")
        for t in range(H_tgt.dim):
            out[t][k] = coords[t]
    return out, H_src, H_tgt


def is_quasi_iso(f, C_src, C_tgt, src_homology=None):
    M, H_src, H_tgt = induced_map_on_homology(f, C_src, C_tgt, src_homology)
    if H_src.dim != H_tgt.dim:
        return False
    return linalg.rank(M) == H_src.dim if H_src.dim else True
