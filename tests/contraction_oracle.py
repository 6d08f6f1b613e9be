"""Map-based contraction checks and perturbation lemma, kept as exact oracles.

The library tests each contraction identity as one residual, the int
columns of its terms summed by one fused sparse product with no map built,
and sums the perturbation series on the thin operands nabla, h and pi.
This module does both the long way: every identity as a composite of
whole maps compared with zero, and every series as the full endomorphism
Id + step + step^2 + ... composed with the operands afterwards.

normalize_homotopy, the standard repair of the side conditions, builds
non-standard contractions for the tests; the coalgebra lift never needs it.

build_contraction and contraction_extending_projection are the two
constructions as they stood before one adapted-basis loop built both: the
first solves each degree over [d(A) | representatives | unit vectors]
with the unit vectors as its own candidates; the second writes ker pi as
a second ChainComplex on an echelon basis, solves for d on it, contracts
it with build_contraction and carries h back to C along two compositions.
"""

from fractions import Fraction
from math import lcm

from hptmaster import linalg
from hptmaster.complexes import ChainComplex, Contraction, homology
from hptmaster.graded import GradedMap, GradedVectorSpace
from fraction_oracle import by_column


def hom_differential(phi, d_src, d_tgt):
    """D(phi) = d_tgt o phi - (-1)^{|phi|} phi o d_src."""
    if d_src.source != phi.source or d_tgt.source != phi.target:
        raise ValueError("differential/space mismatch")
    sign = -1 if phi.degree % 2 == 0 else 1
    return d_tgt.compose(phi) + phi.compose(d_src).scale(sign)


def identity_failures(con):
    """Names of the defining identities of con that fail."""
    errs = []
    if not (con.pi.compose(con.nabla)
            - GradedMap.identity(con.small.space)).is_zero():
        errs.append("pi nabla != Id")
    Dh = hom_differential(con.h, con.big.d, con.big.d)
    wanted = con.nabla.compose(con.pi) - GradedMap.identity(con.big.space)
    if not (Dh - wanted).is_zero():
        errs.append("Dh != nabla pi - Id")
    if not con.pi.compose(con.h).is_zero():
        errs.append("pi h != 0")
    if not con.h.compose(con.nabla).is_zero():
        errs.append("h nabla != 0")
    if not con.h.compose(con.h).is_zero():
        errs.append("h h != 0")
    if not (con.pi.compose(con.big.d)
            - con.small.d.compose(con.pi)).is_zero():
        errs.append("pi not a chain map")
    if not (con.big.d.compose(con.nabla)
            - con.nabla.compose(con.small.d)).is_zero():
        errs.append("nabla not a chain map")
    return errs


def geometric_series(step, max_terms):
    """Id + step + step^2 + ... , requiring nilpotence within max_terms."""
    space = step.source
    acc = GradedMap.identity(space)
    power = GradedMap.identity(space)
    for _ in range(max_terms):
        power = step.compose(power)
        if power.is_zero():
            return acc + power
        acc = acc + power
    raise ValueError("perturbation series does not terminate")


def perturbation_lemma(con, delta):
    """(perturbed contraction, small perturbation), from whole series."""
    big, small = con.big, con.small
    d_new = big.d + delta
    if not d_new.compose(d_new).is_zero():
        raise ValueError("perturbed differential does not square to zero")
    # a nilpotent endomorphism of an n-dimensional space has step^n = 0
    max_terms = big.space.dim + 1
    series = geometric_series(con.h.compose(delta), max_terms)
    series_r = geometric_series(delta.compose(con.h), max_terms)
    nabla_p = series.compose(con.nabla)
    pi_p = con.pi.compose(series_r)
    h_p = series.compose(con.h)
    delta_small = con.pi.compose(delta).compose(series).compose(con.nabla)
    big_p = ChainComplex(big.space, d_new)
    small_p = ChainComplex(small.space, small.d + delta_small)
    out = Contraction(big_p, small_p, nabla_p, pi_p, h_p, check=False)
    errs = identity_failures(out)
    if errs:
        raise ValueError("invalid contraction: " + ", ".join(errs))
    return out, delta_small


def normalize_homotopy(con):
    """Force the side conditions on a contraction that only has (2.1.2/3).

    First conjugate by Id - nabla pi to kill pi h and h nabla, then replace
    h by -h d h to kill h h.  The minus sign goes with the convention
    D h = nabla pi - Id: the graded derivation rule gives
    D(h d h) = -(d h + h d) once pi h = h nabla = 0, so negating restores
    the correct homotopy equation.  Returns a valid Contraction.
    """
    big, small = con.big, con.small
    proj = GradedMap.identity(big.space) - con.nabla.compose(con.pi)
    h1 = proj.compose(con.h).compose(proj)
    h2 = h1.compose(big.d).compose(h1).scale(Fraction(-1))
    return Contraction(big, small, con.nabla, con.pi, h2)


def build_contraction(C):
    """A contraction of C onto its homology, one elimination per degree,
    from the top degree down: the unit vectors of degree n solved over
    [d(A_{n+1}) | representatives | unit vectors]; the pivot units are A_n,
    and h sends d(a) to -a."""
    space = C.space
    H, reps = homology(C)
    small = ChainComplex(H)
    d_cols = C.d.columns
    m_d = C.d.den

    parts = []
    a_above = []
    for n in sorted(set(space.degrees), reverse=True):
        idx_n = space.indices_in_degree(n)
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
                    h_cols.setdefault(t, {})[ref] = -c * m_d
        parts.append((den, pi_cols, h_cols))
        a_above = sorted(kept)
        if m + len(a_above) != len(idx_n):
            raise AssertionError("adapted basis does not span degree %d" % n)

    den = lcm(*(part[0] for part in parts))
    pi_cols, h_cols = {}, {}
    for m, *cols in parts:
        f = den // m
        for out, part in zip((pi_cols, h_cols), cols):
            for t, col in part.items():
                out[t] = {k: c * f for k, c in col.items()}

    nabla = GradedMap.from_columns(small.space, space, 0, reps)
    pi = GradedMap.from_columns(space, small.space, 0, pi_cols, den)
    h = GradedMap.from_columns(space, space, 1, h_cols, den)
    return Contraction(C, small, nabla, pi, h)


def contraction_extending_projection(C, pi):
    """Extend a chain map pi: C -> (pi.target, 0) that is a
    quasi-isomorphism to a contraction by contracting ker pi as a complex
    of its own.  Raises ValueError("projection admits no cycle-valued
    section") or ValueError("projection is not a quasi-isomorphism"), and
    AssertionError on a pi that is not a chain map."""
    small = ChainComplex(pi.target)
    space = C.space

    # nabla: a section of pi with values in ker d, from one joint solve
    shift = small.space.dim
    joint = [pi.apply_basis(s) for s in range(space.dim)]
    for s, col in by_column(C.d).items():
        joint[s].update((shift + t, c) for t, c in col.items())
    nabla_cols, den = linalg.solve(joint, [{k: 1} for k in range(shift)])
    if None in nabla_cols:
        raise ValueError("projection admits no cycle-valued section")
    nabla = GradedMap.from_columns(small.space, space, 0, nabla_cols, den)

    # the complement ker pi, the image of Id - nabla pi, on the reduced
    # echelon basis in each degree (each row 1 at its pivot)
    proj = GradedMap.identity(space) - nabla.compose(pi)
    proj_cols = by_column(proj)
    sub_basis = []
    for deg in sorted({space.degrees[s] for s in proj_cols}):
        echelon = linalg.rref(col for s, col in proj_cols.items()
                              if space.degrees[s] == deg)
        sub_basis.extend({k: Fraction(c, row[p]) for k, c in row.items()}
                         for p, row in echelon)
    sub_space = GradedVectorSpace(
        [("c%d" % i, space.vector_degree(v)) for i, v in enumerate(sub_basis)])
    # d on the complement and the coordinates of the columns of
    # Id - nabla pi, from one elimination
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
    # carry h of the complement back to C
    incl = GradedMap.from_columns(sub_space, space, 0, sub_basis)
    to_sub = GradedMap.from_columns(space, sub_space, 0, coords[n_sub:], den)
    h = incl.compose(sub_con.h).compose(to_sub)
    return Contraction(C, small, nabla, pi, h)
