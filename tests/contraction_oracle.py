"""Map-based contraction checks and perturbation lemma, kept as exact oracles.

The library tests each contraction identity as one residual, the int
columns of its terms summed by one fused sparse product with no map built,
and sums the perturbation series on the thin operands nabla, h and pi.
This module does both the long way: every identity as a composite of
whole maps compared with zero, and every series as the full endomorphism
Id + step + step^2 + ... composed with the operands afterwards.

normalize_homotopy, the standard repair of the side conditions, builds
non-standard contractions for the tests; the coalgebra lift never needs it.
"""

from fractions import Fraction

from hptmaster.complexes import ChainComplex, Contraction
from hptmaster.graded import GradedMap


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
