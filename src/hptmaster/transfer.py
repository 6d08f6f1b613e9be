"""Homotopy transfer of a dg Lie algebra across a contraction.

Given a contraction of the underlying complex of g onto a small complex
(usually its homology), the recursion

    tau^1 = nabla o tau_H,
    tau^b = 1/2 h ( [tau^1, tau^{b-1}] + ... + [tau^{b-1}, tau^1] ),

produces a twisting cochain tau on the truncated symmetric coalgebra over
the suspended small space, together with a coderivation D whose
corestriction, the small coalgebra's perturbation, is read off through pi:

    lambda_b = s o 1/2 pi ( [tau^1, tau^{b-1}] + ... ).

D makes the small coalgebra an sh-Lie algebra and tau satisfies the master
equation D tau = 1/2 [tau, tau] with respect to the perturbed source
differential.  All brackets are cup brackets over the unperturbed diagonal.

Step b forms cb_b, the part of [tau, tau] on the words of length b, halves
it once, and reads tau^b = -h(cb_b / 2) and lambda_b = pi(cb_b / 2) off the
half.  The halves summed over b = 2..N are 1/2 [tau, tau] of the final
tau, column for column, for any bracket, Jacobi or not.  A splitting
(A, B) of a word of length b adds a term only when tau has columns on A
and B.  tau has none on the empty word, so A and B are nonempty and both
shorter than b, and tau's columns on words shorter than b are final when
step b runs.  For the same reason [tau, tau] vanishes on words of length
0 and 1.  The master check reads that sum, so the square is formed once,
by the recursion.
"""

from fractions import Fraction
from functools import cached_property
from types import SimpleNamespace

from .dgla import (TwistingCochainHom, cup_bracket, is_twisting_cochain,
                   ce_coalgebra, universal_cochain)
from .graded import GradedMap
from .perturbation import symmetric_coalgebra_contraction, perturbation_lemma
from .words import check_sh_lie, suspended_coalgebra

HALF = Fraction(1, 2)


class TransferResult:
    """Output of the transfer recursion.

    Fields: tau (TwistingCochainHom into g), coalg (the perturbed small
    coalgebra: its perturbation holds the transferred components lambda_b,
    b >= 2, as columns on the words of length b, and its
    words.extract_brackets are the l_k family on the small space),
    truncation N, half_square (1/2 [tau.hom, tau.hom], summed from the
    recursion's halved cup brackets), and lazily the lift of the
    contraction to coalgebras and its BPL extension.
    """

    def __init__(self, g, contraction, N, tau, coalg, half_square):
        self.g = g
        self.contraction = contraction
        self.truncation = N
        self.tau = tau
        self.coalg = coalg
        self.half_square = half_square

    @property
    def D(self):
        """The int numerator columns of coalg.perturbation grouped by
        arity, b -> word -> column: a view, not a store, read only by
        bench/tracing.py, which counts transfer.D_nnz from it."""
        words, cols = self.coalg.words, self.coalg.perturbation.columns
        components = {}
        for s in sorted(cols):
            components.setdefault(len(words[s]), {})[words[s]] = cols[s]
        return SimpleNamespace(components=components)

    @cached_property
    def extended(self):
        """The perturbation-lemma extension of the coalgebra contraction."""
        return extend_contraction(self)

    @cached_property
    def lift(self):
        """The input contraction lifted between big_coalg and coalg, the
        contraction that .extended perturbs."""
        return symmetric_coalgebra_contraction(self.contraction,
                                               self.big_coalg, self.coalg)

    @cached_property
    def big_coalg(self):
        """C[g] at truncation N, the big coalgebra of .lift and .extended."""
        return ce_coalgebra(self.g, self.truncation)


def transfer(g, con, N):
    """Run the recursion for b = 2..N and package the result."""
    if N < 2:
        raise ValueError("truncation must be at least 2")
    if con.big != g.complex:
        raise ValueError("contraction does not contract g's complex")
    errs = con.identity_failures()
    if errs:
        raise ValueError("invalid contraction: " + ", ".join(errs))

    small = con.small
    coalg = suspended_coalgebra(small.d, N)

    # tau^1 = nabla o tau_H on length-1 words
    tau_hom = con.nabla.compose(universal_cochain(coalg, small.space))

    lam = coalg.perturbation
    half_square = GradedMap.zero(coalg.space, g.space, -2)
    for b in range(2, N + 1):
        half = cup_bracket(tau_hom, tau_hom, coalg, g, length=b).scale(HALF)
        half_square = half_square + half
        # D h = nabla pi - Id forces the minus sign here: with
        # tau^b = -h (1/2)[tau, tau] the master equation closes lengthwise.
        tau_hom = tau_hom - con.h.compose(half)
        # half, and so pi_half, has columns on length-b words only:
        # lambda_b; the suspension is the identity on indices
        pi_half = con.pi.compose(half)
        if not pi_half.is_zero():
            lam = lam + GradedMap.from_columns(
                coalg.space, coalg.gen_space, -1, pi_half.columns,
                pi_half.den)

    coalg.perturbation = lam
    tau = TwistingCochainHom(coalg, g, tau_hom)
    return TransferResult(g, con, N, tau, coalg, half_square)


def verify_master(result):
    """Exact master-equation check D tau = 1/2 [tau, tau], per word length.

    The right-hand side is result.half_square, the recursion's halved
    length-b pieces of [tau, tau] summed over b.  That is 1/2 [tau, tau]
    column for column, as the module docstring shows: a pair of words
    merging to length b has both words nonempty and shorter than b, where
    tau was final when step b ran.  So the square is not formed again.
    """
    report = is_twisting_cochain(result.tau, result.half_square)
    report["sh_lie"] = check_sh_lie(result.coalg)
    report["passed"] = report["passed"] and report["sh_lie"]["passed"]
    return report


def check_addendum_283(g, con, result):
    """Degeneration when the composite bracket-then-project vanishes.

    When pi([x, y]) = 0 for all x, y in g, every transferred component
    vanishes, because each cup-bracket value is a sum of brackets killed
    by pi.
    """
    hyp = not any(any(con.pi.add_image({}, num).values())
                  for num in g.bracket.numerator_rows().values())
    higher_zero = result.coalg.perturbation.is_zero()
    return {
        "hypothesis_holds": hyp,
        "D_vanishes": higher_zero,
        "passed": (not hyp) or higher_zero,
    }


def check_addendum_285(g, con, result):
    """Degeneration when brackets of lifted small elements vanish.

    When [nabla x, nabla y] = 0 for all x, y in the small space, the
    recursion never leaves word length one: tau = tau^1 and D = 0, and the
    perturbation-lemma extension leaves the coalgebra inclusion unchanged.
    """
    nabla = [con.nabla.apply_basis(i) for i in range(con.small.space.dim)]
    hyp = not any(any(g.bracket.add_product({}, u, v).values())
                  for u in nabla for v in nabla)
    higher_zero = result.coalg.perturbation.is_zero()
    tau_tail_zero = all(result.coalg.word_length(s) == 1
                        for s in result.tau.hom.columns)
    report = {
        "hypothesis_holds": hyp,
        "D_vanishes": higher_zero,
        "tau_is_tau1": tau_tail_zero,
        "passed": (not hyp) or (higher_zero and tau_tail_zero),
    }
    if hyp:
        report["nabla_unperturbed"] = (
            result.extended.nabla == result.lift.nabla)
        report["passed"] = report["passed"] and report["nabla_unperturbed"]
    return report


def extend_contraction(result):
    """The perturbation-lemma extension of the lifted coalgebra contraction.

    Perturbs result.lift, the input contraction lifted between the
    recursion's coalgebras (the Chevalley-Eilenberg coalgebra of g and the
    small coalgebra), by the quadratic coderivation of g and checks that
    the transferred small perturbation agrees with the recursion's
    coderivation D.
    """
    pcon, delta_small = perturbation_lemma(
        result.lift, result.big_coalg.perturbation_operator)
    # the recursion's coderivation D is the perturbation of result.coalg
    recursion_delta = result.coalg.perturbation_operator
    if delta_small != recursion_delta:
        raise AssertionError(
            "perturbation lemma disagrees with the recursion")
    return pcon


def theorem_29_pipeline(m, con, N, inclusion=None):
    """Transfer inside a sub-dgLa whose projected bracket vanishes.

    m is a dgLa (typically a sub-dgLa of some ambient g) and con contracts
    m's complex onto a small complex identified with the homology of the
    ambient algebra.  Requires pi([x, y]) = 0 exactly for all x, y in m;
    then the transferred coderivation vanishes, the source differential on
    the small coalgebra is zero, tau solves d tau = 1/2 [tau, tau], and
    pi o tau is the universal twisting cochain.

    Returns (tau valued in m, report).  When the inclusion of m into an
    ambient algebra is given the report also confirms the tau values
    inside the ambient algebra's copy of m.
    """
    if not con.small.d.is_zero():
        raise ValueError("small complex must carry the zero differential")
    result = transfer(m, con, N)
    hyp = check_addendum_283(m, con, result)
    if not hyp["hypothesis_holds"]:
        raise ValueError("projected bracket of m does not vanish")
    if not hyp["D_vanishes"]:
        raise AssertionError("coderivation failed to degenerate")
    master = is_twisting_cochain(result.tau, result.half_square)

    # pi tau agrees with the universal twisting cochain of the small space
    pi_tau = con.pi.compose(result.tau.hom)
    universal = universal_cochain(result.coalg, con.small.space)
    report = {
        "master": master,
        "pi_tau_universal": (pi_tau - universal).is_zero(),
        "D_zero": result.coalg.perturbation.is_zero(),
    }
    if inclusion is not None:
        from . import linalg
        cols = [inclusion.apply_basis(s) for s in range(m.space.dim)]
        taus = result.tau.hom.columns.values()
        report["values_in_subalgebra"] = linalg.in_span(
            cols, [inclusion(col) for col in taus])
    report["passed"] = (master["passed"] and report["pi_tau_universal"]
                        and report["D_zero"]
                        and report.get("values_in_subalgebra", True))
    return result, report
