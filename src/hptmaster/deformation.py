"""Deformation-theoretic layer: Maurer-Cartan equations and examples.

Truncated Maurer-Cartan equations of a transferred structure, free graded
Lie algebras modelling loop spaces of wedges of spheres, and the
three-sphere example family whose five-fold Massey products produce a
positive-dimensional family of structures.
"""

from collections import Counter
from fractions import Fraction
from math import gcd

from .graded import GradedMap, GradedVectorSpace, suspend_space, ONE
from .words import (TruncatedSymCoalgebra, check_sh_lie, enumerate_words,
                    extract_brackets, parse_word)


class MCVariety:
    """Truncated Maurer-Cartan equations on the degree-one part.

    space is the underlying graded space; coordinates are its basis labels
    of cohomological degree one (stored homologically as degree -1);
    equations maps each cohomological degree-two target label to a
    polynomial, a dict from monomials (canonical index words over space,
    written out by words.word_label) to rational coefficients.  The order-k
    part comes from l_k via eta -> sum over k of (1/k!) l_k(eta, ..., eta);
    in the divided-power monomial basis each multiset monomial appears with
    coefficient exactly l_k of that word, so the quadratic part is
    (1/2)[eta, eta] written out.
    """

    def __init__(self, space, equations, truncation):
        self.space = space
        self.coordinates = [space.labels[i]
                            for i in space.indices_in_degree(-1)]
        self.equations = equations
        self.truncation = truncation


def mc_equations(space, brackets, N):
    """Truncated Maurer-Cartan equations of an L-infinity structure.

    brackets is an l_k table on space, as words.extract_brackets returns
    it, and space is concentrated in nonpositive homological degrees
    (nonnegative cohomological degrees).  Coordinates are the homological
    degree -1 basis labels and equations land in degree -2.  For
    coordinates of homological degree -1 the suspension sign dictionary is
    trivial, so the monomial coefficient of a word w in the divided-power
    expansion is exactly l_k(w).
    """
    if any(d > 0 for d in space.degrees):
        raise ValueError(
            "underlying space must sit in nonnegative cohomological degrees")
    coord_set = set(space.indices_in_degree(-1))
    targets = {i: space.labels[i] for i in space.indices_in_degree(-2)}
    equations = {lab: {} for lab in targets.values()}
    for k, table in sorted(brackets.items()):
        if k > N:
            continue
        for word, val in table.items():
            if any(g not in coord_set for g in word):
                continue
            for gi, c in val.items():
                if c == 0 or gi not in targets:
                    continue
                poly = equations[targets[gi]]
                poly[word] = poly.get(word, Fraction(0)) + c
    equations = {t: {m: c for m, c in poly.items() if c != 0}
                 for t, poly in equations.items()}
    return MCVariety(space, equations, N)


# -- free graded Lie algebras on even generators -----------------------------

def _mobius_terms(n):
    """[(k, mu(k))] for the squarefree divisors k of n > 0, mu the Moebius
    function: the nonzero terms of a Moebius sum over the divisors of n."""
    terms, p = [(1, 1)], 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            terms += [(k * p, -mu) for k, mu in terms]
        p += 1
    if n > 1:
        terms += [(k * n, -mu) for k, mu in terms]
    return terms


class FreeGradedLie:
    """Free graded Lie algebra presented by its Lyndon bracket-word basis.

    For generators of even degree the graded signs are all trivial and the
    classical Lyndon basis applies verbatim; antisymmetry and Jacobi hold
    because each basis element is a fixed bracketing of a Lyndon word.
    Odd-degree generators are accepted but marked experimental, since the
    classical basis over- and under-counts in the presence of odd squares.

    counts[n][e] is the number of Lyndon words of length n <= cap and
    degree e, by the graded Witt formula
    L(n, e) = (1/n) sum over k | gcd(n, e) of mu(k) W(n/k, e/k), where
    W(m, e) counts all words of length m and degree e.  Every word is u^k
    for one primitive word u, and the primitive words of length m fall
    into rotation classes of m words with one Lyndon word each, so
    W(n, e) = sum over k | gcd(n, e) of (n/k) L(n/k, e/k), which Moebius
    inversion solves.
    """

    def __init__(self, generators, cap):
        if cap < 1 and generators:
            raise ValueError("bracket-length cap too small")
        degrees = [d for _, d in generators]
        self.experimental = any(d % 2 for d in degrees)
        # refuse a table estimated above 256 MB before building it: a length
        # takes 1 KB and each degree 256 bytes and its count's bits; length
        # m has at most min(m (hi - lo) / g + 1, C(m + k - 1, k - 1))
        # degrees, k distinct degrees, and W(m, e) <= len(degrees)^m.
        # tracemalloc peaks stay below the estimate (227 MB at 256 MB for
        # spheres 3,5 at order 1,221, the largest admitted); order 2,500
        # asks for 1,387 MB.  Refuse one whose build takes over 2,000,000
        # dict updates too: length m takes one per degree of length m - 1
        # and distinct generator degree.  On a 2-CPU x86 box, spheres 3,5
        # at order 1,221 take 1.5M (1.7-2.7 s, its counts being long
        # ints) and 2 to 10 at order 236 take 2.0M (1.1 s); 2 to 200 at
        # order 80 ask for 124M, and took 18 s when they were built
        lo, hi = min(degrees, default=0), max(degrees, default=0)
        g, k = gcd(*(d - lo for d in degrees)) or 1, len(set(degrees))
        bits = (len(degrees) - 1).bit_length()
        size, updates, cells, multisets = 0, 0, 1, 1
        for m in range(1, cap + 1):
            updates += cells * k
            multisets = multisets * (m + k - 1) // m
            cells = min(m * (hi - lo) // g + 1, multisets)
            size += 1024 + cells * (256 + (m * bits + 1) // 8)
            if size > 256 << 20:
                raise ValueError("--order too large for --spheres: the "
                                 "free Lie table exceeds 256 MB")
            if updates > 2_000_000:
                raise ValueError("--order too large for --spheres: the "
                                 "free Lie table takes over 2,000,000 "
                                 "steps to build")
        mults = Counter(degrees).items()
        words = [{0: 1}]  # words[m][e] = W(m, e)
        for _ in range(cap):
            nxt = {}
            for e, w in words[-1].items():
                for d, n in mults:
                    nxt[e + d] = nxt.get(e + d, 0) + n * w
            words.append(nxt)
        self.counts = {}
        for n in range(1, cap + 1):
            row = {}
            terms = _mobius_terms(n)
            for e in words[n]:
                total = sum(mu * words[n // k].get(e // k, 0)
                            for k, mu in terms if e % k == 0)
                if total:
                    row[e] = total // n
            self.counts[n] = row

    def dimension(self, length):
        return sum(self.counts.get(length, {}).values())

    def dimensions_by_degree(self):
        degs = {}
        for row in self.counts.values():
            for e, c in row.items():
                degs[e] = degs.get(e, 0) + c
        return dict(sorted(degs.items()))


def wedge_of_spheres(dims, cap):
    """Rational homotopy of the loop space of a wedge of spheres.

    One generator of degree n - 1 per sphere S^n; the result is the free
    graded Lie algebra on those generators with zero differential and no
    higher operations before any perturbation is chosen.
    """
    for n in dims:
        if n < 2:
            raise ValueError("sphere dimensions must be at least 2")
    gens = [("g%d" % j, n - 1) for j, n in enumerate(dims)]
    return FreeGradedLie(gens, cap)


def necklace_count(rank, length):
    """Moebius necklace formula for free-Lie dimensions, as an oracle."""
    return sum(mu * rank ** (length // k)
               for k, mu in _mobius_terms(length)) // length


# -- the S^3 v S^3 v S^12 example --------------------------------------------

class MorganInstance:
    """The perturbed minimal model data for S^3 v S^3 v S^12.

    theta is coalg.perturbation, whose columns are on words of length
    five.
    """

    def __init__(self, homology, coalg, mc):
        self.homology = homology
        self.coalg = coalg
        self.mc = mc


def massey_parameters():
    """H, sH and the six parameter words (five letters in sa and sb) of
    the S^3 v S^3 v S^12 example below."""
    H = GradedVectorSpace([("a", -3), ("b", -3), ("c", -12)])
    sH = suspend_space(H)
    c = H.index["c"]
    words = [w for w in enumerate_words(sH, 5) if len(w) == 5 and c not in w]
    return H, sH, words


def morgan_example(N=5, theta=None):
    """Five-fold Massey products on S^3 v S^3 v S^12.

    The reduced homology has two classes a, b in degree 3 and one class c
    in degree 12, with all products of positive-degree classes zero, so
    the transferred binary bracket vanishes and every structure is a pure
    perturbation.  The admissible five-fold operations send words of five
    degree-3 classes to the degree-12 line; there are six such words, so
    the parameter space has dimension 6, while the graded automorphisms
    of the homology have dimension 2^2 + 1^2 = 5.  The gap leaves at
    least a one-parameter family of distinct structures.

    theta maps parameter words, written as words.word_label writes them
    (for example "sa*sa*sa*sb*sb"), to rationals; the default picks the
    first parameter word.  Returns (instance, report).
    """
    H, sH, param_words = massey_parameters()
    c = H.index["c"]
    if theta is None:
        values = {param_words[0]: ONE}
    else:
        values = {}
        for key, value in theta.items():
            try:
                word = parse_word(key, sH)
            except ValueError:
                word = None
            if word not in param_words:
                raise ValueError("theta: %r is not a parameter word" % key)
            values[word] = Fraction(value)
    if N < 5:
        raise ValueError("truncation must be at least 5 to hold theta")
    coalg = TruncatedSymCoalgebra(sH, N)
    coalg.perturbation = lam = GradedMap.from_columns(
        coalg.space, sH, -1, {coalg.windex[w]: {c: v}
                              for w, v in values.items()})
    sh = check_sh_lie(coalg)
    brackets = extract_brackets(coalg)

    # Maurer-Cartan presentation: the same structure constants on the
    # deformation regrading with a, b in cohomological degree 1 and c in
    # degree 2, where the quintic terms become visible equations.  The
    # regrading keeps each degree's parity and the canonical order (sc,
    # then sa, then sb), so the words and the decalage signs are the same
    H_def = GradedVectorSpace([("a", -1), ("b", -1), ("c", -2)])
    mc = mc_equations(H_def, brackets, N)

    aut_dim = sum(len(H.indices_in_degree(d)) ** 2
                  for d in sorted(set(H.degrees)))
    lie = wedge_of_spheres([3, 3], 5)
    arity_support = sorted(brackets)
    report = {
        "parameter_dimension": len(param_words),
        "automorphism_dimension": aut_dim,
        "moduli_gap": len(param_words) - aut_dim,
        "free_lie_length5_dimension": lie.dimension(5),
        "necklace_length5": necklace_count(2, 5),
        "sh_lie": sh["passed"],
        "lower_brackets_vanish": all(k >= 5 for k in arity_support),
        "l5_nonzero": 5 in arity_support,
        "formal": lam.is_zero(),
        "witness": None if lam.is_zero() else 4,
        "distinguishes_family": len(param_words) - aut_dim >= 1,
    }
    instance = MorganInstance(H, coalg, mc)
    return instance, report
