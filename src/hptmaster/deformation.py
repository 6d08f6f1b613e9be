"""Deformation-theoretic layer: Maurer-Cartan equations and examples.

Truncated Maurer-Cartan equations of a transferred structure, free graded
Lie algebras modelling loop spaces of wedges of spheres, and the
three-sphere example family whose five-fold Massey products produce a
positive-dimensional family of structures.
"""

from fractions import Fraction

from .graded import GradedVectorSpace, suspend_space, ONE
from .words import (CoderivationSpec, TruncatedSymCoalgebra, check_sh_lie,
                    enumerate_words, extract_brackets, parse_word)


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


def mc_equations(linf, N):
    """Truncated Maurer-Cartan equations of an L-infinity structure.

    linf is an LInfinityStructure whose underlying space is concentrated
    in nonpositive homological degrees (nonnegative cohomological
    degrees).  Coordinates are the homological degree -1 basis labels and
    equations land in degree -2.  For coordinates of homological degree -1
    the suspension sign dictionary is trivial, so the monomial coefficient
    of a word w in the divided-power expansion is exactly l_k(w).
    """
    space = linf.underlying
    if any(d > 0 for d in space.degrees):
        raise ValueError(
            "underlying space must sit in nonnegative cohomological degrees")
    coord_set = set(space.indices_in_degree(-1))
    targets = {i: space.labels[i] for i in space.indices_in_degree(-2)}
    equations = {lab: {} for lab in targets.values()}
    for k, table in sorted(linf.brackets.items()):
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

def _lyndon_words(alphabet_size, max_len):
    """All Lyndon words over 0..alphabet_size-1 up to max_len (Duval)."""
    out = {length: [] for length in range(1, max_len + 1)}
    if alphabet_size == 0 or max_len == 0:
        return out
    w = [0]
    while w:
        if len(w) <= max_len:
            out[len(w)].append(tuple(w))
        m = len(w)
        while len(w) < max_len:
            w.append(w[len(w) - m])
        while w and w[-1] == alphabet_size - 1:
            w.pop()
        if w:
            w[-1] += 1
    for length in out:
        out[length].sort()
    return out


class FreeGradedLie:
    """Free graded Lie algebra presented by its Lyndon bracket-word basis.

    For generators of even degree the graded signs are all trivial and the
    classical Lyndon basis applies verbatim; antisymmetry and Jacobi hold
    because each basis element is a fixed bracketing of a Lyndon word.
    Odd-degree generators are accepted but marked experimental, since the
    classical basis over- and under-counts in the presence of odd squares.
    """

    def __init__(self, generators, cap):
        if cap < 1 and generators:
            raise ValueError("bracket-length cap too small")
        self.generators = list(generators)
        self.cap = cap
        self.experimental = any(d % 2 for _, d in self.generators)
        self.words_by_length = _lyndon_words(len(self.generators), cap)

    def dimension(self, length):
        return len(self.words_by_length.get(length, []))

    def dimensions_by_degree(self):
        degs = {}
        for length, words in self.words_by_length.items():
            for w in words:
                d = sum(self.generators[i][1] for i in w)
                degs[d] = degs.get(d, 0) + 1
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
    def mobius(n):
        result, p, m = 1, 2, n
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                result = -result
            p += 1
        if m > 1:
            result = -result
        return result

    total = 0
    for d in range(1, length + 1):
        if length % d == 0:
            total += mobius(d) * rank ** (length // d)
    return total // length


# -- the S^3 v S^3 v S^12 example --------------------------------------------

class MorganInstance:
    """The perturbed minimal model data for S^3 v S^3 v S^12.

    theta is the arity-5 component of coalg.perturbation.
    """

    def __init__(self, homology, coalg, brackets, mc):
        self.homology = homology
        self.coalg = coalg
        self.brackets = brackets
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
    component = {w: {c: v} for w, v in values.items() if v != 0}
    spec = CoderivationSpec(sH, {5: component} if component else None)
    coalg = TruncatedSymCoalgebra(sH, N, perturbation=spec)
    sh = check_sh_lie(coalg)
    brackets = extract_brackets(coalg, underlying=H)

    # Maurer-Cartan presentation: the same structure constants on the
    # deformation regrading with a, b in cohomological degree 1 and c in
    # degree 2, where the quintic terms become visible equations.
    # sa sorts before sb in both gradings, so the words stay canonical
    H_def = GradedVectorSpace([("a", -1), ("b", -1), ("c", -2)])
    sH_def = suspend_space(H_def)
    coalg_def = TruncatedSymCoalgebra(
        sH_def, N, perturbation=CoderivationSpec(
            sH_def, {5: component} if component else None))
    mc = mc_equations(extract_brackets(coalg_def, underlying=H_def), N)

    aut_dim = sum(len(H.indices_in_degree(d)) ** 2
                  for d in sorted(set(H.degrees)))
    lie = wedge_of_spheres([3, 3], 5)
    arity_support = brackets.arity_support()
    report = {
        "parameter_dimension": len(param_words),
        "automorphism_dimension": aut_dim,
        "moduli_gap": len(param_words) - aut_dim,
        "free_lie_length5_dimension": lie.dimension(5),
        "necklace_length5": necklace_count(2, 5),
        "sh_lie": sh["passed"],
        "lower_brackets_vanish": all(k >= 5 for k in arity_support),
        "l5_nonzero": 5 in arity_support,
        "formal": not component,
        "witness": 4 if component else None,
        "distinguishes_family": len(param_words) - aut_dim >= 1,
    }
    instance = MorganInstance(H, coalg, brackets, mc)
    return instance, report
