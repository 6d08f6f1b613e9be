"""Coalgebra lifts of contractions and the basic perturbation lemma.

A contraction (nabla, pi, h) of complexes lifts to the truncated symmetric
coalgebras on the suspended spaces by closed formulas on canonical words.
Write mult(w) for the product of the factorials of the repeat counts of a
word w; sorting a product of letters into a canonical word gives a Koszul
sign, and a repeated odd letter kills the term.

  * nabla_c and pi_c are multiplicative: e_w goes to the sum, over one
    image term per letter, of the sorted product times the image
    coefficients, the sorting sign and mult(target) / mult(w).
  * h_c(e_w), with n = |w|, is the sum over a position x and a subset S
    of the other positions: letters in S are kept, x goes to h, and the
    remaining letters go to nabla pi.  A term carries the Koszul sign of
    the arrangement (S, x, rest), (-1)^{deg S} for moving h past S, the
    weight |S|! (n-1-|S|)! / (n! mult(w)) and, once sorted, the sorting
    sign and mult(target).

These are the invariant parts of the tensor-coalgebra lift with the side
homotopy sum_k Id^k (x) h (x) (nabla pi)^{rest}: the weight is the share of
arrangements in which S precedes x.  The perturbation lemma then transfers
a word-length lowering perturbation of the big differential across any
contraction, with all series finite by the filtration argument.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, groupby, product as iproduct
from math import factorial, prod

from .complexes import ChainComplex, Contraction, normalize_homotopy
from .graded import GradedMap, koszul_sign, suspend_map, ONE, ZERO
from .words import TruncatedSymCoalgebra, sort_factors


def _multiplicity(word):
    """mult(w): the product of the factorials of the repeat counts."""
    return prod(factorial(len(list(run))) for _, run in groupby(word))


def _columns(f):
    """Columns of a generator map as lists of (target label, coefficient)."""
    cols = [[] for _ in range(f.source.dim)]
    labels = f.target.labels
    for (t, s), c in f.entries.items():
        cols[s].append((labels[t], c))
    return cols


def _sorter(sym):
    """sort_factors on the generators of sym, memoized per letter tuple."""
    return lru_cache(maxsize=None)(
        lambda letters: sort_factors(letters, sym.gen_space))


def _accumulate(acc, sort, kept, slots, coeff):
    """Add to acc coeff times each sorted product of the kept letters with
    one (letter, coefficient) term per slot."""
    for combo in iproduct(*slots):
        word, sign = sort(kept + tuple(lab for lab, _ in combo))
        if word is None:
            continue
        c = coeff if sign > 0 else -coeff
        for _, x in combo:
            c *= x
        acc[word] = acc.get(word, ZERO) + c


def _store(ent, acc, wi, w, tgt):
    """File the column of word w, scaled by mult(target) / mult(w)."""
    mult_w = _multiplicity(w)
    for word, c in acc.items():
        if c != 0:
            ent[(tgt.windex[word], wi)] = c * _multiplicity(word) / mult_w


def _lift_multiplicative(f, src, tgt):
    """The coalgebra map Sigma^c f of a degree-0 generator map f."""
    cols = _columns(f)
    index = src.gen_space.index
    sort = _sorter(tgt)
    ent = {}
    for wi, w in enumerate(src.words):
        acc = {}
        _accumulate(acc, sort, (), [cols[index[lab]] for lab in w], ONE)
        _store(ent, acc, wi, w, tgt)
    return GradedMap(src.space, tgt.space, 0, ent, check=False)


def _lift_homotopy(h, nabla_pi, sym):
    """The symmetrized side homotopy built from h and nabla o pi."""
    h_cols, np_cols = _columns(h), _columns(nabla_pi)
    index = sym.gen_space.index
    degrees = sym.gen_space.degrees
    sort = _sorter(sym)
    ent = {}
    for wi, w in enumerate(sym.words):
        n = len(w)
        gens = [index[lab] for lab in w]
        degs = [degrees[g] for g in gens]
        weights = [Fraction(factorial(k) * factorial(n - 1 - k), factorial(n))
                   for k in range(n)]
        acc = {}
        for x in range(n):
            if not h_cols[gens[x]]:
                continue
            others = [p for p in range(n) if p != x]
            for k in range(n):
                for S in combinations(others, k):
                    rest = [p for p in others if p not in S]
                    slots = ([h_cols[gens[x]]]
                             + [np_cols[gens[p]] for p in rest])
                    if not all(slots):
                        continue
                    sign = koszul_sign(list(S) + [x] + rest, degs)
                    if sum(degs[p] for p in S) % 2:
                        sign = -sign
                    _accumulate(acc, sort, tuple(w[p] for p in S), slots,
                                sign * weights[k])
        _store(ent, acc, wi, w, sym)
    return GradedMap(sym.space, sym.space, 1, ent, check=False)


def symmetric_coalgebra_contraction(con, N, fix_side_conditions=True):
    """Lift a contraction of complexes to the truncated symmetric coalgebras.

    The input contracts (M, d) onto (H, d_H); the output contracts
    Sigma^c[sM] with the coderivation of the suspended differential onto
    Sigma^c[sH].  nabla_c and pi_c are the multiplicative lifts and h_c
    the symmetrized side homotopy, built on canonical words by the closed
    forms in the module docstring.  When a side condition fails the
    standard normalization is applied (the projections and inclusion are
    unchanged).

    Returns (contraction on word spaces, big_sym, small_sym).
    """
    nabla_s = suspend_map(con.nabla)
    pi_s = suspend_map(con.pi)
    h_s = suspend_map(con.h)
    sV = nabla_s.target
    sH = nabla_s.source

    big_sym = TruncatedSymCoalgebra(sV, N, gen_differential=suspend_map(con.big.d))
    small_sym = TruncatedSymCoalgebra(sH, N, gen_differential=suspend_map(con.small.d))

    nabla_c = _lift_multiplicative(nabla_s, small_sym, big_sym)
    pi_c = _lift_multiplicative(pi_s, big_sym, small_sym)
    h_c = _lift_homotopy(h_s, nabla_s.compose(pi_s), big_sym)

    big_cx = ChainComplex(big_sym.space, big_sym.d1)
    small_cx = ChainComplex(small_sym.space, small_sym.d1)
    out = Contraction(big_cx, small_cx, nabla_c, pi_c, h_c, check=False)
    errs = out.identity_failures()
    if errs and fix_side_conditions:
        out = normalize_homotopy(out)
        errs = out.identity_failures()
    if errs:
        raise ValueError("coalgebra lift failed: " + ", ".join(errs))
    return out, big_sym, small_sym


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
    """Transfer a nilpotent perturbation of the big differential.

    delta is a degree -1 endomorphism of the big space with
    (d + delta)^2 = 0 and h delta nilpotent (automatic for word-length
    lowering perturbations of a word-length preserving homotopy).  Returns
    (perturbed contraction, small perturbation).
    """
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
    return Contraction(big_p, small_p, nabla_p, pi_p, h_p), delta_small
