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

from itertools import combinations, groupby, product as iproduct
from math import factorial, lcm, prod

from .complexes import ChainComplex, Contraction
from .graded import GradedMap, koszul_sign, suspend_map
from .words import memo_sorter


def _multiplicity(word):
    """mult(w): the product of the factorials of the repeat counts."""
    return prod(factorial(len(list(run))) for _, run in groupby(word))


def _accumulate(acc, sort, kept, slots, coeff):
    """Add to acc coeff times each sorted product of the kept letters with
    one (letter, coefficient) term per slot (each slot a column's items)."""
    for combo in iproduct(*slots):
        word, sign = sort(kept + tuple(g for g, _ in combo))
        if word is None:
            continue
        c = coeff if sign > 0 else -coeff
        for _, x in combo:
            c *= x
        acc[word] = acc.get(word, 0) + c


def _lifted_map(src, tgt, degree, columns):
    """The map with the given columns (word index, acc, scale): the column
    of word index wi is acc times mult(target) over scale, for int
    numerators acc keyed by target word.  The columns are brought to their
    least common scale once, when the map is built."""
    den = lcm(*(scale for _, _, scale in columns))
    ent = {}
    for wi, acc, scale in columns:
        factor = den // scale
        for word, c in acc.items():
            if c:
                ent[(tgt.windex[word], wi)] = c * _multiplicity(word) * factor
    return GradedMap(src.space, tgt.space, degree, ent, check=False, den=den)


def _lift_multiplicative(f, src, tgt):
    """The coalgebra map Sigma^c f of a degree-0 generator map f.

    On the numerators of f, a word of length n gathers f.den^n; with the
    1 / mult(w) of the closed form, its column is over f.den^n mult(w)."""
    cols = f.num_columns()
    sort = memo_sorter(tgt.gen_space)
    columns = []
    for wi, w in enumerate(src.words):
        acc = {}
        _accumulate(acc, sort, (), [cols.get(g, {}).items() for g in w], 1)
        if acc:
            columns.append((wi, acc, f.den ** len(w) * _multiplicity(w)))
    return _lifted_map(src, tgt, 0, columns)


def _lift_homotopy(h, nabla_pi, sym):
    """The symmetrized side homotopy built from h and nabla o pi.

    On numerators, a term keeping k letters has one h slot and n - 1 - k
    nabla pi slots; its weight k! (n-1-k)! / (n! mult(w)) and the missing
    k factors nabla_pi.den bring it over the column's scale
    n! mult(w) h.den nabla_pi.den^(n-1)."""
    h_cols, np_cols = h.num_columns(), nabla_pi.num_columns()
    m_np = nabla_pi.den
    degrees = sym.gen_space.degrees
    sort = memo_sorter(sym.gen_space)
    columns = []
    for wi, w in enumerate(sym.words):
        n = len(w)
        degs = [degrees[g] for g in w]
        weights = [factorial(k) * factorial(n - 1 - k) * m_np ** k
                   for k in range(n)]
        acc = {}
        for x in range(n):
            if w[x] not in h_cols:
                continue
            others = [p for p in range(n) if p != x]
            for k in range(n):
                for S in combinations(others, k):
                    rest = [p for p in others if p not in S]
                    slots = ([h_cols[w[x]].items()]
                             + [np_cols.get(w[p], {}).items() for p in rest])
                    if not all(slots):
                        continue
                    sign = koszul_sign(list(S) + [x] + rest, degs)
                    if sum(degs[p] for p in S) % 2:
                        sign = -sign
                    _accumulate(acc, sort, tuple(w[p] for p in S), slots,
                                sign * weights[k])
        if acc:
            columns.append((wi, acc, factorial(n) * _multiplicity(w)
                            * h.den * m_np ** (n - 1)))
    return _lifted_map(sym, sym, 1, columns)


def symmetric_coalgebra_contraction(con, big_sym, small_sym):
    """Lift a contraction of complexes to truncated symmetric coalgebras.

    con contracts (M, d) onto (H, d_H); big_sym and small_sym are
    Sigma^c[sM] and Sigma^c[sH] with d1 induced by d and d_H
    (words.suspended_coalgebra) and are left unchanged.  Returns the
    contraction (nabla_c, pi_c, h_c) of (Sigma^c[sM], d1) onto
    (Sigma^c[sH], d1) given by the closed forms of the module docstring,
    after checking its seven identities once.

    The side conditions hold whenever con's do.  On v_1 ... v_n, h_c is
    the sum over x and S of w(|S|) (+-) v_S . h v_x . nabla pi v_R, R the
    other letters.  pi_c h_c = 0: pi_c is multiplicative and pi h = 0.
    h_c nabla_c = 0: nabla_c is multiplicative and h nabla = 0.  h_c h_c
    on a term v_S . h v_x . nabla pi v_R: h on h v_x dies by h h = 0, h
    on some nabla pi v_r by h nabla = 0, and h v_x sent to nabla pi by
    pi h = 0.  The other terms put h on two letters, x and then x' in S.
    Exchanging x and x' in both kept sets pairs them one-to-one with the
    terms that take x' first.  The kept sets keep their sizes, so the
    weights agree, and nabla pi nabla pi = nabla pi gives equal factors;
    but the odd h meets the two letters in opposite orders, so the Koszul
    signs are opposite and each pair cancels.
    """
    nabla_s = suspend_map(con.nabla)
    pi_s = suspend_map(con.pi)
    h_s = suspend_map(con.h)
    nabla_c = _lift_multiplicative(nabla_s, small_sym, big_sym)
    pi_c = _lift_multiplicative(pi_s, big_sym, small_sym)
    h_c = _lift_homotopy(h_s, nabla_s.compose(pi_s), big_sym)

    big_cx = ChainComplex(big_sym.space, big_sym.d1)
    small_cx = ChainComplex(small_sym.space, small_sym.d1)
    out = Contraction(big_cx, small_cx, nabla_c, pi_c, h_c, check=False)
    errs = out.identity_failures()
    if errs:
        raise ValueError("coalgebra lift failed: " + ", ".join(errs))
    return out


def _series(term, step, max_terms):
    """term + step(term) + step(step(term)) + ..., up to the first zero
    term; raises unless one of the first max_terms steps gives zero."""
    total = term
    for _ in range(max_terms):
        term = step(term)
        if term.is_zero():
            return total
        total = total + term
    raise ValueError("perturbation series does not terminate")


def perturbation_lemma(con, delta):
    """Transfer a nilpotent perturbation of the big differential.

    delta is a degree -1 endomorphism of the big space with
    (d + delta)^2 = 0 and h delta nilpotent (automatic for word-length
    lowering perturbations of a word-length preserving homotopy).  Returns
    (perturbed contraction, small perturbation).

    The series are summed on the thin operands, never as endomorphisms:

        nabla_p = sum_k (h delta)^k nabla,   h_p = sum_k (h delta)^k h,
        pi_p = sum_k pi (delta h)^k,         delta_small = pi delta nabla_p.

    The nilpotence guard stays exact.  The k-th term of the h-series is
    (h delta)^k h, and (h delta)^{k+1} = [(h delta)^k h] delta, so some
    term vanishes exactly when h delta is nilpotent.  A nilpotent
    endomorphism of an n-dimensional space has n-th power zero, so then
    the term for k = n vanishes.  h delta and delta h are nilpotent
    together, so the nabla- and pi-series end by k = n as well.  Each
    series gets n + 1 steps and raises "perturbation series does not
    terminate" when none of them gives zero, which the h-series does
    whenever h delta is not nilpotent.

    Both perturbed complexes come from ChainComplex.perturbed, which
    squares only the cross terms: d^2 = 0 was checked on con's complexes.
    """
    big, small = con.big, con.small
    try:
        big_p = big.perturbed(delta)
    except ValueError as exc:
        raise ValueError(
            "perturbed differential does not square to zero") from exc
    h = con.h
    max_terms = big.space.dim + 1

    def left(f):
        return h.compose(delta.compose(f))

    h_p = _series(h, left, max_terms)
    nabla_p = _series(con.nabla, left, max_terms)
    pi_p = _series(con.pi, lambda f: f.compose(delta).compose(h), max_terms)
    delta_small = con.pi.compose(delta.compose(nabla_p))
    small_p = small.perturbed(delta_small)
    return Contraction(big_p, small_p, nabla_p, pi_p, h_p), delta_small
