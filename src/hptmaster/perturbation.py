"""Coalgebra lifts of contractions and the basic perturbation lemma.

A contraction (nabla, pi, h) of complexes lifts to the truncated symmetric
coalgebras on the suspended spaces.  Write v_g for the generator g, mult(w)
for the product of the factorials of the repeat counts of a word w, and
a . b for the graded-commutative product of words: the sorted merge with
its Koszul sign, zero when an odd letter repeats.  A prefix of a
canonical word is canonical, so every column below is built from the
column of a shorter word, the word without its last letter, which the
coalgebra already holds, and which it indexes (TruncatedSymCoalgebra.
parent).  Each product there is one of a letter with a word, v_t . e_u,
which the coalgebra memoises by word index (TruncatedSymCoalgebra.
letter_products, filled by a recurrence on the prefix of u, without a
sort), so the columns are kept by target word index.  Each column is
homogeneous, so a letter multiplied on the right moves to the front with
one sign, (-1)^{|t| deg u}, for the whole column.

  * nabla_c and pi_c are multiplicative: f_c(e_w) is acc(w) read with
    mult(target) / mult(w) on each target word, where acc(w) is the
    product f(v_{w_1}) . ... . f(v_{w_n}); so, with g = w[-1] and f of
    degree 0, acc(w) = acc(w[:-1]) . f(v_g) = (-1)^{|g| deg w[:-1]}
    f(v_g) . acc(w[:-1]).  The walk goes by word index, and a word whose
    prefix has a zero acc, or whose last letter f sends to zero, has a
    zero acc itself, so it makes no product.
  * h_c(e_w), with n = |w|, is in closed form the sum over a position x
    and a subset S of the other positions: letters in S are kept, x goes
    to h and the rest R to nabla pi.  A term carries the Koszul sign of
    the arrangement (S, x, R), (-1)^{deg S} for moving h past S, and the
    weight |S|! (n-1-|S|)! / (n! mult(w)).  Moving h v_x, of degree
    |x| + 1, to the front costs (-1)^{(|x|+1) deg S}.  The Koszul sign of
    (S, x, R) is (-1)^{|x| deg(before x)} (-1)^{|x| deg S} times that of
    (S, R) among the other positions, and that last sign turns the
    product taken in the order (S, R) back into position order, since
    nabla pi has degree 0.  The (-1)^{deg S} factors cancel, and only the
    sign of moving x to the front is left:

        h_c(e_w) = sum_x (-1)^{|x| deg(before x)}
                   sum_k weight(k) h(v_x) . M_k(w without x),

    where M(u) = prod_{g in u} (v_g + t nabla pi v_g), in position
    order, and M_k(u) collects its terms that keep k letters.  M(u) =
    M(u[:-1]) . (v_g + t nabla pi v_g) = (-1)^{|g| deg u[:-1]} (v_g + t
    nabla pi v_g) . M(u[:-1]), g = u[-1], is the same recurrence.  The
    positions of one run of a letter g leave the same word, and a letter
    repeats only when it is even, where the sign is +1: each distinct
    letter g counts count(g) times.

    So the sum is walked by pairs (x, u) of a letter x with an h column
    and a word u one letter shorter, in u's index range: the letter
    product v_x . e_u is e_w with the sign (-1)^{|x| deg(before x)} (zero
    when an odd x is in u), and x counts u.count(x) + 1 times in w.  Each
    pair is one read of the letter products, no word is sliced out of a
    longer one, and sum_k weight(k) M_k(u) is formed once per u.

These are the invariant parts of the tensor-coalgebra lift with the side
homotopy sum_k Id^k (x) h (x) (nabla pi)^{rest}: the weight is the share of
arrangements in which S precedes x.  The perturbation lemma then transfers
a word-length lowering perturbation delta of the big differential across
any contraction.  It sums one series, h_p = sum_k (h delta)^k h, finite by
the filtration argument, and reads the rest off it in closed form:

    nabla_p = nabla + h_p (delta nabla),   pi_p = pi + (pi delta) h_p,
    delta_small = (pi delta) nabla_p.
"""

from math import factorial, lcm

from .complexes import ChainComplex, Contraction
from .graded import GradedMap, suspend_map
from .words import EMPTY


def _lifted_map(src, tgt, degree, columns):
    """The map with the given columns (word index, acc, scale): the column
    of word index wi is acc times mult(target) over scale, for int
    numerators acc keyed by target word index.  The columns are brought to
    their least common scale once, when the map is built."""
    den = lcm(*(scale for _, _, scale in columns))
    mult = tgt.mult
    cols = {}
    for wi, acc, scale in columns:
        factor = den // scale
        cols[wi] = {ti: c * mult[ti] * factor for ti, c in acc.items()}
    return GradedMap.from_columns(src.space, tgt.space, degree, cols, den)


def _times(out, terms, acc, coalg):
    """out += (sum of y v_t over the (t, y) in terms) . acc, for int
    coefficients keyed by word index, each product read from the
    coalgebra's letter products.  Returns out, which may hold zero
    values."""
    products = coalg.letter_products
    for t, y in terms:
        for u, c in acc.items():
            w, sign = products[t, u]
            if w is not None:
                out[w] = out.get(w, 0) + sign * y * c
    return out


def _lift_multiplicative(f, src, tgt):
    """The coalgebra map Sigma^c f of a degree-0 generator map f.

    acc(w) = (-1)^{|g| deg w[:-1]} f(v_g) . acc(w[:-1]), g = w[-1], on
    the numerators of f, so a word of length n gathers f.den^n; with the
    1 / mult(w) of the closed form, its column is over f.den^n mult(w).
    acc is kept by word index and read at src.parent; a word whose prefix
    has a zero acc, or whose last letter f sends to zero, is skipped."""
    cols = f.columns
    words, parent = src.words, src.parent
    odd, degs, mult = src.odd, src.space.degrees, src.mult
    # words[0] is the empty word
    accs = [None] * len(words)
    accs[0] = {tgt.windex[EMPTY]: 1}
    columns = [(0, accs[0], 1)]
    for wi in range(1, len(words)):
        prev = accs[parent[wi]]
        if prev is None:
            continue
        w = words[wi]
        g = w[-1]
        col = cols.get(g)
        if col is None:
            continue
        terms = col.items()
        # w[:-1] is odd when an odd g leaves an even w
        if odd[g] and not degs[wi] % 2:
            terms = [(t, -y) for t, y in terms]
        acc = _times({}, terms, prev, tgt)
        if any(acc.values()):
            accs[wi] = acc
            columns.append((wi, acc, f.den ** len(w) * mult[wi]))
    return _lifted_map(src, tgt, 0, columns)


def _lift_homotopy(h, nabla_pi, sym):
    """The symmetrized side homotopy built from h and nabla o pi.

    M(u) is kept by word index as k -> {word index: coefficient}, k the
    number of kept letters, and is built one word length at a time over
    that length's index range from the previous length's M only, at
    sym.parent.  The h terms of the words of length n walk the pairs
    (x, u) of the module docstring, u of length n - 1.  On numerators a
    kept letter counts 1 and a nabla pi letter its numerator, so the
    weight k! (n-1-k)! / (n! mult(w)) and the missing k factors
    nabla_pi.den bring a term over the column's scale
    n! mult(w) h.den nabla_pi.den^(n-1).  Every term holds one h letter,
    so an h without columns (d = 0) lifts to zero."""
    h_cols, np_cols = h.columns, nabla_pi.columns
    if not h_cols:
        return GradedMap.zero(sym.space, sym.space, 1)
    m_np = nabla_pi.den
    words, parent, products = sym.words, sym.parent, sym.letter_products
    odd, degs, mult = sym.odd, sym.space.degrees, sym.mult
    columns = []
    # words[0] is the empty word, and M(()) = e_()
    prev = {0: {0: {0: 1}}}
    for n in range(1, sym.N + 1):
        weights = [factorial(k) * factorial(n - 1 - k) * m_np ** k
                   for k in range(n)]
        accs = {}
        for ui, m_u in prev.items():
            wu = None   # sum_k weights[k] M_k(u), on first use
            for x, col in h_cols.items():
                wi, sign = products[x, ui]
                if wi is None:
                    continue
                if wu is None:
                    wu = {}
                    for k, part in m_u.items():
                        for word, c in part.items():
                            wu[word] = wu.get(word, 0) + weights[k] * c
                if not odd[x]:
                    sign *= words[ui].count(x) + 1
                acc = accs.get(wi)
                if acc is None:
                    acc = accs[wi] = {}
                _times(acc, [(t, sign * y) for t, y in col.items()], wu, sym)
        for wi in sorted(accs):
            if accs[wi]:
                columns.append((wi, accs[wi], factorial(n) * mult[wi] * h.den
                                * m_np ** (n - 1)))
        if n < sym.N:
            cur = {}
            for wi in sym.length_range(n, n):
                # w[:-1] is odd when an odd g = w[-1] leaves an even w
                g = words[wi][-1]
                sign = -1 if odd[g] and not degs[wi] % 2 else 1
                terms = [(t, sign * y) for t, y in np_cols.get(g, {}).items()]
                m = cur[wi] = {}
                for k, part in prev[parent[wi]].items():
                    _times(m.setdefault(k + 1, {}), ((g, sign),), part, sym)
                    _times(m.setdefault(k, {}), terms, part, sym)
            prev = cur
    return _lifted_map(sym, sym, 1, columns)


def symmetric_coalgebra_contraction(con, big_sym, small_sym):
    """Lift a contraction of complexes to truncated symmetric coalgebras.

    con contracts (M, d) onto (H, d_H); big_sym and small_sym are
    Sigma^c[sM] and Sigma^c[sH] with d1 induced by d and d_H
    (words.suspended_coalgebra) and are left unchanged.  Returns the
    contraction (nabla_c, pi_c, h_c) of (Sigma^c[sM], d1) onto
    (Sigma^c[sH], d1) of the module docstring, built word by word from
    the columns of shorter words by the recurrences derived there, after
    checking its seven identities once.

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

    Only the h-series is summed, on the thin operand h, never as an
    endomorphism; the other three maps are closed forms in it:

        h_p = sum_k (h delta)^k h,
        nabla_p = sum_k (h delta)^k nabla = nabla + h_p (delta nabla),
        pi_p = sum_k pi (delta h)^k = pi + (pi delta) h_p,
        delta_small = pi delta sum_k (h delta)^k nabla = (pi delta) nabla_p,

    since (h delta)^{k+1} = (h delta)^k h delta and
    (delta h)^{k+1} = delta (h delta)^k h.

    One guard suffices, and it stays exact.  The k-th term of the h-series
    is (h delta)^k h, and (h delta)^{k+1} = [(h delta)^k h] delta, so some
    term vanishes exactly when h delta is nilpotent.  A nilpotent
    endomorphism of an n-dimensional space has n-th power zero, so then
    the term for k = n vanishes.  So the h-series gets n + 1 steps and
    raises "perturbation series does not terminate" when none of them
    gives zero, that is, exactly when h delta is not nilpotent; when it
    ends, so do the nabla- and pi-series that the closed forms stand for.

    Both perturbed complexes come from ChainComplex.perturbed, which
    squares only the cross terms: d^2 = 0 was checked on con's complexes.
    A zero delta leaves every map as it is, so con itself comes back with
    the zero small perturbation, once con's identities hold.
    """
    big, small = con.big, con.small
    if delta.is_zero():
        errs = con.identity_failures()
        if errs:
            raise ValueError("invalid contraction: " + ", ".join(errs))
        return con, GradedMap.zero(small.space, small.space, -1)
    try:
        big_p = big.perturbed(delta)
    except ValueError as exc:
        raise ValueError(
            "perturbed differential does not square to zero") from exc
    h = con.h
    h_p = _series(h, lambda f: h.compose(delta.compose(f)),
                  big.space.dim + 1)
    pi_delta = con.pi.compose(delta)
    nabla_p = con.nabla + h_p.compose(delta.compose(con.nabla))
    pi_p = con.pi + pi_delta.compose(h_p)
    delta_small = pi_delta.compose(nabla_p)
    small_p = small.perturbed(delta_small)
    return Contraction(big_p, small_p, nabla_p, pi_p, h_p), delta_small
