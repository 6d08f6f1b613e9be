"""The coalgebra lifts by closed forms, kept as an exact test oracle.

The library builds each lifted column from the column of the word's
prefix (perturbation._lift_multiplicative, _lift_homotopy).  This module
keeps the closed forms that expand every word from scratch: for nabla_c
and pi_c one image term per letter, sorted; for h_c every position x and
every subset S of the other positions, with the Koszul sign of the
arrangement (S, x, rest) and (-1)^{deg S} for moving h past S.
"""

from itertools import combinations, groupby, product as iproduct
from math import factorial, lcm, prod

from hptmaster.graded import GradedMap, koszul_sign, suspend_map
from word_oracle import memo_sorter


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
    cols = {}
    for wi, acc, scale in columns:
        factor = den // scale
        cols[wi] = {tgt.windex[word]: c * _multiplicity(word) * factor
                    for word, c in acc.items()}
    return GradedMap.from_columns(src.space, tgt.space, degree, cols, den)


def _lift_multiplicative(f, src, tgt):
    """The coalgebra map Sigma^c f of a degree-0 generator map f.

    On the numerators of f, a word of length n gathers f.den^n; with the
    1 / mult(w) of the closed form, its column is over f.den^n mult(w)."""
    cols = f.columns
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
    h_cols, np_cols = h.columns, nabla_pi.columns
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


def lift(con, big_sym, small_sym):
    """(nabla_c, pi_c, h_c) of con by the closed forms, on the coalgebras
    that perturbation.symmetric_coalgebra_contraction takes."""
    nabla_s = suspend_map(con.nabla)
    pi_s = suspend_map(con.pi)
    h_s = suspend_map(con.h)
    return (_lift_multiplicative(nabla_s, small_sym, big_sym),
            _lift_multiplicative(pi_s, big_sym, small_sym),
            _lift_homotopy(h_s, nabla_s.compose(pi_s), big_sym))
