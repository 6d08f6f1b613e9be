"""The word layer computed the long way, kept as an exact test oracle.

The library counts splitting signs run by run, checks Jacobi on sorted
triples only, evaluates the transfer recursion's cup bracket on the
words of one length at a time, and forms cup brackets, coderivations and
the (D (x) 1 + 1 (x) D) Delta side of the compatibility check by merging
words of the column supports.  This module keeps the direct versions:
splittings signed by the Koszul sign of the full position permutation,
the Jacobi loop over every ordered triple, a recursion step that
evaluates the cup bracket on every word with dense pairings and then
drops the columns of the other lengths, and the per-word cup bracket,
coderivation and compatibility check that enumerate every splitting of
every word.  It also keeps koszul_sign, the sign of a permutation of
graded factors, and sort_factors, the signed sort of a sequence of
letters; the library reads theta words with a sort that needs no sign.
A coderivation is given, as in the library, by its corestriction: a
degree -1 GradedMap from the word space to the generators, which
corestriction builds from a table word -> {generator: value} and
components reads back by arity.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct

from hptmaster.graded import GradedMap, ONE
from hptmaster.words import suspended_coalgebra
from linalg_oracle import dense
from table_oracle import bilinear

ZERO = Fraction(0)
HALF = Fraction(1, 2)


def word_degree(word, gen_space):
    return sum(gen_space.degrees[g] for g in word)


def corestriction(coalg, table):
    """The degree -1 map from coalg's words to its generators with column
    table[w] on the word w, for a table word -> {generator: value}."""
    return GradedMap.from_columns(
        coalg.space, coalg.gen_space, -1,
        {coalg.windex[w]: col for w, col in table.items()})


def components(lam, coalg):
    """The corestriction lam by arity: b -> {word: {generator: Fraction}},
    only the arities with a nonzero column, so sorted() of it is the arity
    support."""
    out = {}
    for s, col in sorted(lam.by_column().items()):
        out.setdefault(len(coalg.words[s]), {})[coalg.words[s]] = col
    return out


def koszul_sign(permutation, degrees):
    """Sign of permuting homogeneous factors of the given degrees.

    permutation[i] = original position of the element now at slot i.  The
    sign is (-1)^k with k the number of inversions (i < j, permutation[i] >
    permutation[j]) in which both factors have odd degree.
    """
    perm = list(permutation)
    if sorted(perm) != list(range(len(degrees))):
        raise ValueError("malformed permutation")
    odd = [p for p in perm if degrees[p] % 2]
    inversions = sum(a > b for i, a in enumerate(odd) for b in odd[i + 1:])
    return -1 if inversions % 2 else 1


def sort_factors(letters, gen_space):
    """Canonical form of a sequence of generator indices.

    Returns (word, sign), sign an int +-1; the word is None (sign 0) when
    an odd-degree letter repeats.  Sorting is by (degree, label) with the
    Koszul sign of the sorting permutation.
    """
    letters = list(letters)
    degs = [gen_space.degrees[g] for g in letters]
    keyed = sorted(range(len(letters)),
                   key=lambda i: (degs[i], gen_space.labels[letters[i]], i))
    sign = koszul_sign(keyed, degs)
    word = tuple(letters[i] for i in keyed)
    for i in range(len(word) - 1):
        if word[i] == word[i + 1] and degs[keyed[i]] % 2:
            return None, 0
    return word, sign


def memo_sorter(gen_space):
    """sort_factors on the generators of gen_space, memoized per tuple of
    letters for the life of the returned function."""
    return lru_cache(maxsize=None)(
        lambda letters: sort_factors(letters, gen_space))


def splittings(word, gen_space, left_size=None):
    """Ordered multiset splittings (A, B, sign), leftmost copies into A."""
    degs = [gen_space.degrees[g] for g in word]
    runs = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        runs.append((i, j - i))
        i = j
    for take in iproduct(*[range(cnt + 1) for _, cnt in runs]):
        a_pos = []
        for (start, cnt), t in zip(runs, take):
            a_pos.extend(range(start, start + t))
        if left_size is not None and len(a_pos) != left_size:
            continue
        a_set = set(a_pos)
        b_pos = [p for p in range(len(word)) if p not in a_set]
        sign = koszul_sign(a_pos + b_pos, degs)
        yield (tuple(word[p] for p in a_pos),
               tuple(word[p] for p in b_pos), sign)


def validate_dgla(g):
    """The dgLa report with the Jacobi loop over every ordered triple."""
    space = g.space
    degs = space.degrees
    jacobi = True
    jacobi_witness = None
    for i in range(space.dim):
        for j in range(space.dim):
            for k in range(space.dim):
                lhs = _bracket(g, {i: ONE}, g.bracket.get(j, k))
                rhs1 = _bracket(g, g.bracket.get(i, j), {k: ONE})
                sgn = -ONE if (degs[i] % 2 and degs[j] % 2) else ONE
                rhs2 = _bracket(g, {j: ONE}, g.bracket.get(i, k))
                bad = dict(lhs)
                for t, c in rhs1.items():
                    bad[t] = bad.get(t, ZERO) - c
                for t, c in rhs2.items():
                    bad[t] = bad.get(t, ZERO) - sgn * c
                if any(c != 0 for c in bad.values()):
                    jacobi = False
                    if jacobi_witness is None:
                        jacobi_witness = (space.labels[i], space.labels[j],
                                          space.labels[k])
    leibniz = True
    leibniz_witness = None
    for i in range(space.dim):
        for j in range(space.dim):
            d_br = {}
            for k, c in g.bracket.get(i, j).items():
                for t, c2 in g.d.apply_basis(k).items():
                    d_br[t] = d_br.get(t, ZERO) + c * c2
            rhs = {}
            for t, c in g.d.apply_basis(i).items():
                for k, c2 in g.bracket.get(t, j).items():
                    rhs[k] = rhs.get(k, ZERO) + c * c2
            sgn = -ONE if degs[i] % 2 else ONE
            for t, c in g.d.apply_basis(j).items():
                for k, c2 in g.bracket.get(i, t).items():
                    rhs[k] = rhs.get(k, ZERO) + sgn * c * c2
            bad = dict(d_br)
            for t, c in rhs.items():
                bad[t] = bad.get(t, ZERO) - c
            if any(c != 0 for c in bad.values()):
                leibniz = False
                if leibniz_witness is None:
                    leibniz_witness = (space.labels[i], space.labels[j])
    return {
        "antisymmetry": True,
        "jacobi": jacobi,
        "jacobi_witness": jacobi_witness,
        "chain_map": leibniz,
        "chain_map_witness": leibniz_witness,
        "passed": jacobi and leibniz,
    }


def _bracket(g, u, v):
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            for k, c in g.bracket.get(i, j).items():
                out[k] = out.get(k, ZERO) + a * b * c
    return out


def full_cup_bracket(a, b, coalg, g):
    """[a, b] on every word, through dense brackets and oracle splittings."""
    ent = {}
    odd_b = b.degree % 2
    for wi, w in enumerate(coalg.words):
        acc = [ZERO] * g.space.dim
        for A, B, sign in splittings(w, coalg.gen_space):
            va = a.apply_basis(coalg.windex[A])
            vb = b.apply_basis(coalg.windex[B])
            if not va or not vb:
                continue
            if odd_b and word_degree(A, coalg.gen_space) % 2:
                sign = -sign
            ua = dense(va, g.space.dim)
            ub = dense(vb, g.space.dim)
            for t, c in enumerate(bilinear(ua, ub, g.bracket.get)):
                acc[t] += sign * c
        for t, c in enumerate(acc):
            if c != 0:
                ent[(t, wi)] = c
    return GradedMap(coalg.space, g.space, a.degree + b.degree, ent)


def transfer_tau_and_D(g, con, N):
    """(tau map, corestriction of D) of the Thm 2.9 recursion, one full cup
    per step."""
    coalg = suspended_coalgebra(con.small.d, N)
    tau_ent = {}
    for wi, w in enumerate(coalg.words):
        if len(w) == 1:
            for t, c in con.nabla.apply_basis(w[0]).items():
                tau_ent[(t, wi)] = c
    tau_hom = GradedMap(coalg.space, g.space, -1, tau_ent)
    lam = {}
    for b in range(2, N + 1):
        full = full_cup_bracket(tau_hom, tau_hom, coalg, g)
        cb = GradedMap(coalg.space, g.space, full.degree,
                       {(t, s): c for (t, s), c in full.entries.items()
                        if coalg.word_length(s) == b})
        tau_hom = tau_hom - con.h.compose(cb).scale(HALF)
        pi_cb = con.pi.compose(cb).scale(HALF)
        for wi, w in enumerate(coalg.words):
            if len(w) == b:
                val = pi_cb.apply_basis(wi)
                if val:
                    lam[w] = val
    return tau_hom, corestriction(coalg, lam)


def cup_bracket(a, b, coalg, target, length=None):
    """[a, b] word by word over every splitting of every word."""
    ent = {}
    odd_b = b.degree % 2
    for wi, w in enumerate(coalg.words):
        if length is not None and len(w) != length:
            continue
        acc = {}
        for A, B, sign in splittings(w, coalg.gen_space):
            va = a.apply_basis(coalg.windex[A])
            if not va:
                continue
            vb = b.apply_basis(coalg.windex[B])
            if not vb:
                continue
            if odd_b and word_degree(A, coalg.gen_space) % 2:
                sign = -sign
            for t, c in _bracket(target, va, vb).items():
                acc[t] = acc.get(t, ZERO) + sign * c
        for t in sorted(acc):
            if acc[t] != 0:
                ent[(t, wi)] = acc[t]
    return GradedMap(coalg.space, a.target, a.degree + b.degree, ent)


def coderivation_operator(lam, coalg):
    """The coderivation extending the corestriction lam, word by word over
    the splittings whose left factor has the arity of a component."""
    ent = {}
    gen_space = coalg.gen_space
    sort = memo_sorter(gen_space)
    table = components(lam, coalg)
    for wi, w in enumerate(coalg.words):
        for b in sorted(table):
            if b > len(w):
                continue
            for A, B, sign in splittings(w, gen_space, left_size=b):
                val = table[b].get(A)
                if not val:
                    continue
                for g, c in val.items():
                    w2, sign2 = sort((g,) + B)
                    if w2 is None:
                        continue
                    mult = B.count(g) + 1
                    key = (coalg.windex[w2], wi)
                    ent[key] = ent.get(key, ZERO) + mult * sign * c * sign2
    ent = {k: v for k, v in ent.items() if v != 0}
    return GradedMap(coalg.space, coalg.space, -1, ent)


def commutes_with_diagonal(op, coalg):
    """Words w where Delta(D e_w) != (D (x) 1 + 1 (x) D) Delta(e_w), both
    sides over the splittings of w."""
    odd = op.degree % 2 == 1
    bad = []
    for wi, w in enumerate(coalg.words):
        diff = {}
        for t, c in op.apply_basis(wi).items():
            for A, B, sign in splittings(coalg.words[t], coalg.gen_space):
                diff[(A, B)] = diff.get((A, B), ZERO) + c * sign
        for A, B, sign in splittings(w, coalg.gen_space):
            for t, c in op.apply_basis(coalg.windex[A]).items():
                key = (coalg.words[t], B)
                diff[key] = diff.get(key, ZERO) - sign * c
            sgn = -1 if (odd and word_degree(A, coalg.gen_space) % 2) else 1
            for t, c in op.apply_basis(coalg.windex[B]).items():
                key = (A, coalg.words[t])
                diff[key] = diff.get(key, ZERO) - sign * c * sgn
        if any(c != 0 for c in diff.values()):
            bad.append(w)
    return bad
