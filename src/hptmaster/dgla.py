"""Differential graded Lie algebras, cup brackets, and twisting cochains.

The bracket is a graded.StructureTable, which keeps the structure
constants for index pairs i <= j and derives the others through graded
antisymmetry, so inconsistent input cannot be represented.  All degrees
are homological.
"""

from fractions import Fraction

from . import linalg
from .complexes import ChainComplex
from .graded import GradedMap, GradedVectorSpace, StructureTable
from .words import EMPTY, merge_words, suspended_coalgebra


class DgLieAlgebra:
    """A chain complex with a degree-0 graded Lie bracket.

    bracket is the StructureTable of [e_i, e_j] = sum c^k_ij e_k, built
    from rows (i, j) -> {k: c} in either index order, divided by den;
    bracket_table is its canonical i <= j dict.
    """

    def __init__(self, complex_, bracket_rows, den=1):
        self.complex = complex_
        self.bracket = StructureTable(complex_.space, bracket_rows, den=den)

    @property
    def bracket_table(self):
        return self.bracket.canonical

    @property
    def space(self):
        return self.complex.space

    @property
    def d(self):
        return self.complex.d

    def is_abelian(self):
        return not any(self.bracket.partners)

    def sub_algebra(self, vectors):
        """Sub-dgLa spanned by the given homogeneous sparse vectors.

        Returns (sub: DgLieAlgebra, inclusion: GradedMap).  Raises when the
        span is not closed under d or the bracket.
        """
        space = self.space
        by_deg = {}
        for v in vectors:
            if v:
                by_deg.setdefault(space.vector_degree(v), []).append(v)
        basis_vecs = []
        basis_degs = []
        for deg in sorted(by_deg):
            # pivot-1 rows: the bv report's tau is read in this basis
            rows = [{k: Fraction(c, row[p]) for k, c in row.items()}
                    for p, row in linalg.rref(by_deg[deg])]
            basis_vecs.extend(rows)
            basis_degs.extend([deg] * len(rows))
        sub_space = GradedVectorSpace(
            [("m%d" % i, d) for i, d in enumerate(basis_degs)])
        n = len(basis_vecs)
        brackets = {}
        for i in range(n):
            for j in range(i, n):
                br = self.bracket(basis_vecs[i], basis_vecs[j])
                if br:
                    brackets[(i, j)] = br
        # the coordinates of d and of the brackets in one elimination
        coords, den = linalg.solve(basis_vecs,
                                   [self.d(v) for v in basis_vecs]
                                   + list(brackets.values()))
        if None in coords:
            raise ValueError("subspace is not closed")
        sub = DgLieAlgebra(
            ChainComplex(sub_space, GradedMap.from_columns(
                sub_space, sub_space, -1, coords[:n], den)),
            dict(zip(brackets, coords[n:])), den=den)
        incl = GradedMap.from_columns(sub_space, space, 0, basis_vecs)
        return sub, incl


def validate_dgla(g):
    """Exact report on antisymmetry, Jacobi, and the chain-map condition.

    The bracket table is graded antisymmetric by construction.  Jacobi is
    checked by its first_non_jacobi and the chain-map condition, the
    Leibniz rule of d, by its first_non_derivation: each visits only what
    the supports of the bracket and of d let fail, and its witness is the
    lexicographically first failure.
    """
    space = g.space
    table = g.bracket
    antisym = True   # the bracket table's canonical storage
    jacobi = table.first_non_jacobi()
    leibniz = table.first_non_derivation(g.d)
    return {
        "antisymmetry": antisym,
        "jacobi": jacobi is None,
        "jacobi_witness": (None if jacobi is None else
                           tuple(space.labels[i] for i in jacobi)),
        "chain_map": leibniz is None,
        "chain_map_witness": (None if leibniz is None else
                              tuple(space.labels[i] for i in leibniz)),
        "passed": antisym and jacobi is None and leibniz is None,
    }


class TwistingCochainHom:
    """A degree -1 map from a truncated symmetric coalgebra to g.

    hom is a single GradedMap from the word space.  The composite with the
    coaugmentation must be zero (no entries on the empty word).
    """

    def __init__(self, source, target, hom):
        self.source = source
        self.target = target
        self.hom = hom
        if hom.degree != -1:
            raise ValueError("twisting cochain must have degree -1")
        unit = source.windex[EMPTY]
        if unit in hom.columns:
            raise ValueError("composite with the coaugmentation is nonzero")


def cup_bracket(a, b, coalg, target, length=None):
    """[a, b] = bracket o (a (x) b) o Delta, with Koszul signs.

    a, b are GradedMaps from the coalgebra word space into the target Lie
    algebra's space.  When length is given only words of that length are
    evaluated, and the columns of all other words are zero.

    Each splitting (A, B) of w occurs once in Delta(e_w), so
    [a, b](w) = sum over A in supp a, B in supp b merging to w of
    term(A, B) = sign(A, B) (-1)^{|b||A|} [a(A), b(B)].

    The cup square [t, t] of a map t of odd degree p (a is b) is summed
    over the unordered pairs of its support.  The two orders of a pair
    give equal terms: sign(B, A) = sign(A, B) (-1)^{|A||B|}, and graded
    antisymmetry gives [t B, t A] = -(-1)^{(|A|+p)(|B|+p)} [t A, t B], so
    term(B, A) = (-1)^{1+p} term(A, B) = term(A, B).  So only the pairs
    of columns s_A <= s_B are visited: a pair with s_A < s_B counts twice,
    and the diagonal pair A = B, one splitting of its merge, once (its
    value [t A, t A] need not vanish, t A being odd).  A pair whose
    supports hold no bracket partners brackets to 0 and is not merged.
    """
    words = coalg.words
    table = target.bracket
    b_by_length = {}
    for s, vb in b.columns.items():
        b_by_length.setdefault(len(words[s]), []).append((s, words[s], vb))
    odd_b = b.degree % 2
    square = a is b and odd_b
    # numerator units: each add_product adds table.den times a bracket of
    # columns a.den and b.den times too large
    acc = {}
    for s, va in a.columns.items():
        A = words[s]
        flip = odd_b and coalg.space.degrees[s] % 2
        reach = set().union(*(table.partners[i] for i in va))
        for size, group in b_by_length.items():
            n = len(A) + size
            if n > coalg.N or (length is not None and n != length):
                continue
            for r, B, vb in group:
                if square and r < s or reach.isdisjoint(vb):
                    continue
                w, sign = merge_words(A, B, coalg)
                if w is None:
                    continue
                if flip:
                    sign = -sign
                if square and r != s:
                    sign *= 2
                table.add_product(acc.setdefault(coalg.windex[w], {}),
                                  va, vb, sign)
    return GradedMap.from_columns(
        coalg.space, a.target, a.degree + b.degree,
        {wi: {t: acc[wi][t] for t in sorted(acc[wi])} for wi in sorted(acc)},
        table.den * a.den * b.den)


def universal_cochain(coalg, space):
    """The degree -1 map from the coalgebra on sM to M that desuspends the
    words of length one and kills the others.  The suspension keeps the
    basis order, so the word (i,) goes to basis vector i of M."""
    return GradedMap.from_columns(
        coalg.space, space, -1,
        {coalg.windex[w]: {w[0]: 1} for w in coalg.words_of_length(1, 1)})


def ce_coalgebra(g, N):
    """The generalized Chevalley-Eilenberg coalgebra C[g], truncated at N.

    Sigma^c[s g] with the differential induced by d plus the coderivation
    whose quadratic component lambda_2 is pinned by requiring the universal
    twisting cochain tau^1 to satisfy the Lie master equation at word
    length two: lambda_2 = (1/2)[tau^1, tau^1] on the length-2 words, read
    off the bracket table in closed form.  On the word (i, j), i before j
    in the canonical order, the cup square has the one splitting
    ((i,), (j,)) with sign(A, B) = +1, counted twice for i != j, and the
    sign (-1)^{|tau^1| |s e_i|} = (-1)^{|e_i| + 1}, so

        lambda_2(e_(i,j)) = (-1)^{|e_i| + 1} [e_i, e_j],

    halved when i = j (a word only for odd e_i).  Target indices coincide
    under s.
    """
    coalg = suspended_coalgebra(g.d, N)
    table, windex = g.bracket, coalg.windex
    degs = g.space.degrees
    cols = {}
    for i, partners in enumerate(table.partners):
        for j in partners:
            # (i, j) is a word when i comes before j, or i = j is odd
            wi = windex.get((i, j))
            if wi is not None:
                c = (1 if i == j else 2) * (1 if degs[i] % 2 else -1)
                cols[wi] = {k: c * n for k, n in
                            sorted(table.numerators(i, j).items())}
    coalg.perturbation = GradedMap.from_columns(
        coalg.space, coalg.gen_space, -1, dict(sorted(cols.items())),
        2 * table.den)
    return coalg


def is_twisting_cochain(t, half_square):
    """Exact check of the Lie master equation Dt = (1/2)[t,t].

    half_square must be (1/2)[t, t], the cup square of t.hom halved, as a
    GradedMap from t's word space; the check does not form the square
    itself.  transfer.transfer hands over the sum of the halved length-b
    pieces its recursion formed.  That sum is (1/2)[t, t] column for
    column: a splitting of a length-b word that t sees has both words
    nonempty, so both shorter than b, where t was final when step b ran.
    A caller holding any other cochain passes cup_bracket(t.hom, t.hom,
    ...) scaled by 1/2.  The Hom-differential uses the full source
    differential (including any perturbation).  Returns a report with the
    first failing word length.
    """
    coalg = t.source
    Dt = t.target.d.compose(t.hom) + t.hom.compose(coalg.differential)
    diff = Dt - half_square
    bad_lengths = sorted({coalg.word_length(s) for s in diff.columns})
    return {
        "passed": not bad_lengths,
        "first_failure": bad_lengths[0] if bad_lengths else None,
        "failing_lengths": bad_lengths,
    }
