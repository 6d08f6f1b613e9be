"""Word-length-truncated symmetric coalgebra on a graded space.

Words are sorted tuples of generator indices into gen_space, in the
canonical order (degree, label) that the coalgebra holds as per-generator
`rank` and `odd` lists.  Labels appear only in `word_label` and
`parse_word`, which write and read words for reports and theta files; the
word space keeps its degrees and derives its labels through `word_label`
on first read.  Suspension keeps the basis order, so a letter of a word
over sM is also the index of the basis vector of M it suspends.

The basis element e_w attached to a word w is the sum of all *distinct*
tensor arrangements of w with Koszul signs (the invariants model); with
this normalization the diagonal takes the form

    Delta(e_w) = sum over ordered multiset splittings (A, B) of
                 sign(A, B) e_A (x) e_B,

each splitting counted once.  A repeated odd-degree factor makes a word
zero; this is enforced at construction.

Read the other way round, this is the merge form of the diagonal: every
pair of words (A, B) whose sorted merge w = A u B has no repeated odd
letter occurs exactly once, in Delta(e_w), with

    sign(A, B) = (-1)^k,  k = #{(a, b) : a odd in A, b odd in B, b < a},

the Koszul sign of putting A before B (letters compared in the canonical
order).  `merge_words` evaluates it, so sums over the diagonal such as cup
brackets and coderivations run over pairs of words taken from column
supports instead of over every splitting of every word.

Coderivations are determined by component families lambda_b mapping
length-b words to generators; the induced operator lowers word length by
b - 1.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import product as iproduct
from math import lcm

from .graded import GradedMap, GradedVectorSpace, suspend_map

EMPTY = ()


def word_label(word, gen_space):
    """A word written out: its letters' labels joined by "*", "1" for the
    empty word."""
    return "*".join([gen_space.labels[g] for g in word]) or "1"


def parse_word(text, gen_space):
    """The word that word_label writes as text, its letters in any order;
    ValueError for an unknown label or a repeated odd letter."""
    if text == "1":
        return EMPTY
    try:
        letters = [gen_space.index[lab] for lab in text.split("*")]
    except KeyError as exc:
        raise ValueError("unknown generator label %s" % exc) from None
    degs = gen_space.degrees
    word = tuple(sorted(letters, key=lambda g: (degs[g], gen_space.labels[g])))
    if any(a == b and degs[a] % 2 for a, b in zip(word, word[1:])):
        raise ValueError("odd letter repeats in %r" % text)
    return word


def word_degree(word, gen_space):
    return sum(gen_space.degrees[g] for g in word)


def _canonical_order(gen_space):
    """The generator indices sorted by (degree, label)."""
    return sorted(range(gen_space.dim),
                  key=lambda g: (gen_space.degrees[g], gen_space.labels[g]))


def splittings(word, gen_space):
    """Ordered multiset splittings (A, B) of a word, with Koszul signs.

    Yields (word_A, word_B, sign), sign an int +-1.  Each unordered split
    appears in both orders; within equal factors only the leftmost copies
    are chosen, so each splitting is produced exactly once (the
    divided-power diagonal).

    The sign is that of moving the letters of A in front of those of B:
    (-1)^k, where k counts the pairs of odd letters with the B letter
    before the A letter in the word.  Within a run the A copies come
    first, so k is counted run by run while the split is built: each odd
    A letter pairs with every odd B letter of the earlier runs.
    """
    runs = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        runs.append((word[i], j - i, gen_space.degrees[word[i]] % 2))
        i = j
    for take in iproduct(*[range(cnt + 1) for _, cnt, _ in runs]):
        a_word = []
        b_word = []
        odd_b = 0
        inversions = 0
        for (g, cnt, odd), t in zip(runs, take):
            a_word.extend((g,) * t)
            b_word.extend((g,) * (cnt - t))
            if odd:
                inversions += t * odd_b
                odd_b += cnt - t
        yield tuple(a_word), tuple(b_word), -1 if inversions % 2 else 1


def merge_words(A, B, coalg):
    """The sorted merge of words A and B and the Koszul sign (+-1) of
    putting A before B: (-1)^k, k the number of odd letters of B that sort
    before an odd letter of A.  (None, 0) when an odd letter repeats."""
    rank = coalg.rank
    odd = coalg.odd
    k = 0
    for a in A:
        if odd[a]:
            ra = rank[a]
            for b in B:
                if odd[b]:
                    if b == a:
                        return None, 0
                    if rank[b] < ra:
                        k += 1
    return tuple(sorted(A + B, key=rank.__getitem__)), -1 if k % 2 else 1


class _LetterProducts(dict):
    """(g, word index) -> (index of v_g . e_w, sign of putting g first),
    the index None when the product is zero or longer than the truncation;
    merge_words makes each on its first read.  It holds the coalgebra's
    tables, not the coalgebra, so that it makes no reference cycle."""

    __slots__ = ("words", "windex", "rank", "odd")

    def __init__(self, coalg):
        super().__init__()
        self.words, self.windex = coalg.words, coalg.windex
        self.rank, self.odd = coalg.rank, coalg.odd

    def __missing__(self, key):
        g, wi = key
        word, sign = merge_words((g,), self.words[wi], self)
        out = self[key] = (self.windex.get(word), sign)
        return out


def enumerate_words(gen_space, max_len):
    """All canonical words of length <= max_len, in deterministic order:
    by length, then lexicographically in the canonical order."""
    gens = _canonical_order(gen_space)
    # the letters that may follow g: g itself when even, and the later ones
    after = {g: gens[r + gen_space.degrees[g] % 2:] for r, g in enumerate(gens)}
    words = [EMPTY]
    layer = [EMPTY]
    for _ in range(max_len):
        layer = [w + (g,) for w in layer
                 for g in (after[w[-1]] if w else gens)]
        words.extend(layer)
    return words


class CoderivationSpec:
    """Cogenerating components lambda_b: length-b words -> generators.

    components[b][word] is a sparse dict generator_index -> Fraction; every
    component has degree -1.
    """

    def __init__(self, gen_space, components=None):
        self.gen_space = gen_space
        self.components = {}
        if components:
            for b, comp in components.items():
                self.set_component(b, comp)

    def set_component(self, b, comp):
        clean = {}
        for word, val in comp.items():
            deg_w = word_degree(word, self.gen_space)
            val = {g: Fraction(c) for g, c in val.items() if c != 0}
            for g in val:
                if self.gen_space.degrees[g] != deg_w - 1:
                    raise ValueError("component of arity %d is not degree -1" % b)
            if val:
                clean[word] = val
        if clean:
            self.components[int(b)] = clean

    def arities(self):
        return sorted(self.components)

    def is_zero(self):
        return not self.components


class TruncatedSymCoalgebra:
    """Sigma^c[gen_space] truncated at word length N.

    The differential is d1 (induced by a degree -1 differential on the
    generators) plus the coderivation of a CoderivationSpec.  Both lower or
    preserve word length, so the truncation is an honest subcomplex and all
    identities can be checked exactly on word lengths <= N.
    """

    def __init__(self, gen_space, max_word_length, gen_differential=None,
                 perturbation=None):
        self.gen_space = gen_space
        self.N = int(max_word_length)
        self.words = enumerate_words(gen_space, self.N)
        self.windex = {w: i for i, w in enumerate(self.words)}
        # per generator: position in the canonical order, and odd degree
        self.rank = [0] * gen_space.dim
        for r, g in enumerate(_canonical_order(gen_space)):
            self.rank[g] = r
        self.odd = [deg % 2 == 1 for deg in gen_space.degrees]
        # deg(w) = deg(w[:-1]) + |w[-1]|: a prefix of a canonical word is
        # canonical and comes before it
        degs = gen_space.degrees
        word_degs = []
        for w in self.words:
            word_degs.append(word_degs[self.windex[w[:-1]]] + degs[w[-1]]
                             if w else 0)
        words = self.words
        self.space = GradedVectorSpace.derived(word_degs, lambda: [
            "(%s)" % word_label(w, gen_space) if w else "1" for w in words])
        self.gen_differential = gen_differential
        self.perturbation = perturbation
        self._d1 = None
        self._mult = None
        self.letter_products = _LetterProducts(self)

    def word_length(self, index):
        return len(self.words[index])

    def words_of_length(self, lo, hi):
        """The words w with lo <= len(w) <= hi, in order (words come in
        order of length)."""
        return self.words[bisect_left(self.words, lo, key=len):
                          bisect_right(self.words, hi, key=len)]

    @property
    def mult(self):
        """mult(w) for each word index, the product of the factorials of
        its repeat counts, built on first read from the prefixes: the last
        letter's run, w.count(w[-1]), is one longer in w than in w[:-1]."""
        if self._mult is None:
            windex, mult = self.windex, []
            for w in self.words:
                mult.append(mult[windex[w[:-1]]] * w.count(w[-1]) if w else 1)
            self._mult = mult
        return self._mult

    # -- operators ---------------------------------------------------------

    @property
    def d1(self):
        """Coderivation induced by the generator differential."""
        if self._d1 is None:
            if self.gen_differential is None or self.gen_differential.is_zero():
                self._d1 = GradedMap.zero(self.space, self.space, -1)
            else:
                cols = sorted(self.gen_differential.by_column().items())
                spec = CoderivationSpec(self.gen_space,
                                        {1: {(g,): col for g, col in cols}})
                self._d1 = coderivation_operator(spec, self)
        return self._d1

    @property
    def perturbation(self):
        """The CoderivationSpec of the perturbation; assigning a new one
        (None for zero) drops the operators built from the old one."""
        return self._perturbation

    @perturbation.setter
    def perturbation(self, spec):
        self._perturbation = spec or CoderivationSpec(self.gen_space)
        self._pert_op = self._differential = None

    @property
    def perturbation_operator(self):
        if self._pert_op is None:
            self._pert_op = coderivation_operator(self.perturbation, self)
        return self._pert_op

    @property
    def differential(self):
        """d1 plus the perturbation operator, built once per perturbation."""
        if self._differential is None:
            self._differential = self.d1 + self.perturbation_operator
        return self._differential

    def diagonal(self, word):
        """Splittings of a basis word."""
        return list(splittings(word, self.gen_space))


def suspended_coalgebra(d, N):
    """Sigma^c[sM] truncated at word length N, with d1 induced by the
    differential d of M (suspended as -s d s^{-1})."""
    d_s = suspend_map(d)
    return TruncatedSymCoalgebra(d_s.source, N, gen_differential=d_s)


def coderivation_operator(spec, coalg):
    """The coderivation of the truncated coalgebra extending the components.

    D(e_w) sums sign(A, B) lambda_b(A) . e_B over the splittings (A, B) of
    w with |A| = b, so it is built by merging each word A of the support of
    lambda_b with every word B of length <= N - b.  The products of one
    letter with B, lambda_b(A) . e_B and, for b = 1, A . B, are read from
    the coalgebra's letter products.
    """
    # the components as int numerators over their common denominator
    den = lcm(*(c.denominator for comp in spec.components.values()
                for val in comp.values() for c in val.values()))
    cols = {}
    windex = coalg.windex
    products = coalg.letter_products
    for b in spec.arities():
        # it starts at the empty word, so a position is a word index
        shorts = coalg.words_of_length(0, coalg.N - b)
        for A, val in spec.components[b].items():
            if len(A) != b or A not in windex:
                continue
            val = [(g, c.numerator * (den // c.denominator))
                   for g, c in val.items()]
            for bi, B in enumerate(shorts):
                if b == 1:
                    wi, sign = products[A[0], bi]
                else:
                    w, sign = merge_words(A, B, coalg)
                    wi = windex.get(w)
                if wi is None:
                    continue
                col = cols.setdefault(wi, {})
                for g, c in val:
                    w2, sign2 = products[g, bi]
                    if w2 is None:
                        continue
                    # divided powers: gamma_1 gamma_m = (m+1) gamma_{m+1}
                    mult = (B.count(g) + 1) * sign * sign2
                    col[w2] = col.get(w2, 0) + mult * c
    return GradedMap.from_columns(coalg.space, coalg.space, -1, cols, den)


def commutes_with_diagonal(op, coalg):
    """Does Delta o D = (D (x) Id + Id (x) D) o Delta exactly?

    op must be a homogeneous operator of odd degree (a candidate
    coderivation).  Returns the list of words where compatibility fails,
    in word order.

    The two sides enumerate Delta independently: Delta(D e_w) runs over
    the splittings of the words in D e_w, while (D (x) Id + Id (x) D)
    Delta(e_w) is built by merging each word X of the column support of D
    with every word Y of length |w| - |X|, on either side.  Words are
    compared one length n at a time, in one dict that holds only that
    length's differences: the merge side is added into it, and then each
    target word t of the columns of the length-n words is split once and
    c Delta(e_t) subtracted for every entry c of t in those columns.  A
    tensor e_A (x) e_B is keyed by the int a * W + b, a and b the indices
    of A and B among the W words.  Both scans are driven by the supports:
    the merge side by the columns of D, the split side by the columns of
    the length-n words of D, and the verdict reads the words w that the
    dict holds, in index order, which is word order.
    """
    odd = op.degree % 2 == 1
    words = coalg.words
    windex = coalg.windex
    degs = coalg.space.degrees
    W = len(words)
    # both sides on the int numerators of op, op.den times too large: the
    # columns of D, and the same columns by the length of their word
    columns = []
    cols_by_length = [[] for _ in range(coalg.N + 1)]
    for s, col in op.columns.items():
        columns.append((words[s], degs[s] % 2 == 1, list(col.items())))
        cols_by_length[len(words[s])].append((s, col))
    # the words of each length with their indices and parities
    by_length = [[] for _ in range(coalg.N + 1)]
    for y, Y in enumerate(words):
        by_length[len(Y)].append((Y, y, degs[y] % 2 == 1))
    bad = []
    for n in range(coalg.N + 1):
        rhs = {}
        for X, x_odd, col in columns:
            if len(X) > n:
                continue
            for Y, y, y_odd in by_length[n - len(X)]:
                w, sign = merge_words(X, Y, coalg)
                if w is None:
                    continue
                acc = rhs.setdefault(windex[w], {})
                # D (x) Id on the splitting (X, Y)
                for t, c in col:
                    key = t * W + y
                    acc[key] = acc.get(key, 0) + (c if sign > 0 else -c)
                # Id (x) D on the splitting (Y, X): the Koszul signs of
                # swapping X and Y, (-1)^{|X||Y|}, and of moving D past
                # e_Y, (-1)^{|D||Y|}
                if y_odd and x_odd != odd:
                    sign = -sign
                yW = y * W
                for t, c in col:
                    key = yW + t
                    acc[key] = acc.get(key, 0) + (c if sign > 0 else -c)
        # Delta(D e_w) for the words w of length n: the columns grouped by
        # target word, so that each target is split once per length
        uses = {}
        for wi, col in cols_by_length[n]:
            acc = rhs.setdefault(wi, {})
            for t, c in col.items():
                uses.setdefault(t, []).append((acc, c))
        for t, entries in uses.items():
            for A, B, sign in coalg.diagonal(words[t]):
                key = windex[A] * W + windex[B]
                for acc, c in entries:
                    acc[key] = acc.get(key, 0) - (c if sign > 0 else -c)
        bad.extend(words[wi] for wi in sorted(rhs) if any(rhs[wi].values()))
    return bad


def is_coderivation(op, coalg):
    """Is commutes_with_diagonal(op, coalg) empty?  The same verdict, read
    from two parts of delta = Delta D - (D (x) Id + Id (x) D) Delta only,
    D = op homogeneous: eps D, and the one-letter part (pr1 (x) Id) delta,
    pr1 the projection onto the words of length one.

    Why they suffice, over Q (Lada-Stasheff, hep-th/9209099, for the
    cofree cocommutative coalgebra):
    - eps D = 0, no entry of D on the empty word, gives (eps (x) Id) delta
      = (Id (x) eps) delta = 0 by the counit.  It is also necessary:
      eps (x) eps of delta(e_w) is -eps D e_w.
    - Coassociativity gives, up to Koszul signs, (Delta (x) Id) delta -
      (Id (x) Delta) delta = (Id (x) delta) Delta - (delta (x) Id) Delta.
    - Take a word e_w whose shorter words pass, by induction on |w|.  On
      the right only e_1 (x) delta(e_w) and delta(e_w) (x) e_1 are left,
      and pr1 (x) Id (x) Id kills both, the second because (pr1 (x) Id)
      delta(e_w) = 0.  On the left it leaves (p (x) Id) delta(e_w) = 0,
      with p = (pr1 (x) Id) Delta: p(e_t) sums e_g (x) e_{t without g}
      over the distinct letters g of t, with signs.
    - In divided powers the product after p is m o p = |t| Id, so p is
      injective on the words with |t| >= 1.  So delta(e_w) lies in
      e_1 (x) C, and (eps (x) Id) delta(e_w) = 0 makes it zero.

    The one-letter part is built on the int numerators of op, keyed per
    source word w by g * W + b for e_g (x) e_B, b the index of B among
    the W words, from three sides, each driven by op's supports:
    - Delta D e_w: each distinct target t of op is split once, and its
      splittings with a one-letter left factor are kept;
    - (D (x) Id) Delta e_w: D e_X has one-letter terms only on the columns
      X with length-one targets, which are merged with every word Y of
      length <= N - |X|;
    - (Id (x) D) Delta e_w: its one-letter terms are e_g (x) D e_u for w
      the word u with one more letter g, so each column u with |u| < N is
      walked once against the letters in canonical order, with the sign
      of putting g before u, (-1)^(odd letters of u before g) for odd g,
      times (-1)^(|D||g|) for moving D past e_g; a repeated odd letter
      gives zero.
    """
    words = coalg.words
    windex = coalg.windex
    rank, odd = coalg.rank, coalg.odd
    N = coalg.N
    W = len(words)
    empty = windex[EMPTY]
    op_odd = op.degree % 2 == 1
    res = {}
    uses = {}
    ones = []
    for s, col in op.columns.items():
        if empty in col:
            return False
        acc = res.setdefault(s, {})
        one = []
        for t, c in col.items():
            uses.setdefault(t, []).append((acc, c))
            if len(words[t]) == 1:
                one.append((words[t][0], c))
        if one:
            ones.append((words[s], one))
    # Delta D e_w
    for t, entries in uses.items():
        for A, B, sign in coalg.diagonal(words[t]):
            if len(A) != 1:
                continue
            key = A[0] * W + windex[B]
            for acc, c in entries:
                acc[key] = acc.get(key, 0) + (c if sign > 0 else -c)
    # (D (x) Id) Delta e_w, the splittings (X, Y) of w
    for X, one in ones:
        for y, Y in enumerate(coalg.words_of_length(0, N - len(X))):
            w, sign = merge_words(X, Y, coalg)
            if w is None:
                continue
            acc = res.setdefault(windex[w], {})
            for g, c in one:
                key = g * W + y
                acc[key] = acc.get(key, 0) - (c if sign > 0 else -c)
    # (Id (x) D) Delta e_w, the splittings ((g,), u) of w
    letters = _canonical_order(coalg.gen_space)
    for ui, col in op.columns.items():
        u = words[ui]
        n = len(u)
        if n >= N:
            continue
        col = list(col.items())
        j = odd_before = 0
        for g in letters:
            r = rank[g]
            while j < n and rank[u[j]] < r:
                odd_before += odd[u[j]]
                j += 1
            if odd[g]:
                if j < n and u[j] == g:
                    continue
                neg = (odd_before % 2 == 1) != op_odd
            else:
                neg = False
            acc = res.setdefault(windex[u[:j] + (g,) + u[j:]], {})
            base = g * W
            for t, c in col:
                key = base + t
                acc[key] = acc.get(key, 0) + (c if neg else -c)
    return not any(any(acc.values()) for acc in res.values())


def check_sh_lie(coalg):
    """Verify the sh-Lie conditions on a perturbed symmetric coalgebra.

    Returns a report dict with the word lengths at which (d + del)^2 fails,
    whether the perturbation kills the coaugmentation, and the words where
    coalgebra compatibility fails.  The verdict is is_coderivation's;
    commutes_with_diagonal lists the failing words only when it fails.
    """
    D = coalg.differential
    sq = D.compose(D)
    failures = {}
    for s, col in sq.by_column().items():
        failures.setdefault(len(coalg.words[s]), []).extend(
            (coalg.words[s], coalg.words[t], c) for t, c in col.items())
    op = coalg.perturbation_operator
    unit_ok = coalg.windex[EMPTY] not in op.columns
    bad_words = ([] if is_coderivation(op, coalg)
                 else commutes_with_diagonal(op, coalg))
    return {
        "square_zero": not failures,
        "square_failures_by_length": {k: sorted(v) for k, v in failures.items()},
        "coaugmentation_killed": unit_ok,
        "coalgebra_compatible": not bad_words,
        "incompatible_words": bad_words,
        "passed": not failures and unit_ok and not bad_words,
    }


def extract_brackets(coalg):
    """The l_k family of the coalgebra's differential, on the desuspended
    generators: k -> {word: {index: Fraction}}, only the nonzero tables.

    A word's letters are indices of the suspended generators and so also
    of the basis they suspend.  l_1 is the differential, l_2 the binary
    bracket, l_3 the Jacobi homotopy, and so on.  The sign dictionary is
    the decalage convention pinned so that l_2(x, y) agrees with the
    transferred binary bracket pi[nabla x, nabla y].
    """
    gen_space = coalg.gen_space
    brackets = {}
    if coalg.gen_differential is not None and not coalg.gen_differential.is_zero():
        # l_1 = -s^{-1} d_{sV} s, the differential before suspension
        brackets[1] = {(g,): {t: -c for t, c in val.items()} for g, val
                       in sorted(coalg.gen_differential.by_column().items())}
    for b, comp in coalg.perturbation.components.items():
        tbl = {}
        for word, val in comp.items():
            degs = [gen_space.degrees[g] - 1 for g in word]
            k = len(word)
            exp = (k * (k - 1)) // 2 + sum((k - 1 - i) * degs[i]
                                           for i in range(k))
            # (-1)^exp, applied by negation
            tbl[word] = ({g: -c for g, c in val.items()} if exp % 2
                         else dict(val))
        if tbl:
            brackets[b] = tbl
    return brackets
