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

each splitting counted once (`splittings`; the coderivation check,
`coderivation_defects`, keeps only those with a one-letter left factor).
A repeated odd-degree factor makes a word zero; this is enforced at
construction.

Read the other way round, this is the merge form of the diagonal: every
pair of words (A, B) whose sorted merge w = A u B has no repeated odd
letter occurs exactly once, in Delta(e_w), with

    sign(A, B) = (-1)^k,  k = #{(a, b) : a odd in A, b odd in B, b < a},

the Koszul sign of putting A before B (letters compared in the canonical
order).  `merge_words` evaluates it, so sums over the diagonal such as cup
brackets and coderivations run over pairs of words taken from column
supports instead of over every splitting of every word.

A coderivation is determined by its corestriction, a degree -1 map
lambda from the word space to the generators (Lada-Stasheff,
hep-th/9209099): its columns on the words of length b are the component
lambda_b, whose extension lowers word length by b - 1.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import product as iproduct

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
    the index None when the product is zero or longer than the truncation,
    and the sign 0 when it is zero, as merge_words((g,), w) gives them.

    Each is made on its first read, without a sort, from the last letter l
    of w = p + (l,) and, in the third case, from the product with p:
    - g sorts after l, or g = l is even: the product is w + (g,), and
      putting g first moves it past every letter of w.  For odd g that
      sign is (-1)^k, k the number of odd letters of w, and k = deg w
      mod 2; for even g it is +1.
    - g = l is odd: an odd letter repeats, (None, 0).
    - g sorts before l: with (y, sign) = v_g . e_p, the product is
      words[y] + (l,), with that sign.  l sorts after g and after every
      letter of p, so the merge puts it last, moving it past nothing, and
      the odd letters that g passes are those of p.  g is not l, so g
      repeats in w exactly when it repeats in p, and the product is zero
      or too long exactly when v_g . e_p is.
    The third case reads its prefix's index from the coalgebra's parent
    table.  A read walks down the prefixes whose products are unknown and
    of the third case, and fills them shortest first, without recursion, so
    a long word needs no deep stack.

    It holds the coalgebra's tables, not the coalgebra, so that it makes
    no reference cycle."""

    __slots__ = ("words", "windex", "parent", "rank", "odd", "degrees")

    def __init__(self, coalg):
        super().__init__()
        self.words, self.windex = coalg.words, coalg.windex
        self.parent = coalg.parent
        self.rank, self.odd = coalg.rank, coalg.odd
        self.degrees = coalg.space.degrees

    def __missing__(self, key):
        g, wi = key
        words, windex = self.words, self.windex
        w = words[wi]
        if w and self.rank[g] < self.rank[w[-1]]:
            p = self.parent[wi]
            y, sign = self.get((g, p)) or self._fill(g, p)
            if y is not None:
                y = windex.get(words[y] + w[-1:])
            out = y, sign
        elif w and g == w[-1] and self.odd[g]:
            out = None, 0
        else:
            out = (windex.get(w + (g,)),
                   -1 if self.odd[g] and self.degrees[wi] % 2 else 1)
        self[key] = out
        return out

    def _fill(self, g, wi):
        """v_g . e_w for a w whose product is unknown: walk down the
        prefixes whose products are unknown and of the third case, then
        fill them shortest first, so that no read recurses."""
        words, windex, rank = self.words, self.windex, self.rank
        parent = self.parent
        chain = []
        w = words[wi]
        while w and rank[g] < rank[w[-1]]:
            chain.append(wi)
            wi = parent[wi]
            out = self.get((g, wi))
            if out is not None:
                break
            w = words[wi]
        else:
            out = self[g, wi]   # the first or second case
        for wi in reversed(chain):
            y, sign = out
            if y is not None:
                y = windex.get(words[y] + words[wi][-1:])
            out = self[g, wi] = y, sign
        return out


def enumerate_words(gen_space, max_len):
    """All canonical words of length <= max_len, in deterministic order:
    by length, then lexicographically in the canonical order."""
    return _word_tree(gen_space, max_len)[0]


def _word_tree(gen_space, max_len):
    """(words, parent, degrees): enumerate_words's words, each built from
    its prefix, with the index of that prefix (the empty word's own index
    for the empty word) and the word's degree, deg(w[:-1]) + |w[-1]|."""
    gens = _canonical_order(gen_space)
    degs = gen_space.degrees
    # the letters that may follow g: g itself when even, and the later ones
    after = {g: gens[r + degs[g] % 2:] for r, g in enumerate(gens)}
    words, parent, word_degs = [EMPTY], [0], [0]
    layer, layer_degs, start = [EMPTY], [0], 0
    for _ in range(max_len):
        nexts = [after[w[-1]] if w else gens for w in layer]
        parent += [p for p, letters in enumerate(nexts, start)
                   for _ in letters]
        layer_degs = [deg + degs[g] for deg, letters in zip(layer_degs, nexts)
                      for g in letters]
        layer = [w + (g,) for w, letters in zip(layer, nexts)
                 for g in letters]
        start = len(words)
        words += layer
        word_degs += layer_degs
    return words, parent, word_degs


class TruncatedSymCoalgebra:
    """Sigma^c[gen_space] truncated at word length N.

    The differential is d1 (induced by a degree -1 differential on the
    generators) plus the coderivation extending the perturbation.  Both
    lower or preserve word length, so the truncation is an honest
    subcomplex and all identities can be checked exactly on word lengths
    <= N.
    """

    def __init__(self, gen_space, max_word_length, gen_differential=None):
        self.gen_space = gen_space
        self.N = int(max_word_length)
        # parent[i], the index of words[i] without its last letter (the
        # empty word's own index for the empty word)
        words, self.parent, word_degs = _word_tree(gen_space, self.N)
        self.words = words
        self.windex = {w: i for i, w in enumerate(words)}
        # per generator: position in the canonical order, and odd degree
        self.rank = [0] * gen_space.dim
        for r, g in enumerate(_canonical_order(gen_space)):
            self.rank[g] = r
        self.odd = [deg % 2 == 1 for deg in gen_space.degrees]
        self.space = GradedVectorSpace.derived(word_degs, lambda: [
            "(%s)" % word_label(w, gen_space) if w else "1" for w in words])
        self.gen_differential = gen_differential
        self.perturbation = None
        self._d1 = None
        self._mult = None
        self.letter_products = _LetterProducts(self)

    def word_length(self, index):
        return len(self.words[index])

    def length_range(self, lo, hi):
        """The range of the indices of the words w with lo <= len(w) <= hi
        (words come in order of length)."""
        return range(bisect_left(self.words, lo, key=len),
                     bisect_right(self.words, hi, key=len))

    def words_of_length(self, lo, hi):
        """The words w with lo <= len(w) <= hi, in order."""
        span = self.length_range(lo, hi)
        return self.words[span.start:span.stop]

    @property
    def mult(self):
        """mult(w) for each word index, the product of the factorials of
        its repeat counts, built on first read from the prefixes: the last
        letter's run, w.count(w[-1]), is one longer in w than in w[:-1]."""
        if self._mult is None:
            words, parent, mult = self.words, self.parent, [1]
            for i in range(1, len(words)):
                w = words[i]
                mult.append(mult[parent[i]] * w.count(w[-1]))
            self._mult = mult
        return self._mult

    # -- operators ---------------------------------------------------------

    @property
    def d1(self):
        """Coderivation induced by the generator differential: its
        corestriction is the differential on the one-letter words."""
        if self._d1 is None:
            d = self.gen_differential
            if d is None or d.is_zero():
                self._d1 = GradedMap.zero(self.space, self.space, -1)
            else:
                lam = GradedMap.from_columns(
                    self.space, self.gen_space, -1,
                    {self.windex[(g,)]: col for g, col in d.columns.items()},
                    d.den)
                self._d1 = coderivation_operator(lam, self)
        return self._d1

    @property
    def perturbation(self):
        """The corestriction of the perturbation, a degree -1 GradedMap
        from the word space to the generators whose columns on the words
        of length b are lambda_b.  Assigning a new one (None for zero)
        drops the operators built from the old one; a map of another
        degree or between other spaces raises ValueError."""
        return self._perturbation

    @perturbation.setter
    def perturbation(self, lam):
        if lam is None:
            lam = GradedMap.zero(self.space, self.gen_space, -1)
        elif (lam.degree != -1 or lam.source != self.space
              or lam.target != self.gen_space):
            raise ValueError("a perturbation is a degree -1 map from the "
                             "coalgebra's words to its generators")
        self._perturbation = lam
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


def suspended_coalgebra(d, N):
    """Sigma^c[sM] truncated at word length N, with d1 induced by the
    differential d of M (suspended as -s d s^{-1})."""
    d_s = suspend_map(d)
    return TruncatedSymCoalgebra(d_s.source, N, gen_differential=d_s)


def coderivation_operator(lam, coalg):
    """The coderivation of the truncated coalgebra extending lam, a
    degree -1 map from the word space to the generators.

    D(e_w) sums sign(A, B) lam(e_A) . e_B over the splittings (A, B) of w,
    so it is built by merging each word A of the column support of lam
    with every word B of length <= N - |A|, on lam's int numerators over
    lam.den.  The products of one letter with B, lam(e_A) . e_B and, for
    |A| = 1, A . B, are read from the coalgebra's letter products.  A
    word A = (a, a') of length 2 takes two reads, a . (a' . B): a' does
    not sort before a, and equals it only when even, so putting a first
    passes no odd letter of A, and the two signs multiply to that of
    putting A before B.  Longer words are merged by merge_words: one merge
    costs less than |A| reads that are mostly first ones.
    """
    cols = {}
    windex = coalg.windex
    words = coalg.words
    products = coalg.letter_products
    b = None
    # word indices come by length, so the lengths of A come in order
    for a, val in sorted(lam.columns.items()):
        A = words[a]
        if len(A) != b:
            b = len(A)
            # it starts at the empty word, so a position is a word index
            shorts = coalg.words_of_length(0, coalg.N - b)
        val = list(val.items())
        for bi, B in enumerate(shorts):
            if b == 1:
                wi, sign = products[A[0], bi]
            elif b == 2:
                ai, sign = products[A[1], bi]
                if ai is None:
                    continue
                wi, first = products[A[0], ai]
                sign *= first
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
    return GradedMap.from_columns(coalg.space, coalg.space, -1, cols, lam.den)


def coderivation_defects(op, coalg):
    """The source words w, in word order, where D = op (homogeneous) shows
    a defect in one of two parts of delta = Delta D - (D (x) Id + Id (x) D)
    Delta: eps D e_w != 0, or the one-letter part (pr1 (x) Id) delta(e_w)
    != 0, pr1 the projection onto the words of length one.

    The list is empty exactly when D is a coderivation, over Q
    (Lada-Stasheff, hep-th/9209099, for the cofree cocommutative
    coalgebra):
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

    Against the full list, the words w with delta(e_w) != 0:
    - it is a subset, since eps (x) eps of delta(e_w) is -eps D e_w and
      the one-letter part is a projection of delta(e_w);
    - it starts with the same word w0.  Every word shorter than w0
      passes, so eps D vanishes on the proper subwords of w0, and
      (eps (x) Id) delta(e_w0), which sums eps D e_A e_B over the
      splittings (A, B) of w0, is -eps D e_w0.  If that is 0, the step
      above applies to w0: a zero one-letter part would make delta(e_w0)
      zero.

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
    bad = set()
    for s, col in op.columns.items():
        if empty in col:
            bad.add(s)
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
        for A, B, sign in splittings(words[t], coalg.gen_space):
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
    bad.update(wi for wi, acc in res.items() if any(acc.values()))
    return [words[wi] for wi in sorted(bad)]


def check_sh_lie(coalg):
    """Verify the sh-Lie conditions on a perturbed symmetric coalgebra.

    Returns a report dict: whether (d + del)^2 vanishes, whether the
    perturbation kills the coaugmentation, and the words where coalgebra
    compatibility fails, as coderivation_defects lists them from eps D and
    the one-letter part: none exactly when the perturbation operator is a
    coderivation, and otherwise a subset of the words where
    Delta D != (D (x) 1 + 1 (x) D) Delta that starts with the first one.
    """
    D = coalg.differential
    square_zero = D.compose(D).is_zero()
    op = coalg.perturbation_operator
    unit_ok = coalg.windex[EMPTY] not in op.columns
    bad_words = coderivation_defects(op, coalg)
    return {
        "square_zero": square_zero,
        "coaugmentation_killed": unit_ok,
        "coalgebra_compatible": not bad_words,
        "incompatible_words": bad_words,
        "passed": square_zero and unit_ok and not bad_words,
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
    d = coalg.gen_differential
    if d is not None and not d.is_zero():
        # l_1 = -s^{-1} d_{sV} s, the differential before suspension
        brackets[1] = {(g,): {t: Fraction(-n, d.den) for t, n in col.items()}
                       for g, col in sorted(d.columns.items())}
    lam = coalg.perturbation
    for s in sorted(lam.columns):
        word = coalg.words[s]
        degs = [gen_space.degrees[g] - 1 for g in word]
        k = len(word)
        exp = (k * (k - 1)) // 2 + sum((k - 1 - i) * degs[i]
                                       for i in range(k))
        # (-1)^exp, applied by negation
        brackets.setdefault(k, {})[word] = {
            g: Fraction(-n if exp % 2 else n, lam.den)
            for g, n in lam.columns[s].items()}
    return brackets
