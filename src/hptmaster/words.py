"""Word-length-truncated symmetric coalgebra on a graded space.

Words are canonically sorted multisets of generator labels.  The basis
element e_w attached to a word w is the sum of all *distinct* tensor
arrangements of w with Koszul signs (the invariants model); with this
normalization the diagonal takes the form

    Delta(e_w) = sum over ordered multiset splittings (A, B) of
                 sign(A, B) e_A (x) e_B,

each splitting counted once.  A repeated odd-degree factor makes a word
zero; this is enforced at construction.

Coderivations are determined by component families lambda_b mapping
length-b words to generators; the induced operator lowers word length by
b - 1.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct

from .graded import GradedMap, GradedVectorSpace, koszul_sign, ONE, ZERO

EMPTY = ()


def word_label(word):
    return "(" + "*".join(word) + ")" if word else "1"


def sort_factors(labels, gen_space):
    """Canonical form of a sequence of generator labels.

    Returns (word, sign); the word is None (sign 0) when an odd-degree
    label repeats.  Sorting is by (degree, label) with the Koszul sign of
    the sorting permutation.
    """
    labels = list(labels)
    degs = [gen_space.degree_of(lab) for lab in labels]
    keyed = sorted(range(len(labels)),
                   key=lambda i: (degs[i], labels[i], i))
    sign = koszul_sign(keyed, degs)
    word = tuple(labels[i] for i in keyed)
    for i in range(len(word) - 1):
        if word[i] == word[i + 1] and degs[keyed[i]] % 2:
            return None, ZERO
    return word, sign


def memo_sorter(gen_space):
    """sort_factors on the generators of gen_space, memoized per tuple of
    letters for the life of the returned function."""
    return lru_cache(maxsize=None)(
        lambda letters: sort_factors(letters, gen_space))


def word_degree(word, gen_space):
    return sum(gen_space.degree_of(lab) for lab in word)


def splittings(word, gen_space, left_size=None):
    """Ordered multiset splittings (A, B) of a word, with Koszul signs.

    Yields (word_A, word_B, sign).  Each unordered split appears in both
    orders; within equal factors only the leftmost copies are chosen, so
    each splitting is produced exactly once (the divided-power diagonal).
    When left_size is given only splittings with len(A) == left_size are
    produced.

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
        runs.append((word[i], j - i, gen_space.degree_of(word[i]) % 2))
        i = j
    for take in iproduct(*[range(cnt + 1) for _, cnt, _ in runs]):
        if left_size is not None and sum(take) != left_size:
            continue
        a_word = []
        b_word = []
        odd_b = 0
        inversions = 0
        for (lab, cnt, odd), t in zip(runs, take):
            a_word.extend((lab,) * t)
            b_word.extend((lab,) * (cnt - t))
            if odd:
                inversions += t * odd_b
                odd_b += cnt - t
        yield (tuple(a_word), tuple(b_word),
               -ONE if inversions % 2 else ONE)


def enumerate_words(gen_space, max_len):
    """All canonical words of length <= max_len, in deterministic order."""
    gens = sorted(range(gen_space.dim),
                  key=lambda i: (gen_space.degrees[i], gen_space.labels[i]))
    words = [EMPTY]
    layer = [EMPTY]
    for _ in range(max_len):
        nxt = []
        for w in layer:
            start = gens.index(gen_space.index[w[-1]]) if w else 0
            for gi in gens[start:]:
                lab = gen_space.labels[gi]
                if w and w[-1] == lab and gen_space.degrees[gi] % 2:
                    continue
                nxt.append(w + (lab,))
        words.extend(nxt)
        layer = nxt
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
        self.space = GradedVectorSpace(
            [(word_label(w), word_degree(w, gen_space)) for w in self.words])
        self.gen_differential = gen_differential
        self.perturbation = perturbation or CoderivationSpec(gen_space)
        self._d1 = None
        self._pert_op = None

    def word_length(self, index):
        return len(self.words[index])

    # -- operators ---------------------------------------------------------

    @property
    def d1(self):
        """Coderivation induced by the generator differential."""
        if self._d1 is None:
            if self.gen_differential is None or self.gen_differential.is_zero():
                self._d1 = GradedMap.zero(self.space, self.space, -1)
            else:
                spec = CoderivationSpec(self.gen_space)
                comp = {}
                for g in range(self.gen_space.dim):
                    col = self.gen_differential.apply_basis(g)
                    if col:
                        comp[(self.gen_space.labels[g],)] = col
                spec.set_component(1, comp)
                self._d1 = coderivation_operator(spec, self)
        return self._d1

    @property
    def perturbation_operator(self):
        if self._pert_op is None:
            self._pert_op = coderivation_operator(self.perturbation, self)
        return self._pert_op

    @property
    def differential(self):
        return self.d1 + self.perturbation_operator

    def diagonal(self, word):
        """Splittings of a basis word."""
        return list(splittings(word, self.gen_space))

    def diagonal_of_column(self, column):
        """Delta of a sparse column {word index: coefficient}, as a dict
        {(A, B): coefficient}."""
        out = {}
        for t, c in column.items():
            for A, B, sign in self.diagonal(self.words[t]):
                out[(A, B)] = out.get((A, B), ZERO) + c * sign
        return out


def coderivation_operator(spec, coalg):
    """The coderivation of the truncated coalgebra extending the components."""
    ent = {}
    gen_space = coalg.gen_space
    sort = memo_sorter(gen_space)
    for wi, w in enumerate(coalg.words):
        for b in spec.arities():
            if b > len(w):
                continue
            for A, B, sign in splittings(w, gen_space, left_size=b):
                val = spec.components[b].get(A)
                if not val:
                    continue
                for g, c in val.items():
                    lab = gen_space.labels[g]
                    w2, sign2 = sort((lab,) + B)
                    if w2 is None:
                        continue
                    # divided powers: gamma_1 gamma_m = (m+1) gamma_{m+1}
                    mult = B.count(lab) + 1
                    ti = coalg.windex[w2]
                    key = (ti, wi)
                    ent[key] = ent.get(key, ZERO) + mult * sign * c * sign2
    ent = {k: v for k, v in ent.items() if v != 0}
    return GradedMap(coalg.space, coalg.space, -1, ent)


def commutes_with_diagonal(op, coalg):
    """Does Delta o D = (D (x) Id + Id (x) D) o Delta exactly?

    op must be a homogeneous operator of odd degree (a candidate
    coderivation).  Returns the list of words where compatibility fails.
    """
    odd = op.degree % 2 == 1
    bad = []
    for wi, w in enumerate(coalg.words):
        diff = coalg.diagonal_of_column(op.apply_basis(wi))
        for A, B, sign in coalg.diagonal(w):
            # D (x) Id
            for t, c in op.apply_basis(coalg.windex[A]).items():
                key = (coalg.words[t], B)
                diff[key] = diff.get(key, ZERO) - sign * c
            # Id (x) D, with the Koszul sign for moving D past e_A
            sgn = -1 if (odd and word_degree(A, coalg.gen_space) % 2) else 1
            for t, c in op.apply_basis(coalg.windex[B]).items():
                key = (A, coalg.words[t])
                diff[key] = diff.get(key, ZERO) - sign * c * sgn
        if any(c != 0 for c in diff.values()):
            bad.append(w)
    return bad


def check_sh_lie(coalg):
    """Verify the sh-Lie conditions on a perturbed symmetric coalgebra.

    Returns a report dict with the word lengths at which (d + del)^2 fails,
    whether the perturbation kills the coaugmentation, and the words where
    coalgebra compatibility fails.
    """
    D = coalg.differential
    sq = D.compose(D)
    failures = {}
    for (t, s), c in sq.entries.items():
        failures.setdefault(len(coalg.words[s]), []).append(
            (coalg.words[s], coalg.words[t], c))
    unit_ok = all(s != coalg.windex[EMPTY]
                  for (t, s) in coalg.perturbation_operator.entries)
    bad_words = commutes_with_diagonal(coalg.perturbation_operator, coalg)
    return {
        "square_zero": not failures,
        "square_failures_by_length": {k: sorted(v) for k, v in failures.items()},
        "coaugmentation_killed": unit_ok,
        "coalgebra_compatible": not bad_words,
        "incompatible_words": bad_words,
        "passed": not failures and unit_ok and not bad_words,
    }


class LInfinityStructure:
    """Brackets l_k on the desuspended space, extracted from a coderivation.

    brackets[k] maps a sorted word of underlying labels to a sparse dict
    index -> Fraction over the underlying basis.  l_1 is the differential,
    l_2 the binary bracket, l_3 the Jacobi homotopy, and so on.
    """

    def __init__(self, underlying, brackets):
        self.underlying = underlying
        self.brackets = brackets

    def arity_support(self):
        return sorted(k for k, tbl in self.brackets.items()
                      if any(v for v in tbl.values()))


def extract_brackets(coalg, underlying):
    """Extract the l_k family from the coalgebra's perturbation components.

    The generators of coalg are the suspension of `underlying`.  The sign
    dictionary is the decalage convention pinned so that l_2(x, y) agrees
    with the transferred binary bracket pi[nabla x, nabla y].
    """
    gen_space = coalg.gen_space
    brackets = {}
    if coalg.gen_differential is not None and not coalg.gen_differential.is_zero():
        tbl = {}
        for g in range(gen_space.dim):
            val = coalg.gen_differential.apply_basis(g)
            if val:
                # l_1 = -s^{-1} d_{sV} s, the differential before suspension
                tbl[(gen_space.labels[g],)] = {t: -c for t, c in val.items()}
        brackets[1] = tbl
    for b, comp in coalg.perturbation.components.items():
        tbl = {}
        for word, val in comp.items():
            degs = [gen_space.degree_of(lab) - 1 for lab in word]
            k = len(word)
            exp = (k * (k - 1)) // 2 + sum((k - 1 - i) * degs[i]
                                           for i in range(k))
            sign = -ONE if exp % 2 else ONE
            tbl[word] = {g: sign * c for g, c in val.items()}
        if tbl:
            brackets[b] = tbl
    return LInfinityStructure(underlying, brackets)
