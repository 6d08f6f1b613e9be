"""Divided-power symmetric coalgebra words, diagonal, coderivations."""

import collections
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import lie_instances
import lift_oracle
import word_oracle
from word_oracle import koszul_sign, sort_factors
from hptmaster import cli, instances
from hptmaster.complexes import build_contraction
from hptmaster.deformation import morgan_example
from hptmaster.dgla import ce_coalgebra
from hptmaster.graded import GradedMap, GradedVectorSpace, suspend_space
from hptmaster.transfer import transfer
from hptmaster.words import (CoderivationSpec, TruncatedSymCoalgebra,
                             check_sh_lie, coderivation_operator,
                             commutes_with_diagonal, enumerate_words,
                             is_coderivation, merge_words, parse_word,
                             splittings, word_degree, word_label)

F = Fraction

MIXED = GradedVectorSpace([("p", 0), ("q", 0), ("u", 1), ("v", 1), ("w", 2)])
P, Q, U, V, W = range(5)   # the letters of MIXED as generator indices


def test_sort_factors_kills_odd_squares():
    word, sign = sort_factors([U, U], MIXED)
    assert word is None and sign == 0


def test_sort_factors_sign_oracle():
    for perm in itertools.permutations([P, U, V]):
        word, sign = sort_factors(list(perm), MIXED)
        assert word == (P, U, V)
        # oracle: Koszul sign of the permutation taking the canonical
        # word to the given arrangement
        degrees = [MIXED.degrees[g] for g in word]
        canonical = list(word)
        positions = []
        used = [False] * 3
        for lab in perm:
            for k, c in enumerate(canonical):
                if c == lab and not used[k]:
                    positions.append(k)
                    used[k] = True
                    break
        assert sign == koszul_sign(positions, degrees)


def test_enumerate_words_counts():
    # multisets without odd squares: evens repeat, odds do not
    words = enumerate_words(MIXED, 2)
    by_len = {}
    for w in words:
        by_len[len(w)] = by_len.get(len(w), 0) + 1
    assert by_len[0] == 1
    assert by_len[1] == 5
    # length 2: pp, pq, qq, pu, pv, pw, qu, qv, qw, uv, uw, vw, ww
    assert by_len[2] == 13


def test_word_labels_round_trip_on_labels_that_begin_with_s():
    # letters are generator indices, so a label that begins with "s" is
    # only text: every word of the space and of its suspension reads back
    # from its label, in any letter order
    space = GradedVectorSpace(
        [("s", 1), ("sx", 0), ("ssx", 2), ("h-1_0", -1)])
    assert suspend_space(space).labels == ["ss", "ssx", "sssx", "sh-1_0"]
    for gens in (space, suspend_space(space)):
        words = enumerate_words(gens, 4)
        labels = [word_label(w, gens) for w in words]
        assert len(set(labels)) == len(words)
        for w, text in zip(words, labels):
            assert parse_word(text, gens) == w
            assert parse_word("*".join(text.split("*")[::-1]), gens) == w
    assert word_label((), space) == "1" and parse_word("1", space) == ()
    assert word_label((3, 1, 0), space) == "h-1_0*sx*s"
    for bad in ("x", "s*s", "sx**s", "ss"):
        with pytest.raises(ValueError):
            parse_word(bad, space)


def test_splittings_distinct_letters_subsets():
    word = (P, Q, W)
    outs = list(splittings(word, MIXED))
    assert len(outs) == 2 ** 3
    # all even letters: every sign is +1
    assert all(sign == 1 for _, _, sign in outs)


def test_splittings_repeated_letters_leftmost_copy():
    word = (P, P, W, W)
    outs = list(splittings(word, MIXED))
    # multiplicities (2, 2): (2+1) * (2+1) splittings
    assert len(outs) == 9
    assert len(set((A, B) for A, B, _ in outs)) == 9


def test_splittings_odd_letter_sign():
    word = (U, V)
    got = {(A, B): sign for A, B, sign in splittings(word, MIXED)}
    assert got[((U,), (V,))] == 1
    assert got[((V,), (U,))] == -1


@st.composite
def spaces_and_sequences(draw):
    degrees = draw(st.lists(st.integers(-2, 3), min_size=1, max_size=4))
    space = GradedVectorSpace(
        [("g%d" % i, d) for i, d in enumerate(degrees)])
    seqs = draw(st.lists(
        st.lists(st.sampled_from(range(space.dim)), max_size=5), max_size=5))
    return space, [tuple(seq) for seq in seqs]


@settings(max_examples=60, deadline=None)
@given(spaces_and_sequences())
def test_splittings_match_koszul_oracle(case):
    # every canonical word of length <= 5, plus unsorted sequences in which
    # an odd letter may repeat or recur after other letters
    space, sequences = case
    for word in enumerate_words(space, 5) + sequences:
        assert (list(splittings(word, space)) ==
                list(word_oracle.splittings(word, space)))


def test_diagonal_coassociative():
    coalg = TruncatedSymCoalgebra(MIXED, 3)
    for w in coalg.words:
        left = {}
        right = {}
        for A, B, s1 in coalg.diagonal(w):
            for A1, A2, s2 in splittings(A, MIXED):
                key = (A1, A2, B)
                left[key] = left.get(key, 0) + s1 * s2
        for A, B, s1 in coalg.diagonal(w):
            for B1, B2, s2 in splittings(B, MIXED):
                key = (A, B1, B2)
                right[key] = right.get(key, 0) + s1 * s2
        assert {k: v for k, v in left.items() if v} == \
               {k: v for k, v in right.items() if v}


def test_coderivation_is_coalgebra_compatible():
    # compatibility with the diagonal plus the prescribed corestriction
    # uniquely characterizes the coderivation extension
    gen = GradedVectorSpace([("a", 0), ("b", 1), ("c", 2)])
    spec = CoderivationSpec(gen, {2: {
        (0, 1): {0: F(2)},
        (1, 1): {1: F(1)},
        (0, 0): {}}})
    coalg = TruncatedSymCoalgebra(gen, 4)
    op = coderivation_operator(spec, coalg)
    assert commutes_with_diagonal(op, coalg) == []


def test_coderivation_corestriction_matches_components():
    gen = GradedVectorSpace([("a", 0), ("b", 1)])
    spec = CoderivationSpec(gen, {2: {(0, 1): {0: F(3)}}})
    coalg = TruncatedSymCoalgebra(gen, 3)
    op = coderivation_operator(spec, coalg)
    wi = coalg.windex[(0, 1)]
    assert op.apply_basis(wi) == {coalg.windex[(0,)]: F(3)}


def test_coderivation_divided_power_multiplicity():
    # inserting a generator already present m times multiplies by m + 1:
    # on e_{aab} the component ab -> 2a inserts a next to an existing a
    gen = GradedVectorSpace([("a", 0), ("b", 1)])
    spec = CoderivationSpec(gen, {2: {(0, 1): {0: F(1)}}})
    coalg = TruncatedSymCoalgebra(gen, 3)
    op = coderivation_operator(spec, coalg)
    wi = coalg.windex[(0, 0, 1)]
    assert op.apply_basis(wi) == {coalg.windex[(0, 0)]: F(2)}


def test_component_degree_enforced():
    gen = GradedVectorSpace([("a", 0), ("b", 1)])
    with pytest.raises(ValueError):
        CoderivationSpec(gen, {2: {(0, 1): {1: F(1)}}})


def test_check_sh_lie_flags_broken_square():
    gen = GradedVectorSpace([("a", 1), ("b", 1), ("c", 1)])
    # lambda_2(ab) = c with lambda_2(bc) = b does not square to zero:
    # applying D twice to the word abc reaches c with coefficient +-1
    spec = CoderivationSpec(gen, {2: {(0, 1): {2: F(1)},
                                      (1, 2): {1: F(1)}}})
    coalg = TruncatedSymCoalgebra(gen, 3, perturbation=spec)
    report = check_sh_lie(coalg)
    assert not report["passed"]


def test_word_degree():
    assert word_degree((P, U, W), MIXED) == 3


# a repeated even letter next to three odd letters: p, q even, u, v, w odd
HAND = GradedVectorSpace([("p", 0), ("q", 2), ("u", 1), ("v", 1), ("w", 3)])


def test_merge_words_inverts_splittings():
    # every splitting (A, B) of w merges back to w with the splitting's
    # sign, and every other pair of words repeats an odd letter
    coalg = TruncatedSymCoalgebra(HAND, 5)
    assert parse_word("p*p*u*v*w", HAND) in coalg.windex
    split = {}
    for w in coalg.words:
        for A, B, sign in word_oracle.splittings(w, HAND):
            split[(A, B)] = (w, sign)
    for A in coalg.words:
        for B in coalg.words_of_length(0, 5 - len(A)):
            assert merge_words(A, B, coalg) == split.get((A, B), (None, 0))
    assert len(split) == sum(
        len(list(word_oracle.splittings(w, HAND))) for w in coalg.words)


def _hand_spec(rng, gen_space, coalg, arities):
    spec = CoderivationSpec(gen_space)
    for b in arities:
        comp = {}
        for w in coalg.words:
            if len(w) != b or rng.random() < 0.5:
                continue
            deg = word_degree(w, gen_space) - 1
            targets = [g for g in range(gen_space.dim)
                       if gen_space.degrees[g] == deg]
            if targets:
                comp[w] = {rng.choice(targets): F(rng.randrange(-3, 4), 2)}
        spec.set_component(b, comp)
    return spec


def test_coderivation_matches_oracle_on_hand_case():
    rng = random.Random(5)
    coalg = TruncatedSymCoalgebra(HAND, 5)
    for arities in ((1,), (2,), (1, 2, 3), (3, 4, 5)):
        spec = _hand_spec(rng, HAND, coalg, arities)
        op = coderivation_operator(spec, coalg)
        assert op.entries == word_oracle.coderivation_operator(
            spec, coalg).entries
        assert commutes_with_diagonal(op, coalg) == []


def test_word_layer_matches_oracle_on_corpus(corpus):
    for _, g, con, res4 in corpus:
        for N in (2, 3, 4):
            res = res4 if N == 4 else transfer(g, con, N)
            coalg = res.coalg
            for spec in (coalg.perturbation, CoderivationSpec(
                    coalg.gen_space, {1: {(i,): coalg.gen_differential
                                          .apply_basis(i) for i in
                                          range(coalg.gen_space.dim)}})):
                op = coderivation_operator(spec, coalg)
                assert op.entries == word_oracle.coderivation_operator(
                    spec, coalg).entries
            D = coalg.differential
            assert (commutes_with_diagonal(D, coalg) ==
                    word_oracle.commutes_with_diagonal(D, coalg) == [])


def test_word_layer_matches_oracle_on_l3_cubed(fixture_dir):
    _, g, _ = cli.load_problem(str(fixture_dir / "l3_cubed.json"))
    con = build_contraction(g.complex)
    for N in (3, 5):
        coalg = transfer(g, con, N).coalg
        op = coalg.perturbation_operator
        assert op.entries == word_oracle.coderivation_operator(
            coalg.perturbation, coalg).entries
        D = coalg.differential
        assert (commutes_with_diagonal(D, coalg) ==
                word_oracle.commutes_with_diagonal(D, coalg) == [])


def _basis_changed_l3_cubed(fixture_dir, N):
    """The coalgebra that transfer builds for l3_cubed after a random basis
    change: its D is dense, so many columns share each target word."""
    _, g, _ = cli.load_problem(str(fixture_dir / "l3_cubed.json"))
    g = instances.change_basis(g, random.Random(3))
    return transfer(g, build_contraction(g.complex), N).coalg


def test_compatibility_splits_each_target_once_per_length(monkeypatch,
                                                          fixture_dir):
    # Delta(D e_w) splits each target word of D once per length of the
    # words w, not once per column it appears in: 36 splittings for the
    # 2,520 nonzeros of D here
    coalg = _basis_changed_l3_cubed(fixture_dir, 4)
    op = coalg.perturbation_operator
    split = []
    diagonal = TruncatedSymCoalgebra.diagonal

    def counting(self, word):
        split.append(word)
        return diagonal(self, word)

    monkeypatch.setattr(TruncatedSymCoalgebra, "diagonal", counting)
    assert commutes_with_diagonal(op, coalg) == []
    pairs = {(t, len(coalg.words[s])) for s, col in op.columns.items()
             for t in col}
    assert len(pairs) < len(op.entries)
    assert len(split) <= len(pairs)


def test_compatibility_reads_word_parities_from_the_degrees(fixture_dir):
    # the merge side takes the parity of each word from the degrees the
    # coalgebra's word space holds, the only word parity it keeps
    coalg = _basis_changed_l3_cubed(fixture_dir, 4)
    assert commutes_with_diagonal(coalg.perturbation_operator, coalg) == []


def _corruptions(op, coalg, rng, count):
    """Operators that differ from op in one entry whose target word has
    length >= 2: the middle terms of Delta of that target make the
    source word incompatible, so every one of them must be caught."""
    space = coalg.space
    keys = [k for k in op.entries if len(coalg.words[k[0]]) >= 2]
    free = [(t, s) for s in range(space.dim) for t in range(space.dim)
            if space.degrees[t] == space.degrees[s] - 1
            and len(coalg.words[t]) >= 2]
    out = []
    for n in range(count):
        ent = dict(op.entries)
        if n % 2 and keys:
            key = rng.choice(keys)
            ent[key] = ent[key] * 2
        else:
            key = rng.choice(free)
            ent[key] = ent.get(key, F(0)) + F(rng.choice([1, -1, 3]), 2)
        out.append(GradedMap(space, space, -1, ent))
    return out


def _changed(op, coalg, rng, count, keys):
    """Operators that differ from op in one entry, at a key (t, s) drawn
    from keys."""
    out = []
    for _ in range(count):
        key = rng.choice(keys)
        ent = dict(op.entries)
        ent[key] = ent.get(key, F(0)) + F(rng.choice([1, -1, 3]), 2)
        out.append(GradedMap(coalg.space, coalg.space, op.degree, ent))
    return out


def _short_target_keys(op, coalg):
    """The keys (t, s) of op's degree whose target word t is empty, and
    those whose t is one letter g with |s| < N and some letter x that
    makes both s x and g x words.  A change c e_t of column s is no
    coderivation: one onto the empty word has eps != 0, and one onto g
    differs from its own coderivation extension, which maps e_{s x} to a
    multiple of e_{g x}.  So changing op = D by it is always caught."""
    space, words = coalg.space, coalg.words
    letters = range(coalg.gen_space.dim)

    def extends(s, g):
        return len(words[s]) < coalg.N and any(
            merge_words(words[s], (x,), coalg)[0] is not None
            and merge_words((g,), (x,), coalg)[0] is not None
            for x in letters)

    return [(t, s) for s in range(space.dim) for t in range(space.dim)
            if space.degrees[t] == space.degrees[s] + op.degree
            and (not words[t] or len(words[t]) == 1
                 and extends(s, words[t][0]))]


def _length_operator(coalg):
    """e_w -> |w| e_w, a coderivation of degree 0: Delta(e_w) splits w
    into words of lengths adding up to |w|."""
    return GradedMap(coalg.space, coalg.space, 0,
                     {(w, w): len(word) for w, word in enumerate(coalg.words)
                      if word})


def test_commutes_with_diagonal_reports_corrupted_words_like_oracle(
        fixture_dir):
    rng = random.Random(11)
    cases = [ce_coalgebra(instances.nonzero_l3_dgla(), 4),
             ce_coalgebra(lie_instances.sl2(), 3)]
    for g in (instances.random_dgla(3), instances.random_dgla(8)):
        cases.append(transfer(g, build_contraction(g.complex), 4).coalg)
    # shared target words, within a length and across lengths
    cases.append(_basis_changed_l3_cubed(fixture_dir, 4))
    for coalg in cases:
        assert is_coderivation(coalg.differential, coalg) is True
        for bad in _corruptions(coalg.differential, coalg, rng, 6):
            got = commutes_with_diagonal(bad, coalg)
            assert got
            assert got == word_oracle.commutes_with_diagonal(bad, coalg)
            assert is_coderivation(bad, coalg) is False
    # changes onto the empty word and onto length-one targets, which the
    # one-letter part and eps decide without the longer targets
    short = random.Random(12)
    for coalg in cases[:4]:
        D = coalg.differential
        keys = _short_target_keys(D, coalg)
        assert any(not coalg.words[t] for t, _ in keys)
        assert any(coalg.words[t] for t, _ in keys)
        empty = [k for k in keys if not coalg.words[k[0]]]
        for bad in (_changed(D, coalg, short, 4, keys)
                    + _changed(D, coalg, short, 2, empty)):
            got = commutes_with_diagonal(bad, coalg)
            assert got
            assert got == word_oracle.commutes_with_diagonal(bad, coalg)
            assert is_coderivation(bad, coalg) is False
    # an entry on the empty word from a word of length N has no one-letter
    # term: eps alone refuses it
    coalg = TruncatedSymCoalgebra(MIXED, 2)
    bad = GradedMap(coalg.space, coalg.space, -1,
                    {(coalg.windex[()], coalg.windex[(P, U)]): F(1)})
    assert commutes_with_diagonal(bad, coalg) == [(P, U)]
    assert is_coderivation(bad, coalg) is False
    # degree 0: the word-length operator and its one-entry changes, which
    # may or may not be coderivations
    for coalg in cases[:4]:
        L = _length_operator(coalg)
        assert commutes_with_diagonal(L, coalg) == []
        assert is_coderivation(L, coalg) is True
        keys = [(t, s) for s in range(coalg.space.dim)
                for t in range(coalg.space.dim)
                if coalg.space.degrees[t] == coalg.space.degrees[s]]
        verdicts = set()
        for bad in _changed(L, coalg, short, 8, keys):
            got = commutes_with_diagonal(bad, coalg)
            assert got == word_oracle.commutes_with_diagonal(bad, coalg)
            assert is_coderivation(bad, coalg) == (got == [])
            verdicts.add(got == [])
        assert False in verdicts
    # a changed corestriction breaks compatibility on the longer words
    # that contain the changed word, not on the word itself
    coalg = cases[0]
    op = coalg.differential
    xy = parse_word("sx*sy", coalg.gen_space)
    wi = coalg.windex[xy]
    ent = dict(op.entries)
    key = (coalg.windex[parse_word("sv", coalg.gen_space)], wi)
    ent[key] = ent.get(key, F(0)) + 1
    bad = GradedMap(coalg.space, coalg.space, -1, ent)
    got = commutes_with_diagonal(bad, coalg)
    assert got and xy not in got
    assert got == word_oracle.commutes_with_diagonal(bad, coalg)
    assert is_coderivation(bad, coalg) is False


def test_check_sh_lie_lists_words_only_when_its_verdict_fails(
        monkeypatch, fixture_dir):
    # on passing coalgebras is_coderivation alone decides: the per-word
    # check, which lists the incompatible words, is never called
    _, l3_cubed, _ = cli.load_problem(str(fixture_dir / "l3_cubed.json"))
    g = instances.random_dgla(3)
    coalgs = [transfer(h, build_contraction(h.complex), 4).coalg
              for h in (l3_cubed, g)]

    def refuse(op, coalg):
        raise AssertionError("commutes_with_diagonal on a passing input")

    with monkeypatch.context() as patch:
        patch.setattr("hptmaster.words.commutes_with_diagonal", refuse)
        for coalg in coalgs:
            assert check_sh_lie(coalg)["passed"]
        assert morgan_example()[1]["sh_lie"]
    # a corrupted perturbation lists the words the per-word oracle finds
    coalg = coalgs[1]
    bad = _corruptions(coalg.perturbation_operator, coalg,
                       random.Random(4), 1)[0]
    monkeypatch.setattr(coalg, "_pert_op", bad)
    monkeypatch.setattr(coalg, "_differential", None)
    report = check_sh_lie(coalg)
    assert not report["coalgebra_compatible"] and not report["passed"]
    assert (report["incompatible_words"]
            == word_oracle.commutes_with_diagonal(bad, coalg) != [])


def test_is_coderivation_splits_each_target_once_and_merges_components(
        monkeypatch, fixture_dir):
    # the diagonal is read once per distinct target word of op, and only
    # the columns with a length-one target are merged with words
    coalg = _basis_changed_l3_cubed(fixture_dir, 4)
    op = coalg.perturbation_operator
    words = coalg.words
    split = collections.Counter()
    merged = set()
    diagonal = TruncatedSymCoalgebra.diagonal

    def counting(self, word):
        split[word] += 1
        return diagonal(self, word)

    def spy(A, B, coalg):
        merged.add(A)
        return merge_words(A, B, coalg)

    monkeypatch.setattr(TruncatedSymCoalgebra, "diagonal", counting)
    monkeypatch.setattr("hptmaster.words.merge_words", spy)
    assert is_coderivation(op, coalg)
    targets = {words[t] for col in op.columns.values() for t in col}
    assert set(split) <= targets and max(split.values()) == 1
    components = {words[s] for s, col in op.columns.items()
                  if any(len(words[t]) == 1 for t in col)}
    assert merged and merged <= components
    assert len(components) < len(op.columns)


def test_assigning_a_perturbation_rebuilds_the_operators():
    coalg = ce_coalgebra(instances.nonzero_l3_dgla(), 3)
    D = coalg.differential
    assert coalg.differential is D   # built once per perturbation
    old = coalg.perturbation_operator
    coalg.perturbation = CoderivationSpec(coalg.gen_space, {
        b: {w: {k: 2 * c for k, c in val.items()} for w, val in comp.items()}
        for b, comp in coalg.perturbation.components.items()})
    assert coalg.perturbation_operator == old.scale(2)
    assert coalg.differential == coalg.d1 + old.scale(2) != D
    coalg.perturbation = None
    assert coalg.perturbation_operator.is_zero()
    assert coalg.differential == coalg.d1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=4),
       st.integers(1, 5))
def test_letter_products_and_mult_match_merge_words(degrees, N):
    # every letter times every word, over generators of mixed parity: the
    # words of length N, whose products leave the truncation, and the odd
    # letters a word already holds are among them
    gen_space = GradedVectorSpace([("g%d" % i, deg)
                                   for i, deg in enumerate(degrees)])
    coalg = TruncatedSymCoalgebra(gen_space, N)
    assert coalg.mult == [lift_oracle._multiplicity(w) for w in coalg.words]
    for wi, w in enumerate(coalg.words):
        for g in range(gen_space.dim):
            word, sign = merge_words((g,), w, coalg)
            assert coalg.letter_products[g, wi] == (coalg.windex.get(word),
                                                    sign)


def test_lift_and_coderivations_merge_each_letter_and_word_once(
        monkeypatch, corpus):
    # the lift and coderivation_operator read every product of a letter
    # with a word from the coalgebra's memo, so merge_words sees each such
    # pair of a coalgebra at most once however many columns and operators
    # meet it; the letter comes first in every merge the memo makes
    _, g, con, _ = corpus[5]
    merged = collections.Counter()

    def spy(A, B, coalg):
        if len(A) == 1:
            merged[id(coalg), A[0], B] += 1
        return merge_words(A, B, coalg)

    monkeypatch.setattr("hptmaster.words.merge_words", spy)
    result = transfer(g, con, 4)
    assert result.lift.identity_failures() == []
    for coalg in (result.big_coalg, result.coalg):
        assert not coalg.perturbation_operator.is_zero()
    # 346 pairs of the two coalgebras; merged pair by pair, the same
    # calls met 315 pairs up to 16 times each
    assert len({coalg for coalg, _, _ in merged}) == 2
    assert len(merged) > 300
    assert max(merged.values()) == 1
