"""Divided-power symmetric coalgebra words, diagonal, coderivations."""

import collections
import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import lie_instances
import lift_oracle
import word_oracle
from word_oracle import corestriction, koszul_sign, sort_factors, word_degree
from hptmaster import cli, instances
from hptmaster.complexes import build_contraction
from hptmaster.deformation import morgan_example
from hptmaster.dgla import ce_coalgebra
from hptmaster.graded import GradedMap, GradedVectorSpace, suspend_space
from hptmaster.transfer import transfer
from hptmaster.words import (TruncatedSymCoalgebra, check_sh_lie,
                             coderivation_defects, coderivation_operator,
                             enumerate_words, merge_words, parse_word,
                             splittings, word_label)

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
    outs = list(word_oracle.splittings(word, MIXED))
    assert len(outs) == 2 ** 3
    # all even letters: every sign is +1
    assert all(sign == 1 for _, _, sign in outs)


def test_splittings_repeated_letters_leftmost_copy():
    word = (P, P, W, W)
    outs = list(word_oracle.splittings(word, MIXED))
    # multiplicities (2, 2): (2+1) * (2+1) splittings
    assert len(outs) == 9
    assert len(set((A, B) for A, B, _ in outs)) == 9


def test_splittings_odd_letter_sign():
    word = (U, V)
    got = {(A, B): sign
           for A, B, sign in word_oracle.splittings(word, MIXED)}
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
    # the full list signs a splitting (A, B) of a canonical word of length
    # <= 5 by the Koszul sign of sorting A + B back into it; on unsorted
    # sequences, in which an odd letter may repeat or recur after other
    # letters, the one-letter walk is still the full list's one-letter part
    space, sequences = case
    for word in enumerate_words(space, 5):
        for A, B, sign in word_oracle.splittings(word, space):
            assert sort_factors(A + B, space) == (word, sign)
    for word in sequences:
        assert list(splittings(word, space)) == _one_letter_part(word, space)


def _one_letter_part(word, space):
    """The full list's splittings with a one-letter left factor, in its
    order, written as splittings writes them."""
    return [(A[0], B, sign) for A, B, sign
            in word_oracle.splittings(word, space, left_size=1)]


@st.composite
def spaces_and_words(draw):
    # a canonical word of length 0 to 8 over generators of both parities,
    # in which even letters may repeat
    degrees = draw(st.lists(st.integers(-2, 3), min_size=1, max_size=5))
    space = GradedVectorSpace(
        [("g%d" % i, d) for i, d in enumerate(degrees)])
    counts = [draw(st.integers(0, 1 if d % 2 else 4)) for d in degrees]
    letters = [g for g, n in enumerate(counts) for _ in range(n)][:8]
    return space, tuple(
        sorted(letters, key=lambda g: (degrees[g], space.labels[g])))


@settings(max_examples=200, deadline=None)
@given(spaces_and_words())
def test_splittings_walk_the_one_letter_part_of_the_oracle(case):
    space, word = case
    assert list(splittings(word, space)) == _one_letter_part(word, space)


def test_splittings_hand_cases():
    assert list(splittings((), MIXED)) == []
    # one term per distinct letter, not (2 + 1) * (1 + 1) splittings
    assert list(splittings((P, P, Q), MIXED)) == [
        (Q, (P, P), 1), (P, (P, Q), 1)]
    # an odd letter passes the odd letters before it
    assert list(splittings((P, U, V, W), MIXED)) == [
        (W, (P, U, V), 1), (V, (P, U, W), -1), (U, (P, V, W), 1),
        (P, (U, V, W), 1)]


def test_diagonal_coassociative():
    coalg = TruncatedSymCoalgebra(MIXED, 3)
    for w in coalg.words:
        left = {}
        right = {}
        for A, B, s1 in word_oracle.splittings(w, MIXED):
            for A1, A2, s2 in word_oracle.splittings(A, MIXED):
                key = (A1, A2, B)
                left[key] = left.get(key, 0) + s1 * s2
        for A, B, s1 in word_oracle.splittings(w, MIXED):
            for B1, B2, s2 in word_oracle.splittings(B, MIXED):
                key = (A, B1, B2)
                right[key] = right.get(key, 0) + s1 * s2
        assert {k: v for k, v in left.items() if v} == \
               {k: v for k, v in right.items() if v}


def test_coderivation_is_coalgebra_compatible():
    # compatibility with the diagonal plus the prescribed corestriction
    # uniquely characterizes the coderivation extension
    gen = GradedVectorSpace([("a", 0), ("b", 1), ("c", 2)])
    coalg = TruncatedSymCoalgebra(gen, 4)
    # bb, an odd square, is no word, so ac -> b stands in its place
    lam = corestriction(coalg, {(0, 1): {0: F(2)}, (0, 2): {1: F(1)},
                                (0, 0): {}})
    op = coderivation_operator(lam, coalg)
    assert (coderivation_defects(op, coalg)
            == word_oracle.commutes_with_diagonal(op, coalg) == [])


def test_coderivation_corestriction_matches_components():
    gen = GradedVectorSpace([("a", 0), ("b", 1)])
    coalg = TruncatedSymCoalgebra(gen, 3)
    op = coderivation_operator(corestriction(coalg, {(0, 1): {0: F(3)}}),
                               coalg)
    wi = coalg.windex[(0, 1)]
    assert op.apply_basis(wi) == {coalg.windex[(0,)]: F(3)}


def test_coderivation_divided_power_multiplicity():
    # inserting a generator already present m times multiplies by m + 1:
    # on e_{aab} the component ab -> 2a inserts a next to an existing a
    gen = GradedVectorSpace([("a", 0), ("b", 1)])
    coalg = TruncatedSymCoalgebra(gen, 3)
    op = coderivation_operator(corestriction(coalg, {(0, 1): {0: F(1)}}),
                               coalg)
    wi = coalg.windex[(0, 0, 1)]
    assert op.apply_basis(wi) == {coalg.windex[(0, 0)]: F(2)}


def test_component_degree_enforced():
    gen = GradedVectorSpace([("a", 0), ("b", 1)])
    coalg = TruncatedSymCoalgebra(gen, 3)
    # ab has degree 1, so a component entry on it must land in degree 0
    with pytest.raises(ValueError):
        corestriction(coalg, {(0, 1): {1: F(1)}})
    # the perturbation is a degree -1 map from these words to gen
    good = corestriction(coalg, {(0, 1): {0: F(1)}})
    wrong_degree = GradedMap.from_columns(coalg.space, gen, 0,
                                          {coalg.windex[(1,)]: {1: 1}})
    other = TruncatedSymCoalgebra(gen, 2)
    other_words = corestriction(other, {(0, 1): {0: F(1)}})
    for lam in (wrong_degree, other_words):
        with pytest.raises(ValueError):
            coalg.perturbation = lam
    assert coalg.perturbation.is_zero()
    coalg.perturbation = good
    assert coalg.perturbation is good


def test_check_sh_lie_flags_broken_square():
    gen = GradedVectorSpace([("a", 1), ("b", 1), ("c", 1)])
    # lambda_2(ab) = c with lambda_2(bc) = b does not square to zero:
    # applying D twice to the word abc reaches c with coefficient +-1
    coalg = TruncatedSymCoalgebra(gen, 3)
    coalg.perturbation = corestriction(coalg, {(0, 1): {2: F(1)},
                                               (1, 2): {1: F(1)}})
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
    comp = {}
    for b in arities:
        for w in coalg.words:
            if len(w) != b or rng.random() < 0.5:
                continue
            deg = word_degree(w, gen_space) - 1
            targets = [g for g in range(gen_space.dim)
                       if gen_space.degrees[g] == deg]
            if targets:
                comp[w] = {rng.choice(targets): F(rng.randrange(-3, 4), 2)}
    return corestriction(coalg, comp)


def test_coderivation_matches_oracle_on_hand_case():
    rng = random.Random(5)
    coalg = TruncatedSymCoalgebra(HAND, 5)
    for arities in ((1,), (2,), (1, 2, 3), (3, 4, 5)):
        lam = _hand_spec(rng, HAND, coalg, arities)
        op = coderivation_operator(lam, coalg)
        assert op.entries == word_oracle.coderivation_operator(
            lam, coalg).entries
        assert (coderivation_defects(op, coalg)
                == word_oracle.commutes_with_diagonal(op, coalg) == [])


def test_word_layer_matches_oracle_on_corpus(corpus):
    for _, g, con, res4 in corpus:
        for N in (2, 3, 4):
            res = res4 if N == 4 else transfer(g, con, N)
            coalg = res.coalg
            for lam in (coalg.perturbation, corestriction(
                    coalg, {(i,): coalg.gen_differential.apply_basis(i)
                            for i in range(coalg.gen_space.dim)})):
                op = coderivation_operator(lam, coalg)
                assert op.entries == word_oracle.coderivation_operator(
                    lam, coalg).entries
            D = coalg.differential
            assert (coderivation_defects(D, coalg) ==
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
        assert (coderivation_defects(D, coalg) ==
                word_oracle.commutes_with_diagonal(D, coalg) == [])


def _basis_changed_l3_cubed(fixture_dir, N):
    """The coalgebra that transfer builds for l3_cubed after a random basis
    change: its D is dense, so many columns share each target word."""
    _, g, _ = cli.load_problem(str(fixture_dir / "l3_cubed.json"))
    g = instances.change_basis(g, random.Random(3))
    return transfer(g, build_contraction(g.complex), N).coalg


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


def _defects_like_oracle(op, coalg):
    """coderivation_defects(op, coalg), required to be empty exactly when
    the per-word oracle's list is, to be a subset of that list in word
    order, and to start with the same word."""
    got = coderivation_defects(op, coalg)
    want = word_oracle.commutes_with_diagonal(op, coalg)
    assert (got == []) == (want == [])
    assert set(got) <= set(want)
    assert got == sorted(got, key=coalg.windex.__getitem__)
    assert got[:1] == want[:1]
    return got


def test_coderivation_defects_match_the_oracle_on_corrupted_operators(
        fixture_dir):
    rng = random.Random(11)
    cases = [ce_coalgebra(instances.nonzero_l3_dgla(), 4),
             ce_coalgebra(lie_instances.sl2(), 3)]
    for g in (instances.random_dgla(3), instances.random_dgla(8)):
        cases.append(transfer(g, build_contraction(g.complex), 4).coalg)
    # shared target words, within a length and across lengths
    cases.append(_basis_changed_l3_cubed(fixture_dir, 4))
    for coalg in cases:
        assert _defects_like_oracle(coalg.differential, coalg) == []
        for bad in _corruptions(coalg.differential, coalg, rng, 6):
            assert _defects_like_oracle(bad, coalg)
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
            assert _defects_like_oracle(bad, coalg)
    # an entry on the empty word from a word of length N has no one-letter
    # term: eps alone refuses it
    coalg = TruncatedSymCoalgebra(MIXED, 2)
    bad = GradedMap(coalg.space, coalg.space, -1,
                    {(coalg.windex[()], coalg.windex[(P, U)]): F(1)})
    assert _defects_like_oracle(bad, coalg) == [(P, U)]
    # degree 0: the word-length operator and its one-entry changes, which
    # may or may not be coderivations
    for coalg in cases[:4]:
        L = _length_operator(coalg)
        assert _defects_like_oracle(L, coalg) == []
        keys = [(t, s) for s in range(coalg.space.dim)
                for t in range(coalg.space.dim)
                if coalg.space.degrees[t] == coalg.space.degrees[s]]
        verdicts = {_defects_like_oracle(bad, coalg) == []
                    for bad in _changed(L, coalg, short, 8, keys)}
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
    got = _defects_like_oracle(bad, coalg)
    assert got and xy not in got


def _corrupted_perturbation(coalg, seed):
    """Make coalg's perturbation operator a one-entry corruption of itself
    (the operators built from it are dropped) and return it."""
    bad = _corruptions(coalg.perturbation_operator, coalg,
                       random.Random(seed), 1)[0]
    coalg._pert_op, coalg._differential = bad, None
    return bad


def test_check_sh_lie_lists_words_only_when_its_verdict_fails(
        monkeypatch, fixture_dir):
    # one call of coderivation_defects gives both the verdict and the
    # words: none on passing coalgebras, the defects on a corrupted one
    _, l3_cubed, _ = cli.load_problem(str(fixture_dir / "l3_cubed.json"))
    g = instances.random_dgla(3)
    coalgs = [transfer(h, build_contraction(h.complex), 4).coalg
              for h in (l3_cubed, g)]
    calls = []

    def counting(op, coalg):
        calls.append(op)
        return coderivation_defects(op, coalg)

    monkeypatch.setattr("hptmaster.words.coderivation_defects", counting)
    for coalg in coalgs:
        report = check_sh_lie(coalg)
        assert report["passed"] and report["incompatible_words"] == []
    assert morgan_example()[1]["sh_lie"]
    assert len(calls) == 3
    coalg = coalgs[1]
    bad = _corrupted_perturbation(coalg, 4)
    report = check_sh_lie(coalg)
    assert calls[-1] is bad and len(calls) == 4
    assert not report["coalgebra_compatible"] and not report["passed"]
    assert report["incompatible_words"] == _defects_like_oracle(bad, coalg)
    assert report["incompatible_words"]


def _counting_splittings(monkeypatch):
    """Count the words that hptmaster.words.splittings is called on, and
    the terms it yields on each."""
    split = collections.Counter()
    steps = collections.Counter()

    def counting(word, gen_space):
        split[word] += 1
        for term in splittings(word, gen_space):
            steps[word] += 1
            yield term

    monkeypatch.setattr("hptmaster.words.splittings", counting)
    return split, steps


def _one_step_per_distinct_letter(split, steps):
    # the walk yields once per distinct letter of each target it is
    # called on, at most |t| steps, where the full list of the target's
    # splittings has prod(count + 1)
    assert sum(steps.values())
    assert all(steps[t] == len(set(t)) <= len(t) for t in split)


def test_coderivation_defects_split_each_target_once_and_merge_components(
        monkeypatch, fixture_dir):
    # the diagonal is read once per distinct target word of op, and only
    # the columns with a length-one target are merged with words
    coalg = _basis_changed_l3_cubed(fixture_dir, 4)
    op = coalg.perturbation_operator
    words = coalg.words
    split, steps = _counting_splittings(monkeypatch)
    merged = set()

    def spy(A, B, coalg):
        merged.add(A)
        return merge_words(A, B, coalg)

    monkeypatch.setattr("hptmaster.words.merge_words", spy)
    assert coderivation_defects(op, coalg) == []
    targets = {words[t] for col in op.columns.values() for t in col}
    assert set(split) <= targets and max(split.values()) == 1
    _one_step_per_distinct_letter(split, steps)
    assert any(len(set(t)) < len(t) for t in split)
    components = {words[s] for s, col in op.columns.items()
                  if any(len(words[t]) == 1 for t in col)}
    assert merged and merged <= components
    assert len(components) < len(op.columns)


def test_check_sh_lie_splits_each_target_once_on_a_failing_coalgebra(
        monkeypatch, fixture_dir):
    # listing the incompatible words reads no more of the diagonal than
    # the verdict does: at most one splitting per distinct target word
    coalg = _basis_changed_l3_cubed(fixture_dir, 4)
    bad = _corrupted_perturbation(coalg, 5)
    split, steps = _counting_splittings(monkeypatch)
    report = check_sh_lie(coalg)
    assert report["incompatible_words"] and not report["passed"]
    targets = {coalg.words[t] for col in bad.columns.values() for t in col}
    assert split and set(split) <= targets and max(split.values()) == 1
    _one_step_per_distinct_letter(split, steps)


def test_assigning_a_perturbation_rebuilds_the_operators():
    coalg = ce_coalgebra(instances.nonzero_l3_dgla(), 3)
    D = coalg.differential
    assert coalg.differential is D   # built once per perturbation
    old = coalg.perturbation_operator
    coalg.perturbation = coalg.perturbation.scale(2)
    assert coalg.perturbation_operator == old.scale(2)
    assert coalg.differential == coalg.d1 + old.scale(2) != D
    coalg.perturbation = None
    assert coalg.perturbation_operator.is_zero()
    assert coalg.differential == coalg.d1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=5),
       st.integers(1, 6), st.randoms(use_true_random=False))
def test_letter_products_and_mult_match_merge_words(degrees, N, rng):
    # every letter times every word, over generators of mixed parity and
    # in shuffled order, so that the prefix recurrence meets cold
    # prefixes: the words of length N, whose products leave the
    # truncation, and the odd letters a word already holds are among them
    gen_space = GradedVectorSpace([("g%d" % i, deg)
                                   for i, deg in enumerate(degrees)])
    coalg = TruncatedSymCoalgebra(gen_space, N)
    assert coalg.mult == [lift_oracle._multiplicity(w) for w in coalg.words]
    assert coalg.parent == [coalg.windex[w[:-1]] for w in coalg.words]
    pairs = [(g, wi) for wi in range(len(coalg.words))
             for g in range(gen_space.dim)]
    rng.shuffle(pairs)
    for g, wi in pairs:
        word, sign = merge_words((g,), coalg.words[wi], coalg)
        assert coalg.letter_products[g, wi] == (coalg.windex.get(word), sign)


def test_letter_products_walk_long_words_without_recursion():
    # u (degree -1) sorts before a (degree 0), so v_u . e_{a^n} is of the
    # third case down to the empty word: a chain of n cold prefixes in a
    # coalgebra of only 2N + 1 words, longer than the interpreter's stack
    # allows a recursion to be
    N = sys.getrecursionlimit() + 100
    coalg = TruncatedSymCoalgebra(
        GradedVectorSpace([("u", -1), ("a", 0)]), N)
    u, a = coalg.gen_space.index["u"], coalg.gen_space.index["a"]
    assert len(coalg.words) == 2 * N + 1
    for n in (N - 1, N):
        word, sign = merge_words((u,), (a,) * n, coalg)
        assert (coalg.letter_products[u, coalg.windex[(a,) * n]]
                == (coalg.windex.get(word), sign))
    assert len(coalg.letter_products) == N + 1


def test_lift_and_coderivations_merge_no_letter_and_no_short_word(
        monkeypatch, corpus):
    # letter products come from the prefix recurrence, so no merge has a
    # one-letter left word, and coderivation_operator reads the letter
    # products for the corestriction words of length 2 as well
    _, g, con, _ = corpus[5]
    merged = []   # (inside coderivation_operator, |A|) for each merge
    depth = [0]

    def spy(A, B, coalg):
        merged.append((depth[0] > 0, len(A)))
        return merge_words(A, B, coalg)

    def counted(lam, coalg):
        depth[0] += 1
        try:
            return coderivation_operator(lam, coalg)
        finally:
            depth[0] -= 1

    monkeypatch.setattr("hptmaster.words.merge_words", spy)
    monkeypatch.setattr("hptmaster.words.coderivation_operator", counted)
    result = transfer(g, con, 4)
    assert result.lift.identity_failures() == []
    for coalg in (result.big_coalg, result.coalg):
        assert not coalg.perturbation_operator.is_zero()
    # the bracket's length-2 words are read, and lambda_3 of the small
    # coalgebra is merged
    big = result.big_coalg
    assert {len(big.words[s]) for s in big.perturbation.columns} == {2}
    assert all(n > 1 for _, n in merged)
    assert {n for inside, n in merged if inside} == {3}
