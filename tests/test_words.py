"""Divided-power symmetric coalgebra words, diagonal, coderivations."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import word_oracle
from hptmaster.graded import GradedVectorSpace, koszul_sign
from hptmaster.words import (CoderivationSpec, TruncatedSymCoalgebra,
                             check_sh_lie, coderivation_operator,
                             commutes_with_diagonal, enumerate_words,
                             sort_factors, splittings, word_degree)

F = Fraction

MIXED = GradedVectorSpace([("p", 0), ("q", 0), ("u", 1), ("v", 1), ("w", 2)])


def test_sort_factors_kills_odd_squares():
    word, sign = sort_factors(["u", "u"], MIXED)
    assert word is None and sign == 0


def test_sort_factors_sign_oracle():
    for perm in itertools.permutations(["p", "u", "v"]):
        word, sign = sort_factors(list(perm), MIXED)
        assert word == ("p", "u", "v")
        # oracle: Koszul sign of the permutation taking the canonical
        # word to the given arrangement
        degrees = [MIXED.degree_of(lab) for lab in word]
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


def test_splittings_distinct_letters_subsets():
    word = ("p", "q", "w")
    outs = list(splittings(word, MIXED))
    assert len(outs) == 2 ** 3
    # all even letters: every sign is +1
    assert all(sign == 1 for _, _, sign in outs)


def test_splittings_repeated_letters_leftmost_copy():
    word = ("p", "p", "w", "w")
    outs = list(splittings(word, MIXED))
    # multiplicities (2, 2): (2+1) * (2+1) splittings
    assert len(outs) == 9
    assert len(set((A, B) for A, B, _ in outs)) == 9


def test_splittings_odd_letter_sign():
    word = ("u", "v")
    got = {(A, B): sign for A, B, sign in splittings(word, MIXED)}
    assert got[(("u",), ("v",))] == 1
    assert got[(("v",), ("u",))] == -1


@st.composite
def spaces_and_sequences(draw):
    degrees = draw(st.lists(st.integers(-2, 3), min_size=1, max_size=4))
    space = GradedVectorSpace(
        [("g%d" % i, d) for i, d in enumerate(degrees)])
    seqs = draw(st.lists(
        st.lists(st.sampled_from(space.labels), max_size=5), max_size=5))
    return space, [tuple(seq) for seq in seqs]


@settings(max_examples=60, deadline=None)
@given(spaces_and_sequences())
def test_splittings_match_koszul_oracle(case):
    # every canonical word of length <= 5, plus unsorted sequences in which
    # an odd letter may repeat or recur after other letters
    space, sequences = case
    for word in enumerate_words(space, 5) + sequences:
        for left_size in [None] + list(range(len(word) + 1)):
            assert (list(splittings(word, space, left_size)) ==
                    list(word_oracle.splittings(word, space, left_size)))


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
        ("a", "b"): {0: F(2)},
        ("b", "b"): {1: F(1)},
        ("a", "a"): {}}})
    coalg = TruncatedSymCoalgebra(gen, 4)
    op = coderivation_operator(spec, coalg)
    assert commutes_with_diagonal(op, coalg) == []


def test_coderivation_corestriction_matches_components():
    gen = GradedVectorSpace([("a", 0), ("b", 1)])
    spec = CoderivationSpec(gen, {2: {("a", "b"): {0: F(3)}}})
    coalg = TruncatedSymCoalgebra(gen, 3)
    op = coderivation_operator(spec, coalg)
    wi = coalg.windex[("a", "b")]
    assert op.apply_basis(wi) == {coalg.windex[("a",)]: F(3)}


def test_coderivation_divided_power_multiplicity():
    # inserting a generator already present m times multiplies by m + 1:
    # on e_{aab} the component ab -> 2a inserts a next to an existing a
    gen = GradedVectorSpace([("a", 0), ("b", 1)])
    spec = CoderivationSpec(gen, {2: {("a", "b"): {0: F(1)}}})
    coalg = TruncatedSymCoalgebra(gen, 3)
    op = coderivation_operator(spec, coalg)
    wi = coalg.windex[("a", "a", "b")]
    assert op.apply_basis(wi) == {coalg.windex[("a", "a")]: F(2)}


def test_component_degree_enforced():
    gen = GradedVectorSpace([("a", 0), ("b", 1)])
    with pytest.raises(ValueError):
        CoderivationSpec(gen, {2: {("a", "b"): {1: F(1)}}})


def test_check_sh_lie_flags_broken_square():
    gen = GradedVectorSpace([("a", 1), ("b", 1), ("c", 1)])
    # lambda_2(ab) = c with lambda_2(bc) = b does not square to zero:
    # applying D twice to the word abc reaches c with coefficient +-1
    spec = CoderivationSpec(gen, {2: {("a", "b"): {2: F(1)},
                                      ("b", "c"): {1: F(1)}}})
    coalg = TruncatedSymCoalgebra(gen, 3, perturbation=spec)
    report = check_sh_lie(coalg)
    assert not report["passed"]


def test_word_degree():
    assert word_degree(("p", "u", "w"), MIXED) == 3
