"""dg Lie algebras, cup operations, and twisting cochains."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import lie_instances
import word_oracle
from hptmaster import cli, dgla, instances
from hptmaster.complexes import ChainComplex, build_contraction
from hptmaster.dgla import (DgLieAlgebra, TwistingCochainHom, ce_coalgebra,
                            cup_bracket, is_twisting_cochain,
                            universal_cochain, validate_dgla)
from hptmaster.graded import GradedMap, GradedVectorSpace
from hptmaster.transfer import transfer
from hptmaster.words import (TruncatedSymCoalgebra, check_sh_lie,
                             merge_words, parse_word)

F = Fraction


def b2():
    # solvable rank-two algebra: [e, f] = f
    V = GradedVectorSpace([("e", 0), ("f", 0)])
    return DgLieAlgebra(ChainComplex(V), {(0, 1): {1: F(1)}})


def test_validate_passes_classical():
    assert validate_dgla(lie_instances.sl2())["passed"]
    assert validate_dgla(b2())["passed"]
    assert validate_dgla(instances.nonzero_l3_dgla())["passed"]


def test_validate_jacobi_witness():
    V = GradedVectorSpace([("e", 0), ("f", 0), ("h", 0)])
    broken = DgLieAlgebra(ChainComplex(V), {
        (0, 1): {2: F(1)}, (0, 2): {0: F(-3)}, (1, 2): {1: F(2)}})
    report = validate_dgla(broken)
    assert not report["passed"]
    assert not report["jacobi"]
    assert report["jacobi_witness"] == ("e", "f", "h")


def test_validate_leibniz_witness():
    V = GradedVectorSpace([("x", 0), ("y", 0), ("u", 1), ("v", 0)])
    d = GradedMap(V, V, -1, {(3, 2): F(1)})
    # [x, y] = v is fine; [x, u] = u breaks d[x,u] = [x, du]
    broken = DgLieAlgebra(ChainComplex(V, d),
                          {(0, 1): {3: F(1)}, (0, 2): {2: F(1)}})
    report = validate_dgla(broken)
    assert not report["passed"]
    assert not report["chain_map"]


COEFFS = [F(0), F(0), F(1), F(-1), F(2), F(1, 2)]
# the degrees of the dimension-40 abelian algebra of the cli-mix benchmark
ABELIAN_40 = [random.Random(0).randrange(-2, 4) for _ in range(40)]


@st.composite
def bracket_tables(draw):
    """Degrees, a differential with at most one entry, random constants."""
    degrees = draw(st.lists(st.integers(-1, 2), min_size=1, max_size=4))
    n = len(degrees)
    d_ent = {}
    pairs = [(t, s) for s in range(n) for t in range(n)
             if degrees[t] == degrees[s] - 1]
    if pairs and draw(st.booleans()):
        d_ent[draw(st.sampled_from(pairs))] = draw(st.sampled_from(COEFFS))
    table = {}
    for i in range(n):
        for j in range(i, n):
            if i == j and degrees[i] % 2 == 0:
                continue
            for k in range(n):
                if degrees[k] == degrees[i] + degrees[j]:
                    c = draw(st.sampled_from(COEFFS))
                    if c:
                        table.setdefault((i, j), {})[k] = c
    return degrees, d_ent, table


@settings(max_examples=200, deadline=None)
@given(bracket_tables())
@example(([0, 0, 0], {},
          {(0, 1): {2: F(1)}, (0, 2): {0: F(-3)}, (1, 2): {1: F(2)}}))
@example(([1, 1, 2], {}, {(0, 1): {2: F(1)}, (1, 1): {2: F(1)}}))
@example((ABELIAN_40, {}, {}))
# sparse and failing: the first failing triple (x0, x2, x4) has [x0, x2] = 0
@example(([0] * 7, {}, {(2, 4): {5: F(1)}, (0, 5): {1: F(1)},
                        (3, 6): {1: F(2)}}))
def test_validate_dgla_matches_full_cube_oracle(case):
    degrees, d_ent, table = case
    V = GradedVectorSpace([("x%d" % i, d) for i, d in enumerate(degrees)])
    g = DgLieAlgebra(ChainComplex(V, GradedMap(V, V, -1, d_ent)), table)
    assert validate_dgla(g) == word_oracle.validate_dgla(g)


def test_odd_self_bracket_allowed():
    V = GradedVectorSpace([("x", 1), ("z", 2)])
    g = DgLieAlgebra(ChainComplex(V), {(0, 0): {1: F(1)}})
    assert validate_dgla(g)["passed"]
    v = g.bracket({0: F(1)}, {0: F(1)})
    assert v == {1: F(1)}


def test_even_self_bracket_rejected():
    V = GradedVectorSpace([("x", 0), ("z", 0)])
    with pytest.raises(ValueError):
        DgLieAlgebra(ChainComplex(V), {(0, 0): {1: F(1)}})


def test_bracket_antisymmetry_sign():
    g = lie_instances.sl2()
    e = {0: F(1)}
    f = {1: F(1)}
    assert g.bracket(e, f) == {2: F(1)}
    assert g.bracket(f, e) == {2: F(-1)}


def test_ce_coalgebra_sh_lie():
    for g in (lie_instances.sl2(), b2(), instances.nonzero_l3_dgla()):
        coalg = ce_coalgebra(g, 3)
        report = check_sh_lie(coalg)
        assert report["passed"]


def test_ce_quadratic_component_anchor():
    # lambda_2(e_{sx sy}) = -(-1)^{|x|} s[x, y]; for b2 in degree 0 the
    # sign is -1, so the component on (se, sf) is -sf
    g = b2()
    coalg = ce_coalgebra(g, 2)
    comp = word_oracle.components(coalg.perturbation, coalg)[2]
    assert comp[parse_word("se*sf", coalg.gen_space)] == {1: F(-1)}


def universal_twisting_cochain(g, coalg):
    """tau_g: C[g] -> g, the desuspension on word length 1 and zero else."""
    return TwistingCochainHom(coalg, g, universal_cochain(coalg, g.space))


def test_universal_twisting_cochain_master():
    for g in (lie_instances.sl2(), instances.nonzero_l3_dgla()):
        coalg = ce_coalgebra(g, 3)
        tau = universal_twisting_cochain(g, coalg)
        report = is_twisting_cochain(tau)
        assert report["passed"], report


def test_is_twisting_cochain_detects_mutation():
    g = instances.nonzero_l3_dgla()
    coalg = ce_coalgebra(g, 3)
    tau = universal_twisting_cochain(g, coalg)
    # a stray degree-compatible length-2 component (value u, with du != 0)
    # must break the master equation at word length two
    wi = coalg.windex[parse_word("sx*sy", coalg.gen_space)]
    entries = dict(tau.hom.entries)
    entries[(g.space.index["u"], wi)] = F(1)
    broken = GradedMap(coalg.space, g.space, -1, entries)
    bad = TwistingCochainHom(coalg, g, broken)
    assert not is_twisting_cochain(bad)["passed"]


def twisted_differential(gamma, target):
    """d_Gamma(a) = d a - [Gamma, a] for a Maurer-Cartan solution.

    gamma is a sparse degree -1 element of the target; refuses input that
    does not solve the master equation, since the result would not square
    to zero.
    """
    space = target.space
    d, bracket = target.d, target.bracket
    # 2 d gamma - [gamma, gamma], times d.den bracket.den
    bad = bracket.add_product(d.add_image({}, gamma, 2 * bracket.den),
                              gamma, gamma, -d.den)
    if any(bad.values()):
        raise ValueError("element does not solve the master equation")
    # d e_s - [gamma, e_s], times d.den bracket.den
    out = GradedMap.from_columns(space, space, -1, [
        bracket.add_product(d.add_image({}, {s: bracket.den}),
                            gamma, {s: 1}, -d.den)
        for s in range(space.dim)], d.den * bracket.den)
    if not out.compose(out).is_zero():
        raise ValueError("the twisted differential does not square to zero")
    return out


def test_twisted_differential_maurer_cartan():
    # x odd of homological degree -1 with [x, x] = 2z, gamma = x solves
    # d gamma = (1/2)[gamma, gamma] only when the bracket term vanishes,
    # so use the abelian direction: gamma a cycle in an abelian algebra
    V = GradedVectorSpace([("x", -1), ("y", -1), ("z", -2)])
    g = DgLieAlgebra(ChainComplex(V), {(0, 1): {2: F(1)}})
    gamma = {0: F(1)}  # [x, x] = 0, d = 0: Maurer-Cartan
    dtw = twisted_differential(gamma, g)
    # d_gamma(y) = -[x, y] = -z
    assert dtw.apply_basis(1) == {2: F(-1)}
    assert dtw.compose(dtw).is_zero()


def test_twisted_differential_rejects_non_mc():
    V = GradedVectorSpace([("x", -1), ("z", -2)])
    g = DgLieAlgebra(ChainComplex(V), {(0, 0): {1: F(2)}})
    with pytest.raises(ValueError):
        twisted_differential({0: F(1)}, g)


def test_twisted_differential_refuses_a_non_square_zero_result():
    # Jacobi fails, so an MC element need not give d_gamma^2 = 0:
    # [gamma, gamma] = 0 and d = 0, but d_gamma^2(a) = [gamma, [gamma, a]] = c
    V = GradedVectorSpace([("gamma", -1), ("a", 0), ("b", -1), ("c", -2)])
    g = DgLieAlgebra(ChainComplex(V), {(0, 1): {2: F(1)}, (0, 2): {3: F(1)}})
    with pytest.raises(ValueError, match="does not square to zero"):
        twisted_differential({0: F(1)}, g)


def test_sub_algebra_inclusion():
    g = lie_instances.commuting_lifts_dgla()
    dim = g.space.dim
    vectors = [{j: F(1)} for j in range(dim)]
    sub, incl = g.sub_algebra(vectors)
    assert sub.space.dim == dim
    assert validate_dgla(sub)["passed"]


def _assert_cup_matches_oracle(a, b, coalg, g):
    for length in [None] + list(range(coalg.N + 2)):
        got = cup_bracket(a, b, coalg, g, length=length)
        want = word_oracle.cup_bracket(a, b, coalg, g, length=length)
        assert got.degree == want.degree
        assert list(got.entries.items()) == list(want.entries.items())


def test_cup_bracket_matches_oracle_on_corpus(corpus):
    for _, g, con, res4 in corpus:
        for N in (2, 3, 4):
            res = res4 if N == 4 else transfer(g, con, N)
            _assert_cup_matches_oracle(res.tau.hom, res.tau.hom, res.coalg, g)


def test_cup_bracket_matches_oracle_on_l3_cubed(fixture_dir):
    _, g, _ = cli.load_problem(str(fixture_dir / "l3_cubed.json"))
    con = build_contraction(g.complex)
    for N in (3, 5):
        tau = transfer(g, con, N).tau
        coalg = tau.source
        for length in (None, N):
            got = cup_bracket(tau.hom, tau.hom, coalg, g, length=length)
            want = word_oracle.cup_bracket(tau.hom, tau.hom, coalg, g,
                                           length=length)
            assert got.entries == want.entries


def test_cup_bracket_matches_oracle_on_hand_case():
    # words with a repeated even letter next to three odd letters, e.g.
    # p p u v w, and random maps of even and odd degree into a target
    # whose degrees reach the long words (the bracket need not be Lie)
    rng = random.Random(7)
    gens = GradedVectorSpace(
        [("p", 0), ("q", 2), ("u", 1), ("v", 1), ("w", 3)])
    coalg = TruncatedSymCoalgebra(gens, 5)
    assert parse_word("p*p*u*v*w", gens) in coalg.windex
    V = GradedVectorSpace([("e%d" % i, i // 2) for i in range(12)])
    table = {}
    for i in range(V.dim):
        for j in range(i, V.dim):
            if i == j and V.degrees[i] % 2 == 0:
                continue
            ks = [k for k in range(V.dim)
                  if V.degrees[k] == V.degrees[i] + V.degrees[j]]
            if ks and rng.random() < 0.5:
                table[(i, j)] = {rng.choice(ks): F(rng.randrange(1, 4))}
    g = DgLieAlgebra(ChainComplex(V), table)

    def random_map(degree):
        ent = {}
        for s in range(coalg.space.dim):
            ts = [t for t in range(V.dim)
                  if V.degrees[t] == coalg.space.degrees[s] + degree]
            if ts and rng.random() < 0.6:
                ent[(rng.choice(ts), s)] = F(rng.randrange(-2, 3), 3)
        return GradedMap(coalg.space, V, degree, ent)

    for da, db in ((-1, -1), (-1, 0), (0, -1), (-2, 1)):
        a, b = random_map(da), random_map(db)
        assert not cup_bracket(a, b, coalg, g).is_zero()
        _assert_cup_matches_oracle(a, b, coalg, g)
    # cup squares: summed over the unordered pairs of the support for an
    # odd map, where some diagonal pair (A, A) brackets to nonzero, and
    # zero for an even one
    diagonal = []
    for degree in (-1, 1, 0):
        a = random_map(degree)
        assert cup_bracket(a, a, coalg, g).is_zero() == (degree == 0)
        _assert_cup_matches_oracle(a, a, coalg, g)
        if degree % 2:
            diagonal += [g.bracket(col, col)
                         for s, col in a.by_column().items()
                         if 2 * len(coalg.words[s]) <= coalg.N
                         and merge_words(coalg.words[s], coalg.words[s],
                                         coalg)[0]]
    assert any(diagonal)


def test_cup_square_merges_each_unordered_pair_once(monkeypatch,
                                                    fixture_dir):
    # [tau, tau] visits the pairs of support columns s_A <= s_B whose
    # lengths fit and whose values have a nonzero bracket of basis
    # vectors, one merge each, not both orders of a pair
    _, g, _ = cli.load_problem(str(fixture_dir / "l3_cubed.json"))
    g = instances.change_basis(g, random.Random(3))
    tau = transfer(g, build_contraction(g.complex), 5).tau
    coalg = tau.source
    merges = []

    def counting(A, B, coalg):
        merges.append((A, B))
        return merge_words(A, B, coalg)

    monkeypatch.setattr(dgla, "merge_words", counting)
    square = cup_bracket(tau.hom, tau.hom, coalg, g)
    cols = tau.hom.columns
    support = sorted(cols)
    partners = g.bracket.partners
    pairs = sum(1 for i, s in enumerate(support) for r in support[i:]
                if len(coalg.words[s]) + len(coalg.words[r]) <= coalg.N
                and any(partners[x].intersection(cols[r]) for x in cols[s]))
    assert 0 < len(merges) == pairs
    assert len(set(merges)) == pairs
    assert square.entries == word_oracle.cup_bracket(
        tau.hom, tau.hom, coalg, g).entries
