"""The transfer recursion, its degenerations, and the adjoint picture."""

import importlib.util
import pathlib
import random
from fractions import Fraction

import pytest

import contraction_oracle
import lie_instances
import word_oracle
from word_oracle import components, sort_factors, word_degree
from hptmaster import cli, graded, instances
from hptmaster.complexes import ChainComplex, Contraction, build_contraction
from hptmaster.dgla import (DgLieAlgebra, TwistingCochainHom, ce_coalgebra,
                            cup_bracket, is_twisting_cochain)
from hptmaster.graded import GradedMap, GradedVectorSpace
from hptmaster.transfer import (check_addendum_283, check_addendum_285,
                                theorem_29_pipeline, transfer, verify_master)
from hptmaster import words
from hptmaster.words import TruncatedSymCoalgebra, splittings, word_label

F = Fraction
HALF = F(1, 2)


def test_transfer_requires_valid_truncation():
    g = instances.abelian_dgla()
    con = build_contraction(g.complex)
    with pytest.raises(ValueError):
        transfer(g, con, 1)


def assert_recursion_square_is_the_cup_square(res, oracle=True):
    """The half square the recursion hands to the master check is half the
    cup square of the final tau on every word: cup_bracket's all-lengths
    mode and, unless oracle is False, the oracle's splittings agree."""
    hom, coalg, g = res.tau.hom, res.coalg, res.g
    assert res.half_square == cup_bracket(hom, hom, coalg, g).scale(HALF)
    if oracle:
        full = word_oracle.full_cup_bracket(hom, hom, coalg, g)
        assert res.half_square.entries == {
            k: c / 2 for k, c in full.entries.items()}


def test_lengthwise_recursion_matches_full_cup_oracle(corpus):
    for _, g, con, res4 in corpus:
        for N in (2, 3, 4):
            res = res4 if N == 4 else transfer(g, con, N)
            tau, D = word_oracle.transfer_tau_and_D(g, con, N)
            assert res.tau.hom.entries == tau.entries
            assert res.coalg.perturbation == D
            assert_recursion_square_is_the_cup_square(res)
            # the small complex is homology, so d1 = 0 and the sum d1 + D
            # hands back an operand: D itself, or d1 when D = 0 too
            coalg = res.coalg
            op = coalg.perturbation_operator
            assert coalg.d1.is_zero()
            assert coalg.differential is (op if op.columns else coalg.d1)


def test_engineered_l3_hand_values():
    """Hand-computed recursion trace on the six-dimensional instance.

    With [x, y] = v = d(u) and [w, u] = z, the quadratic cup bracket on
    the word (sx, sy) evaluates to -2v, so tau^2 = -h(-v) = h(v) = -u.
    Feeding that back in at word length three gives
    (1/2)[tau, tau](sw sx sy) = z, projecting to the class of z.
    """
    g = instances.nonzero_l3_dgla()
    con = build_contraction(g.complex)
    res = transfer(g, con, 4)

    small = con.small.space
    ix = g.space.index
    # identify which homology class is which via the chosen sections
    by_col = {}
    for k in range(small.dim):
        col = con.nabla.apply_basis(k)
        for lab in ("x", "y", "w", "z"):
            if ix[lab] in col:
                by_col[lab] = k
    assert set(by_col) == {"x", "y", "w", "z"}

    gens = res.coalg.gen_space
    word, _ = sort_factors([by_col["x"], by_col["y"]], gens)
    wi = res.coalg.windex[word]
    assert res.tau.hom.apply_basis(wi) == {ix["u"]: F(-1)}

    word3, _ = sort_factors([by_col["w"], by_col["x"], by_col["y"]], gens)
    comp = components(res.coalg.perturbation, res.coalg)
    assert comp[3][word3] == {by_col["z"]: F(1)}
    # no binary operation survives on homology
    assert 2 not in comp
    assert sorted(words.extract_brackets(res.coalg)) == [3]


def test_bench_counts_the_nonzeros_of_the_perturbation(corpus):
    # bench/tracing.py counts transfer.D_nnz from TransferResult.D, the
    # perturbation's columns grouped by arity; on a transfer with an l2
    # and one with an l3 it counts the perturbation's nonzeros
    path = pathlib.Path(__file__).resolve().parent.parent / "bench"
    spec = importlib.util.spec_from_file_location(
        "tracing", path / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for _, _, _, result in (corpus[1], corpus[5]):
        counters = dict.fromkeys(tracing.SIZE_COUNTERS, 0)
        tracing._after_transfer(counters, result)
        nnz = sum(map(len, result.coalg.perturbation.columns.values()))
        assert counters["transfer.D_nnz"] == nnz > 0


def without_length(res, b):
    """res.tau with its columns on the words of length b dropped."""
    coalg = res.coalg
    columns = {s: col for s, col in res.tau.hom.columns.items()
               if coalg.word_length(s) != b}
    return TwistingCochainHom(coalg, res.g, GradedMap.from_columns(
        coalg.space, res.g.space, -1, columns, res.tau.hom.den))


def test_master_fails_when_component_zeroed():
    g = instances.nonzero_l3_dgla()
    con = build_contraction(g.complex)
    res = transfer(g, con, 4)
    entries = {(t, s): c for (t, s), c in res.tau.hom.entries.items()
               if res.coalg.word_length(s) == 1}
    stripped = TwistingCochainHom(
        res.coalg, g, GradedMap(res.coalg.space, g.space, -1, entries))
    half = cup_bracket(stripped.hom, stripped.hom, res.coalg, g).scale(HALF)
    assert not is_twisting_cochain(stripped, half)["passed"]
    # one length-b component zeroed at a time: the check reads the same
    # failing lengths from the library's fresh square as from the oracle's,
    # and fails first at b exactly when tau has a length-b component
    for g in (instances.nonzero_l3_dgla(), lie_instances.tower_dgla()):
        res = transfer(g, build_contraction(g.complex), 4)
        lengths = {res.coalg.word_length(s) for s in res.tau.hom.columns}
        assert is_twisting_cochain(res.tau, res.half_square)["passed"]
        for b in range(2, res.truncation + 1):
            t = without_length(res, b)
            report = is_twisting_cochain(t, cup_bracket(
                t.hom, t.hom, res.coalg, g).scale(HALF))
            full = word_oracle.full_cup_bracket(t.hom, t.hom, res.coalg, g)
            assert report == is_twisting_cochain(t, full.scale(HALF))
            if b in lengths:
                assert report["first_failure"] == b
            else:
                assert report["passed"]


def test_recursion_square_matches_the_full_cup_square(fixture_dir):
    # the lengthwise recursion test compares the corpus; here the four dg
    # Lie fixtures, broken_jacobi among them, as the length argument does
    # not use Jacobi, and the tower, whose tau reaches length three
    for name in ("abelian", "broken_jacobi", "l3", "l3_cubed"):
        _, g, _ = cli.load_problem(str(fixture_dir / (name + ".json")))
        assert_recursion_square_is_the_cup_square(
            transfer(g, build_contraction(g.complex), 4))
    g = lie_instances.tower_dgla()
    assert_recursion_square_is_the_cup_square(
        transfer(g, build_contraction(g.complex), 5))
    # l3_cubed at depth; the oracle reads every splitting of every word
    # (10 s at N = 8), so CI compares it at N = 8 and tier-1 up to N = 6
    _, g, _ = cli.load_problem(str(fixture_dir / "l3_cubed.json"))
    con = build_contraction(g.complex)
    for N in (5, 6, 7, 8):
        assert_recursion_square_is_the_cup_square(transfer(g, con, N),
                                                  oracle=N <= 6)


def test_identity_contraction_reproduces_ce():
    for g in (lie_instances.sl2(), instances.abelian_dgla((0, 1, 2))):
        iden = GradedMap.identity(g.space)
        zero_h = GradedMap.zero(g.space, g.space, 1)
        con = Contraction(g.complex, g.complex, iden, iden, zero_h)
        res = transfer(g, con, 3)
        ce = ce_coalgebra(g, 3)
        assert res.coalg.perturbation == ce.perturbation
        assert verify_master(res)["passed"]


def test_degeneration_projected_bracket_zero():
    # brackets of lifted classes land in ker pi, so the coderivation dies
    for kind in ("sl2", "b2x", "heis"):
        g = lie_instances.lie_tensor_dgla(kind)
        con = build_contraction(g.complex)
        res = transfer(g, con, 3)
        # this family has nonzero transferred l2, so only check the
        # commuting-lifts variant on the dedicated instance below
        assert verify_master(res)["passed"]


def test_degeneration_commuting_lifts():
    g = lie_instances.commuting_lifts_dgla()
    con = build_contraction(g.complex)
    res = transfer(g, con, 4)
    r283 = check_addendum_283(g, con, res)
    r285 = check_addendum_285(g, con, res)
    assert r283["passed"] and r283["hypothesis_holds"]
    assert r285["passed"] and r285["hypothesis_holds"]
    assert res.coalg.perturbation.is_zero()
    # but the algebra itself is not abelian
    assert g.bracket_table


def test_degeneration_hypothesis_fails_on_sl2():
    g = lie_instances.sl2()
    con = build_contraction(g.complex)
    res = transfer(g, con, 3)
    assert not check_addendum_285(g, con, res)["hypothesis_holds"]
    assert sorted(components(res.coalg.perturbation, res.coalg)) == [2]


def adjoint_report(result):
    """Verify that the extended inclusion is the coalgebra adjoint of tau.

    Checks exactly: (a) the perturbed inclusion is a morphism of coalgebras,
    (b) its corestriction to word length one is the suspension of tau,
    (c) it intertwines the differentials (part of the contraction data).
    """
    F = result.extended.nabla
    small = result.coalg
    big = result.big_coalg

    morphism = True
    for wi, w in enumerate(small.words):
        # Delta F e_w - (F (x) F) Delta e_w
        diff = {}
        for t, c in F.apply_basis(wi).items():
            for A, B, sign in splittings(big.words[t], big.gen_space):
                diff[(A, B)] = diff.get((A, B), 0) + sign * c
        for A, B, sign in splittings(w, small.gen_space):
            fa = F.apply_basis(small.windex[A])
            fb = F.apply_basis(small.windex[B])
            for ta, ca in fa.items():
                for tb, cb in fb.items():
                    key = (big.words[ta], big.words[tb])
                    diff[key] = diff.get(key, 0) - sign * ca * cb
        if any(c != 0 for c in diff.values()):
            morphism = False
            break

    corestriction = True
    for wi, w in enumerate(small.words):
        tau_val = result.tau.hom.apply_basis(wi)
        f_val = {t: c for t, c in F.apply_basis(wi).items()
                 if len(big.words[t]) == 1}
        want = {big.windex[(i,)]: c for i, c in tau_val.items()}
        if f_val != want:
            corestriction = False
            break

    chain = not result.extended.identity_failures()
    return {
        "coalgebra_morphism": morphism,
        "corestriction_is_tau": corestriction,
        "contraction_valid": chain,
        "passed": morphism and corestriction and chain,
    }


def test_adjoint_coalgebra_morphism():
    for g in (instances.nonzero_l3_dgla(), lie_instances.lie_tensor_dgla()):
        con = build_contraction(g.complex)
        res = transfer(g, con, 3)
        rep = adjoint_report(res)
        assert rep["passed"], rep


def test_extend_contraction_matches_recursion():
    # the perturbation lemma applied to the lifted contraction reproduces
    # the recursion's coderivation; the property is asserted inside
    # .extended, so reaching a valid contraction is the whole check
    g = instances.nonzero_l3_dgla()
    con = build_contraction(g.complex)
    res = transfer(g, con, 3)
    assert res.extended.identity_failures() == []


def test_identity_failures_match_oracle_on_corrupted_coalgebra_contractions(
        corpus):
    # one-entry corruptions of nabla, pi or h of the lift and of the
    # perturbed contraction: the residual check names the identities that
    # the oracle's whole-map composites name
    rng = random.Random(0)
    named = set()
    for seed, _, _, result in corpus[:10]:
        for con in (result.lift, result.extended):
            for _ in range(3):
                field = rng.choice(["nabla", "pi", "h"])
                f = getattr(con, field)
                s = rng.randrange(f.source.dim)
                t = rng.randrange(f.target.dim)
                # the one builder that skips the degree check: the bump
                # may be inhomogeneous
                bump = graded._built(f.source, f.target, f.degree,
                                     {s: {t: rng.choice([-1, 1, 2])}}, 1)
                maps = {"nabla": con.nabla, "pi": con.pi, "h": con.h}
                maps[field] = f + bump
                bad = Contraction(con.big, con.small, check=False, **maps)
                failures = bad.identity_failures()
                assert failures == contraction_oracle.identity_failures(
                    bad), seed
                named.update(failures)
    assert len(named) == 7


def test_theorem_29_pipeline_degenerate_case():
    g = lie_instances.commuting_lifts_dgla()
    con = build_contraction(g.complex)
    result, report = theorem_29_pipeline(g, con, 3)
    assert report["passed"]
    assert report["D_zero"] and report["pi_tau_universal"]


def test_theorem_29_pipeline_rejects_surviving_coderivation():
    # pi[w, u] is the class of z, so the hypothesis fails and the
    # coderivation does not degenerate
    g = instances.nonzero_l3_dgla()
    con = build_contraction(g.complex)
    with pytest.raises(ValueError):
        theorem_29_pipeline(g, con, 3)


def test_transfer_rejects_wrong_contraction():
    g = lie_instances.sl2()
    other = instances.abelian_dgla()
    con = build_contraction(other.complex)
    with pytest.raises(ValueError):
        transfer(g, con, 3)


@pytest.fixture
def counted(monkeypatch):
    """Counts the coalgebras built and the contraction verdicts computed."""
    counts = {"coalgebras": 0, "identities": 0}
    init = TruncatedSymCoalgebra.__init__
    check = Contraction._check_identities

    def counting_init(self, *args, **kwargs):
        counts["coalgebras"] += 1
        init(self, *args, **kwargs)

    def counting_check(self):
        counts["identities"] += 1
        return check(self)

    monkeypatch.setattr(TruncatedSymCoalgebra, "__init__", counting_init)
    monkeypatch.setattr(Contraction, "_check_identities", counting_check)
    return counts


def test_pipeline_builds_each_coalgebra_and_verdict_once(counted):
    # one coalgebra per space, shared by the recursion and the extension;
    # verdicts: the synthesized contraction, the lift and the perturbed
    # contraction, each once (transfer and adjoint_report reuse them)
    g = instances.random_dgla(5)   # the nonzero-l3 family: D has l3
    con = build_contraction(g.complex)
    result = transfer(g, con, 4)
    assert sorted(components(result.coalg.perturbation, result.coalg)) == [3]
    assert verify_master(result)["passed"]
    assert result.extended.identity_failures() == []
    assert adjoint_report(result)["passed"]
    assert counted == {"coalgebras": 2, "identities": 3}


def test_addendum_285_compares_against_the_extensions_lift(counted):
    # the check compares the extension with the lift it perturbs, so it
    # lifts once per result, and its report is the same whether or not
    # .extended was read before it
    g = lie_instances.commuting_lifts_dgla()
    con = build_contraction(g.complex)
    reports = []
    for read_first in (False, True):
        result = transfer(g, con, 4)
        if read_first:
            assert result.extended.identity_failures() == []
        reports.append(check_addendum_285(g, con, result))
    assert reports[0] == reports[1]
    assert reports[0]["passed"] and reports[0]["nabla_unperturbed"]
    # verdicts: con once, then the lift and the perturbed contraction of
    # each result; coalgebras: the small one and C[g] of each result
    assert counted == {"coalgebras": 4, "identities": 1 + 2 * 2}


@pytest.mark.parametrize("argv, identities", [
    (["transfer", "--check", "l3.json"], 1),
    (["bv", "--pipeline", "full", "kahler_bv.json"], 1),
    (["bv", "--pipeline", "flat-unit", "unit_bv.json"], 1),
], ids=["transfer-check", "bv-full", "bv-flat-unit"])
def test_cli_computes_each_verdict_once(argv, identities, counted,
                                        fixture_dir, capsys):
    # bv: the one contraction extending the projection, which contracts
    # no second complex; transfer reuses the verdict it is handed
    argv = argv[:-1] + [str(fixture_dir / argv[-1])]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert counted["identities"] == identities


def test_pipeline_leaves_word_labels_unbuilt(monkeypatch):
    # the words index the word spaces, so the pipeline never formats a
    # label; one read of basis then gives the labels word_label writes
    g = instances.random_dgla(5)
    con = build_contraction(g.complex)
    calls = []

    def counting_label(word, gen_space):
        calls.append(word)
        return word_label(word, gen_space)

    monkeypatch.setattr(words, "word_label", counting_label)
    result = transfer(g, con, 4)
    assert verify_master(result)["passed"]
    assert result.extended.identity_failures() == []
    assert calls == []
    for coalg in (result.coalg, result.big_coalg):
        assert coalg.space.basis == [
            ("(%s)" % word_label(w, coalg.gen_space) if w else "1",
             word_degree(w, coalg.gen_space)) for w in coalg.words]
        assert coalg.space.basis[0] == ("1", 0)


def _star_dgla(middle):
    """[a, b] = c = d(u) on a, b, c of degree 0 and u of degree 1, with c
    labelled `middle`: the letter s(a*sb) of C[g] is written like the word
    (sa, sb) when middle is "a*sb"."""
    space = GradedVectorSpace([("a", 0), ("b", 0), (middle, 0), ("u", 1)])
    d = GradedMap(space, space, -1, {(2, 3): 1})
    return DgLieAlgebra(ChainComplex(space, d), {(0, 1): {2: 1}})


def test_labels_with_a_star_transfer_like_plain_labels():
    # "a" < "a*sb" < "b" and "a" < "aa" < "b": the two labellings give the
    # same canonical order, so the same words and the same maps
    maps = []
    for middle in ("a*sb", "aa"):
        g = _star_dgla(middle)
        result = transfer(g, build_contraction(g.complex), 3)
        assert verify_master(result)["passed"]
        ext = result.extended
        maps.append([(m.columns, m.den) for m in (ext.nabla, ext.pi, ext.h)])
        if middle == "a*sb":
            assert result.big_coalg.space.labels.count("(sa*sb)") == 2
    assert maps[0] == maps[1]
    assert maps[0][2][0]   # the homotopy is not zero
