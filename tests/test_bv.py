"""Gerstenhaber/BV layer: generated brackets, predicates, pipelines."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import bv_oracle
from conftest import kahler_bv
from hptmaster import bv as bv_module, cli, complexes
from hptmaster.bv import (BVData, GerstenhaberAlgebra,
                          addendum_382_flat_identity, bracket_from_generator,
                          kahler_formality_check, koszul_identity_check,
                          proposition_37_check, regrade_to_lie,
                          theorem_38_pipeline, validate_bv)
from hptmaster.dgla import validate_dgla
from hptmaster.transfer import check_addendum_283, transfer
from hptmaster.graded import GradedMap, GradedVectorSpace, StructureTable

F = Fraction


def exterior_two():
    # Lambda(x, y) with Delta(xy) = x
    space = GradedVectorSpace([("1", 0), ("x", 1), ("y", 1), ("xy", 2)])
    prod = {(1, 2): {3: F(1)}}
    delta = GradedMap(space, space, -1, {(1, 3): F(1)})
    return space, prod, delta


def test_bracket_from_generator_hand():
    space, prod, delta = exterior_two()
    alg = GerstenhaberAlgebra(space, prod)
    table = bracket_from_generator(alg, delta)
    # [x, y] = (-1)^1 (Delta(xy) - 0 - 0) = -x, and
    # [y, xy] = -(Delta(y xy) - 0 + y Delta(xy)) = -(0 + yx) = xy
    assert table.canonical == {(1, 2): {1: F(-1)}, (2, 3): {3: F(1)}}


def test_squares_forced_to_vanish_are_refused():
    # x x = -x x for odd x
    space = GradedVectorSpace([("1", 0), ("x", 1), ("y", 2)])
    with pytest.raises(ValueError, match="product: the square of 'x'"):
        GerstenhaberAlgebra(space, {(1, 1): {2: F(1)}})
    # [x, x] = -[x, x] when |x| - 1 is even
    space = GradedVectorSpace([("1", 0), ("x", 1), ("y", 1)])
    with pytest.raises(ValueError, match="bracket: the square of 'x'"):
        GerstenhaberAlgebra(space, {}, {(1, 1): {2: F(1)}})


def test_koszul_identity_and_weak_differential():
    space, prod, delta = exterior_two()
    alg0 = GerstenhaberAlgebra(space, prod)
    table = bracket_from_generator(alg0, delta)
    bv = BVData(GerstenhaberAlgebra(space, prod, table), delta)
    assert bv.generates_bracket()
    assert bv.delta_exact()
    assert koszul_identity_check(bv)["passed"]
    assert proposition_37_check(bv)["passed"]


def test_proposition_37_requires_commuting_generator():
    space, prod, delta = exterior_two()
    d = GradedMap(space, space, 1, {(3, 1): F(1)})  # d(x) = xy
    alg0 = GerstenhaberAlgebra(space, prod, d=d)
    table = bracket_from_generator(alg0, delta)
    bv = BVData(GerstenhaberAlgebra(space, prod, table, d=d), delta)
    assert not bv.weak_differential()
    with pytest.raises(ValueError):
        proposition_37_check(bv)


def test_regrade_to_lie():
    space, prod, delta = exterior_two()
    alg0 = GerstenhaberAlgebra(space, prod)
    table = bracket_from_generator(alg0, delta)
    g = regrade_to_lie(GerstenhaberAlgebra(space, prod, table))
    assert g.space.degrees == [1, 0, 0, -1]
    assert validate_dgla(g)["passed"]


def test_bracket_checks_read_numerators(monkeypatch):
    # generates_bracket, regrade_to_lie and check_addendum_283 compare,
    # carry over and test the int numerators of the bracket table; none
    # builds a Fraction view of the algebra's table or of the regraded one
    viewed = []
    fractions = StructureTable._fractions

    def recording(self):
        viewed.append(self)
        return fractions(self)

    monkeypatch.setattr(StructureTable, "_fractions", recording)
    space, prod, _ = exterior_two()
    half = F(1, 2)
    delta = GradedMap(space, space, -1, {(1, 3): half})
    alg = GerstenhaberAlgebra(space, prod,
                              {(1, 2): {1: -half}, (2, 3): {3: half}})
    assert BVData(alg, delta).generates_bracket()
    assert not BVData(alg, delta.scale(2)).generates_bracket()
    g = regrade_to_lie(alg)
    assert (g.bracket.den, g.bracket.numerator_rows()) == (
        2, alg.bracket.numerator_rows())
    con = complexes.build_contraction(g.complex)
    assert not check_addendum_283(g, con, transfer(g, con, 2))[
        "hypothesis_holds"]
    assert all(table is not alg.bracket and table is not g.bracket
               for table in viewed)
    assert g.bracket_table == alg.bracket_table
    assert validate_dgla(g)["passed"]


def test_generated_bracket_is_checked_on_numerators(monkeypatch):
    # bracket_from_generator checks antisymmetry on int numerators, so the
    # table it generates hands out no Fraction view
    bv = kahler_bv()
    viewed = []
    generated = []
    fractions = StructureTable._fractions
    generate = bv_module.bracket_from_generator

    def recording(self):
        viewed.append(self)
        return fractions(self)

    def keeping(algebra, delta):
        generated.append(generate(algebra, delta))
        return generated[-1]

    monkeypatch.setattr(StructureTable, "_fractions", recording)
    monkeypatch.setattr(bv_module, "bracket_from_generator", keeping)
    assert bv.generates_bracket()
    assert len(generated) == 1
    assert not any(table is generated[0] for table in viewed)


def test_validate_bv_flags_broken_associativity():
    space = GradedVectorSpace([("1", 0), ("a", 0), ("b", 0)])
    prod = {(1, 1): {2: F(1)}, (1, 2): {0: F(1)}, (2, 2): {}}
    alg = GerstenhaberAlgebra(space, prod)
    bv = BVData(alg, GradedMap.zero(space, space, -1))
    report = validate_bv(bv)
    assert not report["associative"]
    assert report["associativity_witness"] == ("a", "a", "b")
    assert not report["passed"]


def test_validate_bv_flags_non_commuting_generator():
    bv = kahler_bv()
    sp = bv.algebra.space
    ix = sp.index
    bad_delta = GradedMap(sp, sp, -1, {(ix["c"], ix["p"]): F(1),
                                       (ix["e"], ix["t"]): F(1)})
    broken = BVData(GerstenhaberAlgebra(sp, bv.algebra.product_table,
                                        bv.algebra.bracket_table,
                                        d=bv.algebra.d), bad_delta)
    report = validate_bv(broken)
    assert not report["d_delta_commute"]


def test_kahler_instance_passes_everything():
    bv = kahler_bv()
    assert validate_bv(bv)["passed"]
    assert koszul_identity_check(bv)["passed"]
    assert proposition_37_check(bv)["passed"]
    predicate = kahler_formality_check(bv)
    assert predicate["passed"], predicate


def test_kahler_predicate_fails_without_exactness_interplay():
    # d(x) = y escapes im Delta = 0, so the projection is not a chain map
    space = GradedVectorSpace([("1", 0), ("x", 1), ("y", 2)])
    d = GradedMap(space, space, 1, {(2, 1): F(1)})
    bv = BVData(GerstenhaberAlgebra(space, {}, d=d),
                GradedMap.zero(space, space, -1))
    report = kahler_formality_check(bv)
    assert not report["projection_chain_map"]
    assert not report["passed"]


def test_theorem_38_pipeline_full():
    bv = kahler_bv()
    result, report = theorem_38_pipeline(bv, 3)
    assert report["passed"], report
    assert report["delta_tau_zero"]
    assert report["pi_tau_universal"]
    assert report["tau_k_in_im_delta"]
    assert report["D_zero"]
    # the quadratic component is genuinely nonzero
    lengths = {result.coalg.word_length(s)
               for (_, s) in result.tau.hom.entries}
    assert 2 in lengths


def test_theorem_38_tau2_is_hodge_partner():
    # tau_2 on the word (s[alpha], s[beta]) must be a multiple of c = Delta p
    bv = kahler_bv()
    result, report = theorem_38_pipeline(bv, 3)
    m_dim = result.g.space.dim
    two = [(t, s) for (t, s) in result.tau.hom.entries
           if result.coalg.word_length(s) == 2]
    assert len(two) == 1
    assert report["tau_k_in_im_delta"]


def test_addendum_382_flat_unit():
    bv = kahler_bv()
    result, report = addendum_382_flat_identity(bv, 3)
    assert report["passed"], report
    assert report["tau_k_avoids_unit"]


def test_addendum_382_rejects_fat_degree_zero():
    space = GradedVectorSpace([("1", 0), ("z", 0)])
    bv = BVData(GerstenhaberAlgebra(space, {}),
                GradedMap.zero(space, space, -1))
    with pytest.raises(ValueError):
        addendum_382_flat_identity(bv, 3)


def test_load_problem_builds_each_bv_table_once(monkeypatch, fixture_dir):
    # kahler_bv.json has no bracket section: the product table, the empty
    # bracket of the algebra that generates the bracket, and the generated
    # bracket table, each built once
    built = []
    init = StructureTable.__init__

    def counting(self, space, rows=(), degree=0, symmetric=False, den=1):
        built.append((degree, symmetric))
        init(self, space, rows, degree, symmetric, den)

    monkeypatch.setattr(StructureTable, "__init__", counting)
    kind, bv, _ = cli.load_problem(str(fixture_dir / "kahler_bv.json"))
    assert kind == "bv" and bv.algebra.bracket_table
    assert built == [(0, True), (-1, False), (-1, False)]


def test_kernel_of_delta_computed_once_per_pipeline(monkeypatch, fixture_dir,
                                                    capsys):
    calls = []
    kernel = bv_module._kernel_subspace

    def counting(op, space):
        calls.append(op)
        return kernel(op, space)

    monkeypatch.setattr(bv_module, "_kernel_subspace", counting)
    bv = kahler_bv()
    theorem_38_pipeline(bv, 3)
    assert len(calls) == 1
    # the same BVData keeps its splitting for the second pipeline
    addendum_382_flat_identity(bv, 3)
    assert len(calls) == 1

    # one bv run: one splitting and one formality predicate (two
    # quasi-isomorphism checks), shared by the report and the pipeline;
    # the two checks share the homology of (ker Delta, d), so four
    # distinct complexes take four homology computations
    quasi_isos = []
    is_quasi_iso = bv_module.is_quasi_iso

    def counting_quasi_iso(*args):
        quasi_isos.append(args)
        return is_quasi_iso(*args)

    homologies = []
    homology = complexes.homology

    def counting_homology(C):
        homologies.append(C)
        return homology(C)

    monkeypatch.setattr(bv_module, "is_quasi_iso", counting_quasi_iso)
    monkeypatch.setattr(complexes, "homology", counting_homology)
    monkeypatch.setattr(bv_module, "homology", counting_homology)
    for argv in (["bv", str(fixture_dir / "kahler_bv.json")],
                 ["bv", str(fixture_dir / "unit_bv.json"),
                  "--pipeline", "flat-unit"]):
        del calls[:], quasi_isos[:], homologies[:]
        assert cli.main(argv + ["--max-word-length", "3"]) == 0
        assert len(calls) == 1
        assert len(quasi_isos) == 2
        assert len(homologies) == 4
        assert len({id(C) for C in homologies}) == 4
    capsys.readouterr()


def test_flat_unit_pipeline_runs_theorem_38_pipeline_once(monkeypatch,
                                                          fixture_dir,
                                                          capsys):
    # both pipelines go through theorem_38_pipeline, so its traced span
    # counts the flat-unit runs too
    calls = []
    pipeline = bv_module.theorem_38_pipeline

    def counting(bv, N):
        calls.append(N)
        return pipeline(bv, N)

    monkeypatch.setattr(bv_module, "theorem_38_pipeline", counting)
    assert cli.main(["bv", str(fixture_dir / "unit_bv.json"),
                     "--pipeline", "flat-unit"]) == 0
    assert len(calls) == 1
    capsys.readouterr()


# -- the sparse checks against the dense oracle ------------------------------

BV_COEFFS = (0, 0, 0, 1, -1, 2, F(1, 2))


def bv_from_case(case):
    """BVData from (degrees, product rows, bracket rows or None for the
    generated bracket, d entries, Delta entries); the unit is index 0."""
    degrees, product, bracket, d, delta = case
    space = GradedVectorSpace(
        [("1" if i == 0 else "x%d" % i, deg) for i, deg in enumerate(degrees)])
    d = GradedMap(space, space, 1, d)
    delta = GradedMap(space, space, -1, delta)
    if bracket is None:
        bracket = bracket_from_generator(
            GerstenhaberAlgebra(space, product, d=d), delta)
    return BVData(GerstenhaberAlgebra(space, product, bracket, d=d), delta)


@st.composite
def bv_cases(draw):
    """Degrees -1..3 (the unit 0), dim <= 5, a unital product, a degree -1
    bracket (drawn, or generated by Delta), d and Delta."""
    dim = draw(st.integers(1, 5))
    degrees = [0] + draw(st.lists(st.integers(-1, 3), min_size=dim - 1,
                                  max_size=dim - 1))

    def rows(shift, first):
        out = {}
        for i in range(first, dim):
            for j in range(i, dim):
                if i == j and degrees[i] % 2:
                    continue  # a square the swap rule forces to vanish
                for k in range(dim):
                    if degrees[k] == degrees[i] + degrees[j] + shift:
                        c = draw(st.sampled_from(BV_COEFFS))
                        if c:
                            out.setdefault((i, j), {})[k] = F(c)
        return out

    def entries(degree):
        out = {}
        for s in range(dim):
            for t in range(dim):
                if degrees[t] == degrees[s] + degree:
                    c = draw(st.sampled_from(BV_COEFFS))
                    if c:
                        out[(t, s)] = F(c)
        return out

    product = rows(0, 1)
    bracket = None if draw(st.booleans()) else rows(-1, 0)
    return degrees, product, bracket, entries(1), entries(-1)


# each case fails the named check (test_each_bv_example_fails_its_check)
FAILING_BV_CASES = {
    "associative": ([0, 0, 0], {(1, 1): {2: 1}, (1, 2): {0: 1}}, None,
                    {}, {}),
    "d_squared_zero": ([0, 0, 1, 2], {}, None, {(2, 1): 1, (3, 2): 1}, {}),
    "d_product_derivation": ([0, 0, 1], {(1, 1): {1: 1}}, None,
                             {(2, 1): 1}, {}),
    "delta_squared_zero": ([0, 1, 2, 3], {}, None, {},
                           {(2, 3): 1, (1, 2): 1}),
    "d_delta_commute": ([0, 1, 2], {}, None, {(2, 1): 1}, {(1, 2): 1}),
    "bracket_generated": ([0, 1, 1], {}, {(1, 2): {1: 1}}, {}, {}),
    "bracket_d": ([0, 1, 1, 2], {}, {(1, 2): {1: 1}}, {(3, 1): 1}, {}),
    "bracket_delta": ([0, 1, 1, 2], {}, {(1, 2): {1: 1}}, {},
                      {(1, 3): 1}),
}


def bv_check_fails(case, check):
    bv = bv_from_case(case)
    A = bv.algebra
    if check == "bracket_d":
        return A.bracket.first_non_derivation(A.d) is not None
    if check == "bracket_delta":
        return A.bracket.first_non_derivation(bv.delta) is not None
    return not validate_bv(bv)[check]


@pytest.mark.parametrize("check", sorted(FAILING_BV_CASES))
def test_each_bv_example_fails_its_check(check):
    assert bv_check_fails(FAILING_BV_CASES[check], check)


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(bv_cases())
@example(FAILING_BV_CASES["associative"])
@example(FAILING_BV_CASES["d_squared_zero"])
@example(FAILING_BV_CASES["d_product_derivation"])
@example(FAILING_BV_CASES["delta_squared_zero"])
@example(FAILING_BV_CASES["d_delta_commute"])
@example(FAILING_BV_CASES["bracket_generated"])
@example(FAILING_BV_CASES["bracket_d"])
@example(FAILING_BV_CASES["bracket_delta"])
def test_sparse_bv_checks_match_the_dense_oracle(case):
    bv = bv_from_case(case)
    A = bv.algebra
    assert _outcome(validate_bv, bv) == _outcome(bv_oracle.validate_bv, bv)
    assert (_outcome(lambda *args: bracket_from_generator(*args).canonical,
                     A, bv.delta)
            == _outcome(bv_oracle.bracket_from_generator, A, bv.delta))
    for table, op in ((A.multiply, A.d), (A.bracket, A.d),
                      (A.bracket, bv.delta)):
        assert table.first_non_derivation(op) == bv_oracle.non_derivation(
            A, op, bracket=table is A.bracket)
