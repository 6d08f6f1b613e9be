"""Int numerators over one common denominator: the map and table kernels
and the checks built on them agree with the Fraction kernels kept in
fraction_oracle.py, and the checks do no Fraction arithmetic."""

import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

import fraction_oracle
from hptmaster import cli, instances
from hptmaster.complexes import ChainComplex, Contraction, build_contraction
from hptmaster.dgla import DgLieAlgebra, validate_dgla
from hptmaster.graded import GradedMap, GradedVectorSpace, StructureTable
from hptmaster.transfer import extend_contraction, transfer, verify_master
from test_linalg import FRACTION_ARITHMETIC

# mixed denominators, zeros twice as likely as any other value
NONZERO = [Fraction(c) for c in ("1", "-1", "2", "1/2", "-2/3", "5/6",
                                 "7/4", "-3/10", "9/8")]
COEFFS = [Fraction(0)] * 2 + NONZERO
# (degree, symmetric): dg Lie bracket, graded commutative product,
# Gerstenhaber bracket
TABLE_KINDS = [(0, False), (0, True), (-1, False)]


def _space(degrees):
    return GradedVectorSpace([("x%d" % i, d) for i, d in enumerate(degrees)])


def _pruned(vec, den=1):
    return {k: Fraction(c) / den for k, c in sorted(vec.items()) if c}


def assert_reduced(num, den):
    """num over den is the least common denominator form."""
    assert den > 0 and 0 not in num.values()
    assert gcd(den, *num.values()) == 1


def assert_reduced_columns(m):
    """The column store of m holds no empty column and no zero value, over
    the least common denominator."""
    assert all(m.columns.values())
    assert_reduced({(t, s): n for s, col in m.columns.items()
                    for t, n in col.items()}, m.den)


@st.composite
def spaces(draw):
    return _space(draw(st.lists(st.integers(-1, 2), min_size=1,
                                max_size=4)))


@st.composite
def maps(draw, source, target, degree):
    return GradedMap(source, target, degree, {
        (t, s): draw(st.sampled_from(COEFFS))
        for s in range(source.dim) for t in range(target.dim)
        if target.degrees[t] == source.degrees[s] + degree})


@st.composite
def vectors(draw, dim):
    vec = {i: draw(st.sampled_from(COEFFS)) for i in range(dim)}
    return {i: c for i, c in vec.items() if c}


@st.composite
def map_cases(draw):
    """g: U -> V, f and f2: V -> W, a vector over V and an int scale."""
    U, V, W = draw(spaces()), draw(spaces()), draw(spaces())
    a, b = draw(st.integers(-1, 1)), draw(st.integers(-1, 1))
    return (draw(maps(V, W, b)), draw(maps(V, W, b)), draw(maps(U, V, a)),
            draw(vectors(V.dim)), draw(st.sampled_from([1, -1, 2, -3])))


@settings(max_examples=200, deadline=None)
@given(map_cases())
def test_map_kernels_match_the_fraction_oracle(case):
    f, f2, g, vec, scale = case
    for m in (f, f2, g, f.compose(g), f + f2, f - f2,
              f.scale(Fraction(-3, 4)), -f):
        assert_reduced_columns(m)
        assert m.entries == {(t, s): Fraction(n, m.den)
                             for s, col in m.columns.items()
                             for t, n in col.items()}
        # the same map built from its Fraction view is equal
        assert GradedMap(m.source, m.target, m.degree, m.entries) == m
    assert f.compose(g).entries == fraction_oracle.compose(f, g)
    assert (f + f2).entries == fraction_oracle.add(f, f2)
    assert (f - f2) + f2 == f
    assert f.scale(Fraction(-3, 4)).entries == {
        k: c * Fraction(-3, 4) for k, c in f.entries.items()}
    want = fraction_oracle.add_image(f, {}, vec, scale)
    # add_image works in numerator units
    assert _pruned(f.add_image({}, vec, scale), f.den) == _pruned(want)
    assert f(vec) == _pruned(fraction_oracle.add_image(f, {}, vec))


@st.composite
def table_cases(draw):
    """A structure table with mixed denominators, an operator on its
    space, two vectors and a sign."""
    degree, symmetric = draw(st.sampled_from(TABLE_KINDS))
    space = draw(spaces())
    degs = space.degrees
    rows = {}
    for i in range(space.dim):
        for j in range(i, space.dim):
            # squares that the swap rule forces to vanish stay zero
            if i == j and ((degs[i] + degree) % 2 == 1) == symmetric:
                continue
            for k in range(space.dim):
                if degs[k] == degs[i] + degs[j] + degree:
                    c = draw(st.sampled_from(COEFFS))
                    if c:
                        rows.setdefault((i, j), {})[k] = c
    table = StructureTable(space, rows, degree, symmetric)
    op = draw(maps(space, space, draw(st.integers(-1, 1))))
    return (table, op, draw(vectors(space.dim)), draw(vectors(space.dim)),
            draw(st.sampled_from([1, -1])))


@settings(max_examples=200, deadline=None)
@given(table_cases())
def test_table_kernels_match_the_fraction_oracle(case):
    table, op, u, v, sign = case
    n = table.space.dim
    nums = {(i, j, k): c for i in range(n) for j in range(n)
            for k, c in table.numerators(i, j).items()}
    assert_reduced(nums, table.den)
    for i in range(n):
        for j in range(n):
            assert table.get(i, j) == {
                k: Fraction(c, table.den)
                for k, c in table.numerators(i, j).items()}
    # the table rebuilt from its int numerator rows, over den or over a
    # multiple of den, is reduced back to the same numerators
    for m in (1, 6):
        rebuilt = StructureTable(
            table.space, {key: {k: m * c for k, c in num.items()}
                          for key, num in table.numerator_rows().items()},
            table.degree, table.symmetric, den=m * table.den)
        assert (rebuilt.den, rebuilt.numerator_rows()) == (
            table.den, table.numerator_rows())
        assert rebuilt.canonical == table.canonical
    want = fraction_oracle.add_product(table, {}, u, v, sign)
    # add_product works in numerator units
    assert (_pruned(table.add_product({}, u, v, sign), table.den)
            == _pruned(want))
    assert table(u, v) == _pruned(fraction_oracle.add_product(table, {}, u,
                                                              v))
    assert (table.first_non_derivation(op)
            == fraction_oracle.first_non_derivation(table, op))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TABLE_KINDS), spaces(),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.integers(0, 3), st.integers(-4, 4)),
                max_size=10),
       st.sampled_from([1, 2, 6, 12]), st.sampled_from([1, 2, 3]))
def test_int_rows_over_a_den_build_the_fraction_rows_table(
        kind, space, entries, den, factor):
    # the same rows handed as int numerators over den and as Fractions,
    # in either index order and with repeated pairs; every numerator a
    # multiple of factor, so den and the numerators may share a factor
    degree, symmetric = kind
    degs = space.degrees
    n = space.dim
    rows = []
    for i, j, k, c in entries:
        i, j, k = i % n, j % n, k % n
        if (degs[k] == degs[i] + degs[j] + degree
                and not (i == j and ((degs[i] + degree) % 2 == 1)
                         == symmetric)):
            rows.append(((i, j), {k: factor * c}))
    ints = StructureTable(space, rows, degree, symmetric, den=den)
    fractions = StructureTable(
        space, [(ij, {k: Fraction(c, den) for k, c in val.items()})
                for ij, val in rows], degree, symmetric)
    assert (ints.rows, ints.den, ints.partners) == (
        fractions.rows, fractions.den, fractions.partners)
    assert_reduced({(i, j, k): c for i, row in enumerate(ints.rows)
                    for j, val in row.items() for k, c in val.items()},
                   ints.den)


def corrupted_dgla(g, rng):
    """g with one structure constant of the bracket changed, or one entry
    of the differential changed (kept only when d d = 0 still holds)."""
    space = g.space
    degs = space.degrees
    rows = {key: dict(val) for key, val in g.bracket_table.items()}
    d_ent = dict(g.d.entries)
    slots = [(i, j, k) for i in range(space.dim) for j in range(i, space.dim)
             for k in range(space.dim)
             if degs[k] == degs[i] + degs[j] and (i != j or degs[i] % 2)]
    d_slots = [(t, s) for s in range(space.dim) for t in range(space.dim)
               if degs[t] == degs[s] - 1]
    c = rng.choice(NONZERO)
    if d_slots and (not slots or rng.random() < 0.3):
        key = rng.choice(d_slots)
        d_ent[key] = d_ent.get(key, 0) + c
    elif slots:
        i, j, k = rng.choice(slots)
        val = rows.setdefault((i, j), {})
        val[k] = val.get(k, 0) + c
    try:
        cx = ChainComplex(space, GradedMap(space, space, -1, d_ent))
    except ValueError:
        return None
    return DgLieAlgebra(cx, rows)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 199), st.integers(0, 10 ** 6), st.booleans())
def test_validate_dgla_matches_the_fraction_oracle(seed, corruption, clean):
    g = instances.random_dgla(seed)
    if not clean:
        g = corrupted_dgla(g, random.Random(corruption))
        assume(g is not None)
    assert validate_dgla(g) == fraction_oracle.validate_dgla(g)


def direct_sum(algebras):
    """The block direct sum of dg Lie algebras, labels prefixed by copy."""
    basis, d_ent, rows, offset = [], {}, [], 0
    for n, g in enumerate(algebras):
        basis += [("c%d_%s" % (n, lab), deg) for lab, deg in g.space.basis]
        d_ent.update(((t + offset, s + offset), c)
                     for (t, s), c in g.d.entries.items())
        rows += [((i + offset, j + offset),
                  {k + offset: c for k, c in val.items()})
                 for (i, j), val in g.bracket_table.items()]
        offset += g.space.dim
    space = GradedVectorSpace(basis)
    return DgLieAlgebra(
        ChainComplex(space, GradedMap(space, space, -1, d_ent)), rows)


def dense_l3_squared(seed=7):
    """change_basis of the sum of two copies of the nonzero-l3 dgLa."""
    l3 = instances.nonzero_l3_dgla()
    return instances.change_basis(direct_sum([l3, l3]), random.Random(seed))


@pytest.mark.parametrize("corruption", [None, 0, 1, 2, 3])
def test_validate_dense_l3_squared_matches_the_fraction_oracle(corruption):
    g = dense_l3_squared()
    if corruption is not None:
        g = corrupted_dgla(g, random.Random(corruption))
    report = validate_dgla(g)
    assert report == fraction_oracle.validate_dgla(g)
    assert report["passed"] == (corruption is None)


def corrupted(f, rng):
    """f with one homogeneous entry changed."""
    slots = [(t, s) for s in range(f.source.dim) for t in range(f.target.dim)
             if f.target.degrees[t] == f.source.degrees[s] + f.degree]
    if not slots:
        return f
    ent = dict(f.entries)
    key = rng.choice(slots)
    ent[key] = ent.get(key, 0) + rng.choice(NONZERO)
    return GradedMap(f.source, f.target, f.degree, ent)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_contraction_identities_match_the_fraction_oracle(corpus, data):
    _, _, con, result = data.draw(st.sampled_from(corpus))
    # the perturbed contraction has a small differential with
    # denominators
    kind = data.draw(st.sampled_from(["complex", "lift", "extended"]))
    if kind != "complex":
        con = getattr(result, kind)
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    parts = [con.nabla, con.pi, con.h]
    which = data.draw(st.sampled_from([None, 0, 1, 2]))
    if which is not None:
        parts[which] = corrupted(parts[which], rng)
    con = Contraction(con.big, con.small, *parts, check=False)
    assert con.identity_failures() == fraction_oracle.identity_failures(con)


# -- no Fraction arithmetic in the checks ------------------------------------

def count_fraction_arithmetic(monkeypatch):
    """Counters of Fraction multiplications and additions, from now on."""
    counts = {"*": 0, "+": 0}
    for name, op in (("__mul__", "*"), ("__rmul__", "*"),
                     ("__add__", "+"), ("__radd__", "+")):
        def counting(a, b, original=getattr(Fraction, name), op=op):
            counts[op] += 1
            return original(a, b)
        monkeypatch.setattr(Fraction, name, counting)
    return counts


def test_the_counters_see_fraction_arithmetic(monkeypatch):
    counts = count_fraction_arithmetic(monkeypatch)
    assert Fraction(1, 2) * 3 + 1 == Fraction(5, 2)
    assert 3 * Fraction(1, 2) == 1 + Fraction(1, 2)
    assert counts == {"*": 2, "+": 2}


def test_validate_dgla_does_no_fraction_arithmetic(monkeypatch):
    g = dense_l3_squared()
    counts = count_fraction_arithmetic(monkeypatch)
    assert validate_dgla(g)["passed"]
    assert counts == {"*": 0, "+": 0}
    # the Fraction kernels, for contrast, do plenty on the same input
    assert fraction_oracle.validate_dgla(g)["passed"]
    assert counts["*"] > 1000


@pytest.mark.parametrize("kind", ["lift", "extended"])
def test_contraction_identities_do_no_fraction_arithmetic(monkeypatch,
                                                          corpus, kind):
    # the lift of seed 0's contraction, whose h carries the weights of the
    # symmetrised homotopy, and its perturbed contraction, whose small
    # differential has denominators too
    con = getattr(corpus[0][3], kind)
    assert con.h.den > 1 and (kind == "lift" or con.small.d.den > 1)
    fresh = Contraction(con.big, con.small, con.nabla, con.pi, con.h,
                        check=False)
    counts = count_fraction_arithmetic(monkeypatch)
    assert fresh.identity_failures() == []
    assert counts == {"*": 0, "+": 0}
    assert fraction_oracle.identity_failures(fresh) == []
    assert counts["*"] > 100


def test_the_pipeline_builds_no_fraction_pair_view(monkeypatch, corpus):
    # transfer, verify_master and extend_contraction read the column store;
    # with the Fraction views of a map refused (the (target, source)
    # entries, the columns and the image of one basis vector) they reach
    # the same transfer, report and perturbed contraction
    def outcome(result, extended):
        return (result.coalg.perturbation, result.tau.hom,
                verify_master(result), extended.big, extended.small,
                [extended.nabla, extended.pi, extended.h])

    _, g, _, result = corpus[1]
    want = outcome(result, result.extended)

    def refused(name):
        def read(*args):
            raise AssertionError("GradedMap.%s read" % name)
        return read

    monkeypatch.setattr(GradedMap, "entries", property(refused("entries")))
    for name in ("by_column", "apply_basis"):
        monkeypatch.setattr(GradedMap, name, refused(name))
    fresh = transfer(g, build_contraction(g.complex), result.truncation)
    assert outcome(fresh, extend_contraction(fresh)) == want
    assert want[2]["passed"] and not result.coalg.perturbation.is_zero()


def test_negation_and_difference_build_no_fraction(monkeypatch):
    # -m keeps m's den, m - g adds g with a negative factor, and an int
    # scale needs no Fraction: none of them builds one
    space = _space([0, 0, 1])
    m = GradedMap(space, space, 0, {(0, 0): Fraction(1, 2), (1, 0): 3,
                                    (2, 2): Fraction(-2, 3)})
    g = GradedMap(space, space, 0, {(0, 0): Fraction(5, 4), (0, 1): 1})
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", counting)
        neg, diff, scaled = -m, m - g, m.scale(-3)
    assert built == []
    assert (neg.den, neg.columns[0]) == (m.den, {0: -3, 1: -18})
    assert neg.entries == {k: -c for k, c in m.entries.items()}
    assert diff.entries == fraction_oracle.add(m, GradedMap(
        space, space, 0, {k: -c for k, c in g.entries.items()}))
    assert scaled.entries == {k: -3 * c for k, c in m.entries.items()}


def problem_file(path, g):
    """g as a homological problem file, its coefficients written p/q."""
    labels = g.space.labels
    frac = cli.frac_str
    path.write_text(json.dumps({
        "basis": [[lab, deg] for lab, deg in g.space.basis],
        "differential": [[labels[s], labels[t], frac(c)]
                         for (t, s), c in sorted(g.d.entries.items())],
        "bracket": [[labels[i], labels[j], labels[k], frac(c)]
                    for (i, j), val in sorted(g.bracket_table.items())
                    for k, c in sorted(val.items())]}))
    return str(path)


def test_cli_runs_do_no_fraction_arithmetic(monkeypatch, tmp_path, capsys):
    # two corpus problems and the dense change_basis(l3^2), all with p/q
    # coefficients: with every Fraction operator but negation refused,
    # validate and transfer --check reach the bytes of the unpatched runs
    files = [problem_file(tmp_path / ("%s.json" % name), g)
             for name, g in (("seed0", instances.random_dgla(0)),
                             ("seed5", instances.random_dgla(5)),
                             ("dense", dense_l3_squared()))]
    for path in files:
        with open(path) as fh:
            assert "/" in fh.read()
    argvs = [argv + [path] for path in files
             for argv in (["validate"],
                          ["transfer", "--check", "--max-word-length", "4"])]

    def runs():
        out = []
        for argv in argvs:
            code = cli.main(argv)
            out.append((code, capsys.readouterr().out))
        return out

    want = runs()
    assert [code for code, _ in want] == [0] * len(argvs)

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in a CLI run")

    with monkeypatch.context() as patch:
        for name in FRACTION_ARITHMETIC:
            if name != "__neg__":
                patch.setattr(Fraction, name, refuse)
        assert runs() == want
    # the Fraction oracles, for contrast, do plenty on the same input
    _, g, _ = cli.load_problem(files[2])
    counts = count_fraction_arithmetic(monkeypatch)
    assert fraction_oracle.validate_dgla(g)["passed"]
    assert counts["*"] > 1000
