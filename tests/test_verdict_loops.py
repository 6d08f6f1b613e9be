"""The verdict loops of StructureTable (the Leibniz rule, Jacobi and
associativity) against the loops they replaced (tests/verdict_oracle.py)
and the dense Leibniz check (tests/bv_oracle.py), on sparse tables whose
pruning matters, and count guards: their work follows the nonzeros of d
rather than dim^2, and they skip the cases their swap rule decides."""

import inspect
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import event, given, settings, strategies as st

import bv_oracle
import lie_instances
import verdict_oracle
from conftest import kahler_bv
from hptmaster import graded, instances
from hptmaster.complexes import ChainComplex
from hptmaster.dgla import DgLieAlgebra, validate_dgla
from hptmaster.graded import GradedMap, GradedVectorSpace, StructureTable
from test_int_kernels import direct_sum

NONZERO = [Fraction(c) for c in ("1", "-1", "2", "1/2", "-2/3", "3")]
# (degree, symmetric): dg Lie bracket, graded commutative product,
# Gerstenhaber bracket
TABLE_KINDS = [(0, False), (0, True), (-1, False)]


# genuine dgLas; odd_squares brackets odd letters with themselves
LIE_SOURCES = ([lie_instances.sl2(), instances.nonzero_l3_dgla(),
                lie_instances.lie_tensor_dgla(),
                lie_instances.commuting_lifts_dgla(),
                lie_instances.odd_squares()]
               + [instances.random_dgla(seed) for seed in range(12)])


def _valid_sources():
    """(table, op) pairs of genuine dgLas and BV algebras: each op derives
    its table, and each dgLa bracket satisfies Jacobi."""
    out = [(g.bracket, g.d) for g in LIE_SOURCES]
    bv = kahler_bv()
    out += [(bv.multiply, bv.d), (bv.bracket, bv.d), (bv.bracket, bv.delta)]
    return out


VALID = _valid_sources()


def _square_vanishes(degs, degree, symmetric, i):
    return ((degs[i] + degree) % 2 == 1) == symmetric


def _slots(degs, degree, symmetric, op_degree):
    """The table slots ((i, j), k), i <= j, and the operator slots (t, s)
    that may hold a nonzero value."""
    n = len(degs)
    table = [((i, j), k) for i in range(n) for j in range(i, n)
             if not (i == j and _square_vanishes(degs, degree, symmetric, i))
             for k in range(n) if degs[k] == degs[i] + degs[j] + degree]
    op = [(t, s) for s in range(n) for t in range(n)
          if degs[t] == degs[s] + op_degree]
    return table, op


def _corrupt(rows, op_ent, degs, degree, symmetric, op_degree, rng):
    """One table slot or one operator slot changed by a nonzero value; or,
    drawn as often, a change that tends to put the first failure on a
    repeated index or on a pair the loops reach only through its mirror:
    the square of a letter whose square may be nonzero (an odd letter of a
    bracket), several entries of one operator column, or one product
    beside a unit (an index whose row multiplies every partner by 1)."""
    table, op_slots = _slots(degs, degree, symmetric, op_degree)
    kind = rng.choice(["any", "square", "column", "unit"])
    if kind == "column" and op_slots:
        s = rng.choice(op_slots)[1]
        column = [key for key in op_slots if key[1] == s]
        for key in rng.sample(column, rng.randint(1, len(column))):
            op_ent[key] = op_ent.get(key, 0) + rng.choice(NONZERO)
        return
    if kind == "square":
        table = [slot for slot in table if slot[0][0] == slot[0][1]]
    elif kind == "unit":
        units = {u for u in range(len(degs))
                 if any(u in ij for ij in rows)
                 and all(val == {ij[0] + ij[1] - u: 1}
                         for ij, val in rows.items() if u in ij)}
        table = [slot for slot in table if units & set(slot[0])]
    slots = [("table",) + slot for slot in table]
    if kind == "any":
        slots += [("op", key, None) for key in op_slots]
    if not slots:
        return
    where, key, k = rng.choice(slots)
    c = rng.choice(NONZERO)
    if where == "table":
        val = rows.setdefault(key, {})
        val[k] = val.get(k, 0) + c
    else:
        op_ent[key] = op_ent.get(key, 0) + c


@st.composite
def sparse_cases(draw):
    """A structure table and an operator on a space of at most 16 basis
    vectors, most of whose rows and columns are empty: either drawn at
    random with few nonzero slots, or a genuine dgLa or BV algebra padded
    with basis vectors that multiply to zero (the operator adds a few
    entries among them) and moved to random positions; each with or
    without one corrupted entry."""
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        table, op = draw(st.sampled_from(VALID))
        degree, symmetric, op_degree = (table.degree, table.symmetric,
                                        op.degree)
        old = table.space.degrees
        extra = [rng.randint(-2, 3) for _ in range(rng.randint(0, 16 -
                                                               len(old)))]
        perm = list(range(len(old) + len(extra)))
        rng.shuffle(perm)
        degs = [0] * len(perm)
        for a, deg in enumerate(old + extra):
            degs[perm[a]] = deg
        rows = {(perm[i], perm[j]): {perm[k]: c for k, c in val.items()}
                for (i, j), val in table.canonical.items()}
        op_ent = {(perm[t], perm[s]): c for (t, s), c in op.entries.items()}
        pad = perm[len(old):]
        for s in pad:
            for t in pad:
                if degs[t] == degs[s] + op_degree and rng.random() < 0.3:
                    op_ent[(t, s)] = rng.choice(NONZERO)
    else:
        degree, symmetric = draw(st.sampled_from(TABLE_KINDS))
        op_degree = draw(st.sampled_from([-1, 0, 1]))
        degs = [rng.randint(-2, 2) for _ in range(rng.randint(1, 16))]
        n, density = len(degs), rng.choice([0.02, 0.08, 0.25])
        rows, op_ent = {}, {}
        for i in range(n):
            for j in range(i, n):
                if i == j and _square_vanishes(degs, degree, symmetric, i):
                    continue
                for k in range(n):
                    if (degs[k] == degs[i] + degs[j] + degree
                            and rng.random() < density):
                        rows.setdefault((i, j), {})[k] = rng.choice(NONZERO)
        for s in range(n):
            for t in range(n):
                if (degs[t] == degs[s] + op_degree
                        and rng.random() < density):
                    op_ent[(t, s)] = rng.choice(NONZERO)
    if draw(st.booleans()):
        _corrupt(rows, op_ent, degs, degree, symmetric, op_degree, rng)
    space = GradedVectorSpace([("x%d" % i, d) for i, d in enumerate(degs)])
    return (StructureTable(space, rows, degree, symmetric),
            GradedMap(space, space, op_degree, op_ent))


@settings(max_examples=300, deadline=None)
@given(sparse_cases())
def test_verdict_loops_match_the_oracles_on_sparse_tables(case):
    table, op = case
    leibniz = table.first_non_derivation(op)
    assert leibniz == verdict_oracle.first_non_derivation(table, op)
    jacobi = table.first_non_jacobi()
    assert jacobi == verdict_oracle.first_non_jacobi(table)
    assoc = table.first_non_associative()
    assert assoc == verdict_oracle.first_non_associative(table)
    # how often a witness sits where the swap rule could have skipped
    for name, witness in (("Leibniz", leibniz), ("Jacobi", jacobi),
                          ("associativity", assoc)):
        event("%s witness %s" % (name, "none" if witness is None
                                 else "on a repeated index"
                                 if len(set(witness)) < len(witness)
                                 else "on distinct indices"))
    if op.degree % 2 and table.space.dim <= 10:
        # the dense check evaluates every pair; its rule for an odd op is
        # the product's for degree 0 and the bracket's for degree -1
        A = SimpleNamespace(space=table.space, multiply=table, bracket=table)
        assert leibniz == bv_oracle.non_derivation(
            A, op, bracket=table.degree % 2 == 1)


def test_every_one_entry_corruption_of_a_valid_source_matches_the_oracles():
    # 734 tables and operators; the first failure sits on a repeated index
    # for 38 Leibniz and 63 Jacobi witnesses
    repeated = {"Leibniz": 0, "Jacobi": 0}
    for table, op in VALID:
        degs = table.space.degrees
        table_slots, op_slots = _slots(degs, table.degree, table.symmetric,
                                       op.degree)
        for where, (key, k) in ([("table", slot) for slot in table_slots]
                                + [("op", (key, None)) for key in op_slots]):
            rows = {ij: dict(val) for ij, val in table.canonical.items()}
            op_ent = dict(op.entries)
            if where == "table":
                val = rows.setdefault(key, {})
                val[k] = val.get(k, 0) + 1
            else:
                op_ent[key] = op_ent.get(key, 0) + 1
            bad = StructureTable(table.space, rows, table.degree,
                                 table.symmetric)
            bad_op = GradedMap(op.source, op.target, op.degree, op_ent)
            for name, got, want in (
                    ("Leibniz", bad.first_non_derivation(bad_op),
                     verdict_oracle.first_non_derivation(bad, bad_op)),
                    ("Jacobi", bad.first_non_jacobi(),
                     verdict_oracle.first_non_jacobi(bad)),
                    ("associativity", bad.first_non_associative(),
                     verdict_oracle.first_non_associative(bad))):
                assert got == want, (name, where, key, k)
                if name in repeated and got and len(set(got)) < len(got):
                    repeated[name] += 1
    # the cases the swap rule leaves on the diagonal are reached
    assert repeated["Leibniz"] and repeated["Jacobi"]


def test_valid_sources_pass_their_checks():
    for table, op in VALID:
        assert table.first_non_derivation(op) is None
        if not table.symmetric and table.degree == 0:
            assert table.first_non_jacobi() is None
        if table.symmetric:
            assert table.first_non_associative() is None


# -- Jacobi on packed ints ---------------------------------------------------

BIG = 2 ** 80


@st.composite
def large_dense_tables(draw):
    """A dense degree-0 bracket with numerators of 80 bits or more: a genuine
    dgLa's bracket after a random basis change (small or large
    denominators), times a drawn int up to 2^80, or every slot of a random
    degree pattern filled with an int up to 2^80; with or without one slot
    changed by such an int."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    big = st.builds(int.__mul__, st.integers(1, BIG), st.sampled_from([1, -1]))
    if draw(st.booleans()):
        g = instances.change_basis(draw(st.sampled_from(LIE_SOURCES)), rng,
                                   draw(st.sampled_from([(1, 1, 2, 3),
                                                         (1, 97, 101, 103)])))
        scale = draw(big)
        degs = g.space.degrees
        rows = {ij: {k: scale * n for k, n in num.items()}
                for ij, num in g.bracket.numerator_rows().items()}
    else:
        degs = [rng.randint(-1, 2) for _ in range(rng.randint(1, 8))]
        rows = {}
        for ij, k in _slots(degs, 0, False, 0)[0]:
            rows.setdefault(ij, {})[k] = rng.randint(-BIG, BIG)
    slots = _slots(degs, 0, False, 0)[0]
    if slots and draw(st.booleans()):
        ij, k = rng.choice(slots)
        val = rows.setdefault(ij, {})
        val[k] = val.get(k, 0) + draw(big)
    space = GradedVectorSpace([("x%d" % i, d) for i, d in enumerate(degs)])
    return StructureTable(space, rows)


@settings(max_examples=200, deadline=None)
@given(large_dense_tables())
def test_packed_jacobi_matches_the_oracle_on_large_dense_tables(table):
    witness = table.first_non_jacobi()
    assert witness == verdict_oracle.first_non_jacobi(table)
    event("witness %s" % ("none" if witness is None else "found"))


def test_packed_jacobi_slots_are_just_wide_enough():
    # J(x, y, z) = -2 M^2 b + a on one table with L = 1: its packed slots
    # have w = bit_length(3 M^2) bits, and 2 M^2 = 2^(w - 1), so a slot one
    # bit narrower reads -2^(w - 1) at b and 1 at the next slot a as zero
    M = 2 ** 40
    space = GradedVectorSpace([(lab, 0) for lab in "xyzuvsba"])
    x, y, z, u, v, s, b, a = range(8)
    table = StructureTable(space, {
        (y, z): {u: M}, (x, u): {b: -M}, (x, y): {v: M}, (v, z): {b: M},
        (x, z): {s: 1}, (y, s): {a: -1}})
    jacobiator = table.add_product({}, {x: 1}, table.numerators(y, z))
    table.add_product(jacobiator, table.numerators(x, y), {z: 1}, -1)
    table.add_product(jacobiator, {y: 1}, table.numerators(x, z), -1)
    width = (3 * M * M).bit_length()
    assert {t: c for t, c in jacobiator.items() if c} == {
        b: -2 ** (width - 1), a: 1}
    # every basis vector has degree 0, so its slot is its index
    assert sum(c << ((width - 1) * t) for t, c in jacobiator.items()) == 0
    assert table.first_non_jacobi() == (x, y, z)
    assert verdict_oracle.first_non_jacobi(table) == (x, y, z)


# -- the count guard ---------------------------------------------------------

def conjugated_standard_complex(scale, seed=1):
    """A bracket-free dgLa of dim 10 scale + 6: the standard complex
    y1_k -> x0_k (k < 3 scale) and y2_k -> x1_k (k < 2 scale) with 3, 2
    and 1 classes in degrees 0, 1 and 2, conjugated by one elementary
    basis change e_j -> e_j + c e_i per basis vector j (i in the degree
    of j, c in +-1, +-2).  CI's step "Verdict loops at dimension 3,000"
    validates it at scale 300."""
    r1, r2, hom = 3 * scale, 2 * scale, (3, 2, 1)
    basis = ([("x0_%d" % k, 0) for k in range(r1)]
             + [("z0_%d" % k, 0) for k in range(hom[0])]
             + [("y1_%d" % k, 1) for k in range(r1)]
             + [("x1_%d" % k, 1) for k in range(r2)]
             + [("z1_%d" % k, 1) for k in range(hom[1])]
             + [("y2_%d" % k, 2) for k in range(r2)]
             + [("z2_%d" % k, 2) for k in range(hom[2])])
    space = GradedVectorSpace(basis)
    at = space.index
    cols = {s: {} for s in range(space.dim)}
    row_support = {t: set() for t in range(space.dim)}

    def add(t, s, c):
        cols[s][t] = cols[s].get(t, 0) + c
        row_support[t].add(s)

    for k in range(r1):
        add(at["x0_%d" % k], at["y1_%d" % k], 1)
    for k in range(r2):
        add(at["x1_%d" % k], at["y2_%d" % k], 1)
    rng = random.Random(seed)
    by_degree = {n: space.indices_in_degree(n) for n in range(3)}
    for j in range(space.dim):
        i = rng.choice([i for i in by_degree[space.degrees[j]] if i != j])
        c = rng.choice([-2, -1, 1, 2])
        # column j gains c times column i, then row i loses c times row j
        for t, x in list(cols[i].items()):
            add(t, j, c * x)
        for s in list(row_support[j]):
            add(i, s, -c * cols[s][j])
    d = GradedMap.from_columns(space, space, -1, cols)
    return DgLieAlgebra(ChainComplex(space, d), ())


class OverBudget(Exception):
    pass


def graded_line_events(f, budget):
    """(the number of lines f executes inside hptmaster/graded.py, f());
    raises OverBudget once the number exceeds budget."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
            if count > budget:
                raise OverBudget(count)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename == graded.__file__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        result = f()
    finally:
        sys.settrace(previous)
    return count, result


def test_validate_work_follows_the_nonzeros_of_d():
    # dims 206 and 1,606; evaluating every pair at an i where d e_i != 0
    # would take 2 * 10^4 and 1.3 * 10^6 pairs of several lines each
    counts, sizes = [], []
    for scale in (20, 160):
        g = conjugated_standard_complex(scale)
        size = g.space.dim + len(g.d.entries)
        try:
            count, report = graded_line_events(lambda: validate_dgla(g),
                                               budget=20 * size)
        except OverBudget as exc:
            pytest.fail("validate_dgla ran over %d lines of graded.py at dim "
                        "%d with %d nonzeros in d" % (exc.args[0], g.space.dim,
                                                      len(g.d.entries)))
        assert report["passed"]
        counts.append(count)
        sizes.append(size)
    # linear in dim + nnz(d): eight times the size, not 64 times the work
    assert counts[1] <= 1.25 * counts[0] * sizes[1] / sizes[0]


def evaluated_cases(f, names):
    """(f(), the cases its verdict loop evaluates, in order): each
    evaluated pair or triple calls graded._add_right once, and the loop's
    indices, its locals of the given names, are read at that call."""
    cases = []
    add_right = graded._add_right

    def counting(*args):
        loop = sys._getframe(1).f_locals
        cases.append(tuple(loop[name] for name in names))
        return add_right(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graded, "_add_right", counting)
        return f(), cases


def jacobi_evaluated_triples(table):
    """(table.first_non_jacobi(), the triples it evaluates, in order): the
    loop evaluates a triple's packed Jacobiator from the line `bad = 0`
    on, which runs once per triple, and its indices i, j, k are read
    there."""
    method = StructureTable.first_non_jacobi
    lines, start = inspect.getsourcelines(method)
    marks = [start + n for n, line in enumerate(lines)
             if line.strip() == "bad = 0"]
    assert len(marks) == 1, marks
    cases = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == marks[0]:
            loop = frame.f_locals
            cases.append((loop["i"], loop["j"], loop["k"]))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is method.__code__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        return table.first_non_jacobi(), cases
    finally:
        sys.settrace(previous)


def test_verdict_loops_skip_the_cases_their_swap_rule_decides():
    l3 = instances.nonzero_l3_dgla()
    g = instances.change_basis(direct_sum([l3, l3]), random.Random(1))
    table, degs = g.bracket, g.space.degrees
    verdict, pairs = evaluated_cases(
        lambda: table.first_non_derivation(g.d), "ij")
    assert verdict is None and len(set(pairs)) == len(pairs)
    # L(j, i) = sign(i, j) L(i, j): no j < i, no (i, i) with sign -1
    assert all(i < j or (i == j and table._swap_sign(i, i) > 0)
               for i, j in pairs)
    verdict, triples = jacobi_evaluated_triples(table)
    assert verdict is None and len(set(triples)) == len(triples)
    # J(x, x, z) = J(x, y, y) = 0 for even x, y
    assert all(i <= j <= k for i, j, k in triples)
    assert not any((i == j and degs[i] % 2 == 0)
                   or (j == k and degs[j] % 2 == 0) for i, j, k in triples)
    product = kahler_bv().multiply
    verdict, assoc = evaluated_cases(product.first_non_associative, "ijk")
    assert verdict is None and len(set(assoc)) == len(assoc)
    # a(z, y, x) = -(-1)^{|x||y|+|y||z|+|z||x|} a(x, y, z)
    assert all(i < k or (i == k and product.space.degrees[i] % 2)
               for i, _, k in assoc)
    # the loops without the swap rule evaluated 136, 332 and 149
    assert (len(pairs), len(triples), len(assoc)) == (70, 246, 71)
