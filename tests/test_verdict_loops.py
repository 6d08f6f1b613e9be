"""The verdict loops of StructureTable (the Leibniz rule, Jacobi and
associativity) against the loops they replaced (tests/verdict_oracle.py)
and the dense Leibniz check (tests/bv_oracle.py), on sparse tables whose
pruning matters, and a count guard that their work follows the nonzeros
of d rather than dim^2."""

import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import bv_oracle
import lie_instances
import verdict_oracle
from conftest import kahler_bv
from hptmaster import graded, instances
from hptmaster.complexes import ChainComplex
from hptmaster.dgla import DgLieAlgebra, validate_dgla
from hptmaster.graded import GradedMap, GradedVectorSpace, StructureTable

NONZERO = [Fraction(c) for c in ("1", "-1", "2", "1/2", "-2/3", "3")]
# (degree, symmetric): dg Lie bracket, graded commutative product,
# Gerstenhaber bracket
TABLE_KINDS = [(0, False), (0, True), (-1, False)]


def _valid_sources():
    """(table, op) pairs of genuine dgLas and BV algebras: each op derives
    its table, and each dgLa bracket satisfies Jacobi."""
    out = []
    for g in ([lie_instances.sl2(), instances.nonzero_l3_dgla(),
               lie_instances.lie_tensor_dgla(), lie_instances.commuting_lifts_dgla()]
              + [instances.random_dgla(seed) for seed in range(12)]):
        out.append((g.bracket, g.d))
    bv = kahler_bv()
    A = bv.algebra
    out += [(A.multiply, A.d), (A.bracket, A.d), (A.bracket, bv.delta)]
    return out


VALID = _valid_sources()


def _square_vanishes(degs, degree, symmetric, i):
    return ((degs[i] + degree) % 2 == 1) == symmetric


def _corrupt(rows, op_ent, degs, degree, symmetric, op_degree, rng):
    """One table slot or one operator slot changed by a nonzero value."""
    n = len(degs)
    slots = [("table", (i, j), k) for i in range(n) for j in range(i, n)
             if not (i == j and _square_vanishes(degs, degree, symmetric, i))
             for k in range(n) if degs[k] == degs[i] + degs[j] + degree]
    slots += [("op", (t, s), None) for s in range(n) for t in range(n)
              if degs[t] == degs[s] + op_degree]
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
    assert table.first_non_jacobi() == verdict_oracle.first_non_jacobi(table)
    assert (table.first_non_associative()
            == verdict_oracle.first_non_associative(table))
    if op.degree % 2 and table.space.dim <= 10:
        # the dense check evaluates every pair; its rule for an odd op is
        # the product's for degree 0 and the bracket's for degree -1
        A = SimpleNamespace(space=table.space, multiply=table, bracket=table)
        assert leibniz == bv_oracle.non_derivation(
            A, op, bracket=table.degree % 2 == 1)


def test_valid_sources_pass_their_checks():
    for table, op in VALID:
        assert table.first_non_derivation(op) is None
        if not table.symmetric and table.degree == 0:
            assert table.first_non_jacobi() is None
        if table.symmetric:
            assert table.first_non_associative() is None


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
