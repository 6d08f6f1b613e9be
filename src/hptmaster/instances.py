"""Deterministic example builders and the randomized test corpus.

The engineered instance was designed by hand around the transfer
machinery: a dg Lie algebra whose transferred structure has a nonzero
ternary bracket.  Randomized dg Lie algebras come from structured families
composed with random degreewise basis changes, so denominators and dense
constants appear while exactness is preserved.
"""

import random
from math import lcm

from . import linalg
from .complexes import ChainComplex
from .dgla import DgLieAlgebra
from .graded import GradedMap, GradedVectorSpace, ONE


def abelian_dgla(degrees=(0, 1)):
    space = GradedVectorSpace(
        [("a%d" % i, d) for i, d in enumerate(degrees)])
    return DgLieAlgebra(ChainComplex(space), {})


# three-dimensional Lie algebras on the basis e, f, h
_LIE3 = {
    "sl2": {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}},
    "b2x": {(0, 1): {1: 1}},
    "heis": {(0, 1): {2: 1}},
}


def _lie3(kind):
    space = GradedVectorSpace([("e", 0), ("f", 0), ("h", 0)])
    return DgLieAlgebra(ChainComplex(space), _LIE3[kind])


def nonzero_l3_dgla():
    """Six-dimensional dg Lie algebra with l_2 = 0 but l_3 != 0 on homology.

    Basis x, y, w, v in degree 0 and u, z in degree 1 with d(u) = v and the
    brackets [x, y] = v, [w, u] = z.  The recursion gives
    tau^2(sx sy) = -(1/2) h([x,y] + [y,x]-term) = u-valued, and
    lambda_3(sw sx sy) picks up pi([w, tau^2]) = a nonzero multiple of the
    degree-1 class of z.
    """
    space = GradedVectorSpace(
        [("x", 0), ("y", 0), ("w", 0), ("v", 0), ("u", 1), ("z", 1)])
    d = GradedMap(space, space, -1, {(3, 4): ONE})
    table = {(0, 1): {3: ONE}, (2, 4): {5: ONE}}
    return DgLieAlgebra(ChainComplex(space, d), table)


# -- randomized corpus -------------------------------------------------------

def random_dgla(seed):
    """A random valid dg Lie algebra of total dimension <= 6.

    Families: abelian with a random two-layer differential, the
    three-dimensional Lie algebras of _LIE3 in degree zero, the engineered
    ternary-bracket instance, and a Heisenberg algebra in a shifted degree
    plus an acyclic abelian pair; each is composed with a random
    degreewise basis change so that nontrivial rational constants appear.
    Deterministic per seed.
    """
    rng = random.Random(seed)
    return change_basis(_random_family(rng), rng)


def _random_family(rng):
    """The dg Lie algebra of random_dgla before its basis change."""
    family = rng.randrange(4)
    if family == 0:
        return _random_two_layer(rng)
    if family == 1:
        return _lie3(rng.choice(sorted(_LIE3)))
    if family == 2:
        return nonzero_l3_dgla()
    # heisenberg in a shifted degree plus an acyclic abelian pair
    shift = rng.choice([-1, 0, 1])
    space = GradedVectorSpace(
        [("e", 2 * shift), ("f", -2 * shift), ("h", 0),
         ("u", shift + 1), ("v", shift)])
    d = GradedMap(space, space, -1, {(4, 3): ONE})
    return DgLieAlgebra(ChainComplex(space, d), {(0, 1): {2: ONE}})


def _random_two_layer(rng):
    dim = rng.randrange(2, 7)
    degrees = sorted(rng.choice(range(-2, 4)) for _ in range(dim))
    space = GradedVectorSpace(
        [("a%d" % i, d) for i, d in enumerate(degrees)])
    # split indices into sources and sinks so that d o d = 0 by shape
    sources = [i for i in range(dim) if rng.random() < 0.5]
    cols = {s: {} for s in sources}
    for s in sources:
        for t in range(dim):
            if t in sources or space.degrees[t] != space.degrees[s] - 1:
                continue
            cols[s][t] = rng.randrange(-2, 3)
    return DgLieAlgebra(ChainComplex(
        space, GradedMap.from_columns(space, space, -1, cols)), {})


def change_basis(g, rng, denominator_pool=(1, 1, 2, 3)):
    """Conjugate a dg Lie algebra by a random degreewise basis change S.

    Each degree block of S is drawn as int numerators over the lcm L of
    the pool until every unit vector has a solution over its columns, one
    solve that is both the rank test and the inverse: a block takes one
    elimination and the whole space none.  Conjugating by L S instead of S
    gives the same differential and L times each bracket, and the blocks'
    inverses share the lcm of their dens, so no entry needs a Fraction.
    """
    space = g.space
    dim = space.dim
    L = lcm(*denominator_pool)
    # L S, and (L S)^{-1} block by block
    ls_cols, blocks = {}, []
    for deg in sorted(set(space.degrees)):
        idx = space.indices_in_degree(deg)
        n = len(idx)
        units = [{a: 1} for a in range(n)]
        while True:
            # the rows of the block are drawn, a zero row made e_a
            cols = [{} for _ in range(n)]
            for a in range(n):
                row = {}
                for b in range(n):
                    c = rng.randrange(-2, 3)
                    c *= L // rng.choice(denominator_pool)
                    if c:
                        row[b] = c
                for b, c in (row or {a: L}).items():
                    cols[b][a] = c
            inv, den = linalg.solve(cols, units)
            if None not in inv:
                break
        for b, col in enumerate(cols):
            ls_cols[idx[b]] = {idx[a]: c for a, c in col.items()}
        blocks.append((idx, inv, den))
    den = lcm(*(m for _, _, m in blocks))
    ls_inv = {idx[t]: {idx[b]: c * (den // m) for b, c in col.items()}
              for idx, inv, m in blocks for t, col in enumerate(inv)}
    basis = GradedMap.from_columns(space, space, 0, ls_cols)
    to_new = GradedMap.from_columns(space, space, 0, ls_inv, den)
    new_space = GradedVectorSpace(
        [("b%d" % i, space.degrees[i]) for i in range(dim)])
    d = to_new.compose(g.d).compose(basis)
    # the brackets of the new basis vectors, on numerators
    bracket = g.bracket
    basis_cols = basis.columns
    table = {}
    for i in range(dim):
        for j in range(i, dim):
            br = to_new.add_image({}, bracket.add_product(
                {}, basis_cols.get(i, {}), basis_cols.get(j, {})))
            br = {k: br[k] for k in sorted(br) if br[k]}
            if br:
                table[(i, j)] = br
    return DgLieAlgebra(
        ChainComplex(new_space, GradedMap.from_columns(
            new_space, new_space, -1, d.columns, d.den)),
        table, den=to_new.den * bracket.den * L)


def corpus(count=50, start_seed=0):
    """The deterministic randomized corpus used by the acceptance tests."""
    return [random_dgla(start_seed + k) for k in range(count)]
