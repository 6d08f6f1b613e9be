"""Deterministic example builders and the randomized test corpus.

The engineered instances were designed by hand around the transfer
machinery: a dg Lie algebra whose transferred structure has a nonzero
ternary bracket, a degeneration instance whose homology lifts commute
while the algebra does not, and a seven-dimensional weak differential BV
algebra built from one Hodge square plus harmonic classes so that the
formality predicate holds with a nonzero quadratic twisting-cochain
component.  Randomized dg Lie algebras come from structured families
composed with random degreewise basis changes, so denominators and dense
constants appear while exactness is preserved.
"""

import random
from math import lcm

from . import linalg
from .bv import BVData, GerstenhaberAlgebra, bracket_from_generator
from .complexes import ChainComplex
from .dgla import DgLieAlgebra
from .graded import GradedMap, GradedVectorSpace, ONE


def abelian_dgla(degrees=(0, 1)):
    space = GradedVectorSpace(
        [("a%d" % i, d) for i, d in enumerate(degrees)])
    return DgLieAlgebra(ChainComplex(space), {})


def sl2():
    return _lie3("sl2")


# three-dimensional Lie algebras on the basis e, f, h
_LIE3 = {
    "sl2": {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}},
    "b2x": {(0, 1): {1: 1}},
    "heis": {(0, 1): {2: 1}},
}


def _lie3(kind):
    space = GradedVectorSpace([("e", 0), ("f", 0), ("h", 0)])
    return DgLieAlgebra(ChainComplex(space), _LIE3[kind])


def lie_tensor_dgla(kind="sl2"):
    """g (x) (c, u, v) with d(u) = v and u, v products vanishing.

    A three-dimensional Lie algebra tensored with the three-dimensional
    commutative algebra spanned by an idempotent-free unit-like element c
    and an acyclic pair u -> v whose products with everything vanish.  The
    result has nonzero differential and nonzero brackets with homology
    equal to the original Lie algebra.
    """
    return _lie_tensor(kind, (("c", "c", "c"), ("c", "u", "u"),
                              ("c", "v", "v")))


def _lie_tensor(kind, products):
    """g (x) B for B spanned by c, u (degree 1), v with d(u) = v.

    products lists the nonzero products (a1, a2, a1 a2) of B; the bracket
    is [x (x) a1, y (x) a2] = [x, y] (x) a1 a2.
    """
    base = _lie3(kind)
    gens = base.space.labels
    space = GradedVectorSpace(
        [("%s_%s" % (g, a), 1 if a == "u" else 0)
         for g in gens for a in ("c", "u", "v")])
    idx = space.index
    rows = []
    for x, g1 in enumerate(gens):
        for y, g2 in enumerate(gens):
            for a1, a2, a3 in products:
                if a1 == a2 and x > y:
                    continue  # the pair that (g2, g1) already hands in
                val = {idx["%s_%s" % (gens[k], a3)]: c
                       for k, c in base.bracket.get(x, y).items()}
                if val:
                    rows.append(((idx["%s_%s" % (g1, a1)],
                                  idx["%s_%s" % (g2, a2)]), val))
    d_ent = {}
    for g in gens:
        d_ent[(idx["%s_v" % g], idx["%s_u" % g])] = ONE
    return DgLieAlgebra(
        ChainComplex(space, GradedMap(space, space, -1, d_ent)), rows)


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


def commuting_lifts_dgla(kind="sl2"):
    """Nonabelian dg Lie algebra whose homology lifts commute.

    g (x) B where B is spanned by c, u, v with d(u) = v, v v = v,
    u v = u, and c orthogonal to everything.  Homology is carried by the
    c-slice, whose brackets vanish (c c = 0), while the u, v slices carry
    nonzero brackets.  Both degeneration hypotheses (projected bracket
    zero; lifted brackets zero) hold exactly.
    """
    return _lie_tensor(kind, (("v", "v", "v"), ("u", "v", "u")))


def kahler_bv_instance():
    """Seven-dimensional weak differential BV algebra with nonzero tau_2.

    Cohomological basis: 1 (degree 0); alpha, c (degree 1); beta, p, e
    (degree 2); t (degree 3).  The only nontrivial product is
    alpha beta = -t; the differential is c -> e, p -> t; the generator is
    p -> c, t -> -e.  The harmonic part {1, alpha, beta} maps
    isomorphically onto both homologies and {p, t, c, e} is a single
    Hodge square, so the formality predicate holds.  The generated bracket
    is [alpha, beta] = -e, so the transferred twisting cochain has the
    nonzero quadratic component h(-e) with value in im(Delta).
    """
    space = GradedVectorSpace(
        [("1", 0), ("alpha", 1), ("c", 1), ("beta", 2), ("p", 2),
         ("e", 2), ("t", 3)])
    ix = space.index
    prod = {(ix["alpha"], ix["beta"]): {ix["t"]: -ONE}}
    d = GradedMap(space, space, 1,
                  {(ix["e"], ix["c"]): ONE, (ix["t"], ix["p"]): ONE})
    delta = GradedMap(space, space, -1,
                      {(ix["c"], ix["p"]): ONE, (ix["e"], ix["t"]): -ONE})
    alg0 = GerstenhaberAlgebra(space, prod, d=d, unit_index=ix["1"])
    alg = GerstenhaberAlgebra(space, alg0.multiply,
                              bracket_from_generator(alg0, delta), d=d,
                              unit_index=ix["1"])
    return BVData(alg, delta)


# -- randomized corpus -------------------------------------------------------

def random_dgla(seed):
    """A random valid dg Lie algebra of total dimension <= 6.

    Families: abelian with a random two-layer differential, classical Lie
    algebras in degree zero, a Lie algebra tensored with a small
    differential coefficient algebra, and the engineered ternary-bracket
    instance; each is composed with a random degreewise basis change so
    that nontrivial rational constants appear.  Deterministic per seed.
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
    the pool until it is invertible: its inverse is the rank test, so a
    block takes one elimination and the whole space none.  Conjugating by
    L S instead of S gives the same differential and L times each bracket,
    so neither S nor its inverse needs a Fraction per entry.
    """
    space = g.space
    dim = space.dim
    L = lcm(*denominator_pool)
    # L S and (L S)^{-1}, block by block
    ls_cols, ls_inv = {}, {}
    for deg in sorted(set(space.degrees)):
        idx = space.indices_in_degree(deg)
        n = len(idx)
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
            try:
                inv = linalg.inverse(cols)
            except ValueError:
                continue
            break
        for b, col in enumerate(cols):
            ls_cols[idx[b]] = {idx[a]: c for a, c in col.items()}
        for t, col in enumerate(inv):
            ls_inv[idx[t]] = {idx[b]: c for b, c in col.items()}
    basis = GradedMap.from_columns(space, space, 0, ls_cols)
    to_new = GradedMap.from_columns(space, space, 0, ls_inv)
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
