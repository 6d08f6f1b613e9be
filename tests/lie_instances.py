"""Lie algebras tensored with a small coefficient algebra, test inputs.

sl2 and the tensor products g (x) B of a three-dimensional Lie algebra g
with a three-dimensional dg commutative algebra B: one with nonzero
differential and brackets and homology g, and one whose homology lifts
commute although the algebra is not abelian (the degeneration instance of
Add. 2.8.3 and 2.8.5), a tower whose twisting cochain reaches word
length three, and an algebra that brackets odd elements with themselves.
"""

from fractions import Fraction

from hptmaster.complexes import ChainComplex
from hptmaster.dgla import DgLieAlgebra
from hptmaster.graded import GradedMap, GradedVectorSpace, ONE
from hptmaster.instances import _lie3


def sl2():
    return _lie3("sl2")


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


def commuting_lifts_dgla(kind="sl2"):
    """Nonabelian dg Lie algebra whose homology lifts commute.

    g (x) B where B is spanned by c, u, v with d(u) = v, v v = v,
    u v = u, and c orthogonal to everything.  Homology is carried by the
    c-slice, whose brackets vanish (c c = 0), while the u, v slices carry
    nonzero brackets.  Both degeneration hypotheses (projected bracket
    zero; lifted brackets zero) hold exactly.
    """
    return _lie_tensor(kind, (("v", "v", "v"), ("u", "v", "u")))


def tower_dgla():
    """Classes x, y, z in degree 0 with [x, y] = v = d(u) and
    [u, z] = p = d(q): tau^2 lifts sx sy to a multiple of u, and
    tau^3 lifts sx sy sz to a multiple of q.  Every bracket lands in
    the boundaries v and p, whose brackets vanish, so Jacobi and the
    Leibniz rule hold."""
    space = GradedVectorSpace([("x", 0), ("y", 0), ("z", 0), ("u", 1),
                               ("v", 0), ("q", 2), ("p", 1)])
    i = space.index
    d = GradedMap(space, space, -1, {(i["v"], i["u"]): ONE,
                                     (i["p"], i["q"]): ONE})
    return DgLieAlgebra(ChainComplex(space, d),
                        {(i["x"], i["y"]): {i["v"]: ONE},
                         (i["z"], i["u"]): {i["p"]: ONE}})


def odd_squares():
    """Odd x, x' with [x, x] = y, [x, x'] = y / 3 and [x', x'] = -2 y, the
    only brackets: the one test input whose bracket of two odd elements is
    nonzero, which no random_dgla and no other fixture has, so the words
    sx*sx and sx'*sx' carry halved terms of lambda_2 and Jacobi's sorted
    triples with j = i on an odd letter meet a nonzero [e_i, e_i]."""
    V = GradedVectorSpace([("x", 1), ("x'", 1), ("y", 2)])
    return DgLieAlgebra(ChainComplex(V), {
        (0, 0): {2: 1}, (0, 1): {2: Fraction(1, 3)}, (1, 1): {2: -2}})
