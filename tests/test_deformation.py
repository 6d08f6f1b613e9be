"""Maurer-Cartan equations, free Lie models, and the wedge example."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import lie_instances
import lyndon_oracle
from hptmaster import instances
from hptmaster.complexes import ChainComplex, build_contraction
from hptmaster.deformation import (FreeGradedLie, MCVariety,
                                   massey_parameters, mc_equations,
                                   morgan_example, necklace_count,
                                   wedge_of_spheres)
from hptmaster.dgla import DgLieAlgebra, ce_coalgebra
from hptmaster.graded import GradedMap, GradedVectorSpace, suspend_space
from hptmaster.transfer import transfer
from hptmaster.words import (TruncatedSymCoalgebra, extract_brackets,
                             word_label)

F = Fraction


# -- readings of the public fields that only these tests make ---------------

def is_empty(mc):
    return all(not poly for poly in mc.equations.values())


def max_order(mc):
    return max((len(m) for poly in mc.equations.values() for m in poly),
               default=0)


def is_quadratic(mc):
    return all(len(m) == 2 for poly in mc.equations.values() for m in poly)


def quadratic_part(mc):
    return {t: {m: c for m, c in poly.items() if len(m) == 2}
            for t, poly in mc.equations.items()}


def evaluate(mc, point):
    """Value of each equation at a dict coordinate label -> Fraction."""
    out = {}
    for t, poly in mc.equations.items():
        acc = F(0)
        for mono, coeff in poly.items():
            term = coeff
            for g in mono:
                term *= point.get(mc.space.labels[g], F(0))
            acc += term
        out[t] = acc
    return out


def total_dimension(lie):
    return sum(sum(row.values()) for row in lie.counts.values())


def formality_report(result):
    """Does the transferred coderivation reduce to the binary bracket?

    Formal at this truncation means every component that shortens words by
    two or more vanishes; otherwise the least such shortening b >= 2 is
    the non-formality witness (an arity b + 1 operation).
    """
    coalg = result.coalg
    arities = {coalg.word_length(s) for s in coalg.perturbation.columns}
    witnesses = sorted(b - 1 for b in arities if b >= 3)
    return {
        "formal": not witnesses,
        "witness": witnesses[0] if witnesses else None,
        "truncation": result.truncation,
    }


def mc_of_dgla(g, N):
    coalg = ce_coalgebra(g, N)
    return mc_equations(g.space, extract_brackets(coalg), N)


def test_mc_quadratic_part_distinct_coordinates():
    # [x, y] = z with x, y in cohomological degree one: the equation on z
    # is the cross term of (1/2)[eta, eta], coefficient 1 on the monomial xy
    V = GradedVectorSpace([("x", -1), ("y", -1), ("z", -2)])
    g = DgLieAlgebra(ChainComplex(V), {(0, 1): {2: F(1)}})
    mc = mc_of_dgla(g, 3)
    assert mc.coordinates == ["x", "y"]
    assert mc.equations == {"z": {(0, 1): F(1)}}
    assert is_quadratic(mc) and not is_empty(mc)


def test_mc_quadratic_part_odd_self_bracket():
    # [x, x] = z keeps the divided-power coefficient 1/2 on the square
    V = GradedVectorSpace([("x", -1), ("z", -2)])
    g = DgLieAlgebra(ChainComplex(V), {(0, 0): {1: F(1)}})
    mc = mc_of_dgla(g, 3)
    assert mc.equations == {"z": {(0, 0): F(1, 2)}}


def test_mc_evaluate_matches_half_bracket():
    V = GradedVectorSpace([("x", -1), ("y", -1), ("z", -2), ("w", -2)])
    g = DgLieAlgebra(ChainComplex(V),
                     {(0, 1): {2: F(1), 3: F(-2)}, (0, 0): {3: F(1)}})
    mc = mc_of_dgla(g, 2)
    point = {"x": F(3, 2), "y": F(-1, 3)}
    got = evaluate(mc, point)
    # oracle: (1/2)[v, v] computed on the algebra itself
    v = {0: point["x"], 1: point["y"]}
    half = {k: c / 2 for k, c in g.bracket(v, v).items()}
    assert got == {"z": half[2], "w": half[3]}


def test_mc_rejects_positive_homological_degrees():
    g = lie_instances.sl2()  # concentrated in degree 0 is fine
    mc = mc_of_dgla(g, 2)
    assert is_empty(mc)  # no degree -1 coordinates at all
    V = GradedVectorSpace([("x", 1), ("z", -2)])
    bad = DgLieAlgebra(ChainComplex(V), {})
    with pytest.raises(ValueError):
        mc_of_dgla(bad, 2)


def test_mcvariety_helpers():
    V = GradedVectorSpace([("x", -1), ("z", -2)])
    mc = MCVariety(V, {"z": {(0, 0, 0): F(1)}}, 3)
    assert mc.coordinates == ["x"]
    assert not is_empty(mc)
    assert max_order(mc) == 3
    assert not is_quadratic(mc)
    assert quadratic_part(mc) == {"z": {}}
    empty = MCVariety(V, {"z": {}}, 3)
    assert is_empty(empty) and max_order(empty) == 0


def test_formality_monotone_in_truncation():
    g = instances.nonzero_l3_dgla()
    con = build_contraction(g.complex)
    flags = []
    for N in (2, 3, 4):
        rep = formality_report(transfer(g, con, N))
        flags.append(rep["formal"])
        assert rep["truncation"] == N
    # the ternary operation only becomes visible at truncation three
    assert flags == [True, False, False]
    rep = formality_report(transfer(g, con, 4))
    assert rep["witness"] == 2


def test_free_lie_dimensions_match_necklace_oracle():
    for rank in (1, 2):
        gens = [("g%d" % j, 2) for j in range(rank)]
        lie = FreeGradedLie(gens, 6)
        for length in range(1, 7):
            assert lie.dimension(length) == necklace_count(rank, length), \
                (rank, length)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(2, 7), max_size=4), st.integers(1, 7))
def test_witt_counts_match_the_lyndon_enumeration(dims, cap):
    lie = wedge_of_spheres(dims, cap)
    want = lyndon_oracle.counts([n - 1 for n in dims], cap)
    assert lie.counts == want
    degs = {}
    for row in want.values():
        for d, c in row.items():
            degs[d] = degs.get(d, 0) + c
    assert lie.dimensions_by_degree() == dict(sorted(degs.items()))


def test_wedge_of_spheres_basic():
    lie = wedge_of_spheres([3, 3], 5)
    assert not lie.experimental
    assert [lie.dimension(k) for k in range(1, 6)] == [2, 1, 2, 3, 6]
    assert total_dimension(lie) == 14
    # degrees: brackets of k degree-2 generators sit in degree 2k
    assert lie.dimensions_by_degree() == {2: 2, 4: 1, 6: 2, 8: 3, 10: 6}


def test_wedge_single_sphere():
    lie = wedge_of_spheres([4], 4)
    assert [lie.dimension(k) for k in range(1, 5)] == [1, 0, 0, 0]


def test_wedge_empty_and_invalid():
    assert total_dimension(wedge_of_spheres([], 3)) == 0
    with pytest.raises(ValueError):
        wedge_of_spheres([1, 3], 3)


def test_wedge_even_sphere_is_experimental():
    # S^2 contributes an odd generator, outside the classical Lyndon count
    assert wedge_of_spheres([2, 3], 3).experimental
    assert not wedge_of_spheres([3, 5, 13], 3).experimental


def test_morgan_example_numbers():
    instance, report = morgan_example()
    assert report["parameter_dimension"] == 6
    assert report["automorphism_dimension"] == 5
    assert report["moduli_gap"] == 1
    assert report["distinguishes_family"]
    assert report["free_lie_length5_dimension"] == 6
    assert report["necklace_length5"] == 6
    assert report["sh_lie"]
    assert report["lower_brackets_vanish"]
    assert report["l5_nonzero"]
    assert not report["formal"]
    assert report["witness"] == 4
    assert sorted(extract_brackets(instance.coalg)) == [5]


def test_morgan_zero_theta_is_formal():
    instance, report = morgan_example(theta={})
    assert report["formal"]
    assert report["witness"] is None
    assert not report["l5_nonzero"]
    assert is_empty(instance.mc)


def test_morgan_mc_is_quintic():
    instance, report = morgan_example()
    mc = instance.mc
    assert mc.coordinates == ["a", "b"]
    assert max_order(mc) == 5
    assert not is_quadratic(mc)
    assert evaluate(mc, {"a": F(0), "b": F(0)}) == {"c": F(0)}
    # the chosen theta word shows up as a genuine quintic monomial
    assert any(len(m) == 5 and c != 0
               for poly in mc.equations.values() for m, c in poly.items())


def regraded_brackets(instance, N):
    """The oracle of the Maurer-Cartan presentation: a second coalgebra
    on the deformation regrading (a, b in cohomological degree 1, c in
    degree 2) carrying the same theta, its words and its own l_k table,
    and the equations read from that table."""
    H_def = GradedVectorSpace([("a", -1), ("b", -1), ("c", -2)])
    sH_def = suspend_space(H_def)
    theta = instance.coalg.perturbation
    coalg = TruncatedSymCoalgebra(sH_def, N)
    # the regrading keeps the words, so theta keeps its columns
    coalg.perturbation = GradedMap.from_columns(
        coalg.space, sH_def, -1, theta.columns, theta.den)
    brackets = extract_brackets(coalg)
    return coalg.words, brackets, mc_equations(H_def, brackets, N)


def seeded_thetas(count):
    """The zero theta, then count seeded ones: rationals on random
    nonempty sets of parameter words."""
    _, sH, words = massey_parameters()
    yield {}
    for seed in range(count):
        rng = random.Random(seed)
        chosen = rng.sample(words, rng.randint(1, len(words)))
        yield {word_label(w, sH): F(rng.choice([-3, -1, 1, 2, 5]),
                                    rng.choice([1, 2, 3, 7]))
               for w in chosen}


def test_mc_equations_match_the_regraded_coalgebra():
    # the regrading keeps each degree's parity and the canonical order, so
    # one coalgebra's l_k table gives the equations over H_def
    for N in (5, 6, 7):
        for theta in seeded_thetas(40):
            instance, report = morgan_example(N, theta=theta)
            words, brackets, mc = regraded_brackets(instance, N)
            assert words == instance.coalg.words
            assert brackets == extract_brackets(instance.coalg)
            assert sorted(brackets) == ([5] if theta else [])
            assert mc.coordinates == instance.mc.coordinates == ["a", "b"]
            assert mc.equations == instance.mc.equations
            assert mc.truncation == instance.mc.truncation == N
            assert report["l5_nonzero"] == bool(theta)


def test_morgan_rejects_short_truncation():
    with pytest.raises(ValueError):
        morgan_example(N=4)


def test_morgan_rejects_word_outside_parameter_space():
    with pytest.raises(ValueError):
        morgan_example(theta={"sa*sa*sa*sa*sc": F(1)})
