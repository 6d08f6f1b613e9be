"""Chain complexes, homology, and contraction synthesis."""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hptmaster import graded, instances, linalg
from hptmaster.complexes import (ChainComplex, Contraction, _vanishes,
                                 build_contraction,
                                 contraction_extending_projection, homology,
                                 induced_map_on_homology, is_quasi_iso)
from hptmaster.dgla import DgLieAlgebra
from hptmaster.graded import GradedMap, GradedVectorSpace
from hptmaster.transfer import transfer

import contraction_oracle
from contraction_oracle import normalize_homotopy

F = Fraction


def two_step():
    # a (deg 1) -> b (deg 0), c (deg 0) surviving
    V = GradedVectorSpace([("a", 1), ("b", 0), ("c", 0)])
    d = GradedMap(V, V, -1, {(1, 0): F(1)})
    return ChainComplex(V, d)


def test_d_squared_enforced():
    V = GradedVectorSpace([("a", 2), ("b", 1), ("c", 0)])
    d = GradedMap(V, V, -1, {(1, 0): F(1), (2, 1): F(1)})
    with pytest.raises(ValueError):
        ChainComplex(V, d)


def test_homology_two_step():
    H, reps = homology(two_step())
    assert H.degrees == [0]
    # the surviving class is c, up to adding a boundary multiple of b
    rep = reps[0]
    assert rep[2] == 1 and 0 not in rep


def test_homology_acyclic():
    V = GradedVectorSpace([("a", 1), ("b", 0)])
    d = GradedMap(V, V, -1, {(1, 0): F(3)})
    H, reps = homology(ChainComplex(V, d))
    assert H.dim == 0 and reps == []


def test_build_contraction_identities(corpus):
    for seed, g, con, _ in corpus:
        assert con.identity_failures() == [], seed


def test_contraction_identities_rejected_when_broken():
    C = two_step()
    con = build_contraction(C)
    bad_h = con.h + GradedMap(C.space, C.space, 1, {(0, 1): F(1)})
    with pytest.raises(ValueError):
        Contraction(C, con.small, con.nabla, con.pi, bad_h)


def test_normalize_homotopy_restores_side_conditions():
    # homology in two adjacent degrees admits a perturbation nabla rho pi
    # of h that keeps D h = nabla pi - id but breaks the side conditions
    V = GradedVectorSpace([("x", 0), ("y", 1), ("a", 1), ("b", 0)])
    d = GradedMap(V, V, -1, {(3, 2): F(1)})
    C = ChainComplex(V, d)
    con = build_contraction(C)
    eta = con.nabla.compose(
        GradedMap(con.small.space, con.small.space, 1,
                  {(con.small.space.index["h1_0"],
                    con.small.space.index["h0_0"]): F(1)})).compose(con.pi)
    crooked = Contraction(C, con.small, con.nabla, con.pi, con.h + eta,
                          check=False)
    assert crooked.identity_failures() != []
    fixed = normalize_homotopy(crooked)
    assert fixed.identity_failures() == []


def test_contraction_extending_projection_hand():
    C = two_step()
    small = GradedVectorSpace([("h", 0)])
    # project onto the class of c
    pi = GradedMap(C.space, small, 0, {(0, 2): F(1)})
    con = contraction_extending_projection(C, pi)
    assert con.identity_failures() == []
    assert con.pi.entries == pi.entries


def test_projection_that_is_not_a_chain_map_is_refused():
    # pi(b) = 1 with b = d(a): pi d != 0, refused before any elimination
    C = two_step()
    small = GradedVectorSpace([("h", 0)])
    for entries in ({(0, 1): F(1)}, {(0, 1): F(1), (0, 2): F(1)}):
        with pytest.raises(ValueError,
                           match="^projection is not a chain map$"):
            contraction_extending_projection(
                C, GradedMap(C.space, small, 0, entries))


def _refusal(extend, C, pi):
    with pytest.raises(ValueError) as info:
        extend(C, pi)
    return str(info.value)


@pytest.mark.parametrize("extend", [
    contraction_extending_projection,
    contraction_oracle.contraction_extending_projection],
    ids=["library", "oracle"])
def test_each_refusal_of_an_extension_is_named(extend):
    # a class hit only by a chain that is not a cycle: a -> b, pi(a) = h
    C = two_step()
    small = GradedVectorSpace([("h", 1)])
    pi = GradedMap(C.space, small, 0, {(0, 0): F(1)})
    assert (_refusal(extend, C, pi)
            == "projection admits no cycle-valued section")
    # chain maps with a cycle-valued section and a kernel that is not
    # acyclic; the library finds A holding a cycle below the lowest degree
    # (the class of c dropped), across a gap (x in degree 2 over y in
    # degree 0) and as a zero column d(a) of [d(A) | nabla] (a a cycle
    # over the class of b)
    gap = GradedVectorSpace([("x", 2), ("y", 0)])
    flat = GradedVectorSpace([("a", 1), ("b", 0)])
    for C, pi in (
            (C, GradedMap(C.space, GradedVectorSpace([]), 0)),
            (ChainComplex(gap), GradedMap(gap, GradedVectorSpace([("h", 0)]),
                                          0, {(0, 1): F(1)})),
            (ChainComplex(flat), GradedMap(
                flat, GradedVectorSpace([("h", 0)]), 0, {(0, 1): F(1)}))):
        assert (_refusal(extend, C, pi)
                == "projection is not a quasi-isomorphism")


def _drawn_projection(data, C, pi):
    """S P pi + psi d for the projection pi onto homology: P drops the
    classes drawn, S is a drawn degree-0 map of what is left and psi a
    drawn degree +1 map into it, so the result is a chain map."""
    H = pi.target
    coeffs = st.sampled_from([-2, -1, 0, 0, 1, 1, 3])
    keep = [k for k in range(H.dim) if data.draw(st.integers(0, 5))]
    T = GradedVectorSpace([H.basis[k] for k in keep])
    drop = GradedMap.from_columns(H, T, 0, {k: {i: 1}
                                            for i, k in enumerate(keep)})
    S = GradedMap(T, T, 0, {(t, s): F(data.draw(coeffs))
                            for s in range(T.dim) for t in range(T.dim)
                            if T.degrees[s] == T.degrees[t]})
    psi = GradedMap(C.space, T, 1, {
        (t, s): F(data.draw(coeffs)) for s in range(C.dim)
        for t in range(T.dim) if T.degrees[t] == C.space.degrees[s] + 1})
    return S.compose(drop).compose(pi) + psi.compose(C.d)


def _contraction_or_refusal(extend, *args):
    try:
        con = extend(*args)
    except ValueError as exc:
        return str(exc)
    return con.small.space, con.nabla, con.pi, con.h


@st.composite
def complexes(draw):
    """The complex of a random_dgla seed, or a standard complex (classes
    and pairs y -> x = d(y) in degrees 0..3) conjugated by change_basis,
    whose degrees hold several kernel vectors each."""
    seed = draw(st.integers(0, 1499))
    if draw(st.booleans()):
        return instances.random_dgla(seed).complex
    basis, d = [], {}
    for n in range(4):
        basis += [("z%d_%d" % (n, k), n)
                  for k in range(draw(st.integers(0, 2)))]
    for n in range(3):
        for k in range(draw(st.integers(0, 3))):
            d[(len(basis), len(basis) + 1)] = F(1)
            basis += [("x%d_%d" % (n, k), n), ("y%d_%d" % (n + 1, k), n + 1)]
    space = GradedVectorSpace(basis)
    g = DgLieAlgebra(ChainComplex(space, GradedMap(space, space, -1, d)), {})
    return instances.change_basis(g, random.Random(seed)).complex


@settings(max_examples=150, deadline=None)
@given(complexes(), st.data())
def test_contractions_match_the_oracle(C, data):
    # the adapted-basis loop gives the oracle's contraction onto homology,
    # and the oracle's extension of every drawn chain-map projection,
    # or the same refusal
    con = _contraction_or_refusal(build_contraction, C)
    assert con == _contraction_or_refusal(
        contraction_oracle.build_contraction, C)
    pi = _drawn_projection(data, C, con[2])
    assert pi.compose(C.d).is_zero()
    assert (_contraction_or_refusal(contraction_extending_projection, C, pi)
            == _contraction_or_refusal(
                contraction_oracle.contraction_extending_projection, C, pi))


def test_induced_map_and_quasi_iso():
    C = two_step()
    V2 = GradedVectorSpace([("z", 0)])
    D = ChainComplex(V2)
    f = GradedMap(C.space, V2, 0, {(0, 2): F(1)})
    M, Hs, Ht = induced_map_on_homology(f, C, D)
    assert Hs.dim == 1 and Ht.dim == 1
    assert M.entries == {(0, 0): F(1)}
    assert is_quasi_iso(f, C, D)
    zero = GradedMap(C.space, V2, 0, {})
    assert not is_quasi_iso(zero, C, D)


def acyclic(n, top=()):
    """y_i -> x_i for i < n: 2n basis vectors in two degrees, no homology,
    and a class of each degree in top."""
    V = GradedVectorSpace([("x%d" % i, 0) for i in range(n)]
                          + [("y%d" % i, 1) for i in range(n)]
                          + [("z%d" % i, k) for i, k in enumerate(top)])
    return ChainComplex(V, GradedMap(V, V, -1,
                                     {(i, n + i): F(1) for i in range(n)}))


def test_build_contraction_eliminations_do_not_grow_with_dimension(
        monkeypatch):
    # per degree: the kernel and the boundaries for homology, and one
    # elimination that finds the complement of the cycles and inverts the
    # adapted basis, whatever the dimension; every elimination of linalg
    # runs in its one kernel
    calls = []
    echelon = linalg._echelon

    def counting(rows):
        calls.append(rows)
        return echelon(rows)

    monkeypatch.setattr(linalg, "_echelon", counting)
    counts = []
    for n in (10, 40):
        del calls[:]
        con = build_contraction(acyclic(n))
        assert con.small.space.dim == 0
        counts.append(len(calls))
    assert counts == [3 * 2, 3 * 2]
    # the refusals' checks across a gap (degree 2 missing under the class
    # in degree 3) and below the lowest degree take no elimination
    counts = []
    for n in (10, 40):
        del calls[:]
        con = build_contraction(acyclic(n, top=(3,)))
        assert con.small.space.degrees == [3]
        counts.append(len(calls))
    assert counts == [3 * 3, 3 * 3]


def test_homotopy_sign_convention():
    # h sends d(a) back to -a, so d h + h d = nabla pi - id
    C = two_step()
    con = build_contraction(C)
    assert con.h.apply_basis(1) == {0: F(-1)}


def _map(src, tgt, degree, entries):
    return GradedMap(src, tgt, degree, {k: F(c) for k, c in entries.items()})


def broken_contractions():
    """Contractions with chosen identities failing, and the names the
    check must report.

    Where the first two identities hold, pi h = 0 follows from
    h nabla = 0 and h h = 0, and h nabla = 0 from pi h = 0 and h h = 0;
    and the two chain-map conditions imply each other.  Those four are
    therefore broken together with the fewest others the algebra allows.
    """
    cases = {}
    # pi nabla is an idempotent other than Id, everything else holds
    V = GradedVectorSpace([("a", 0)])
    W = GradedVectorSpace([("p", 0), ("q", 0)])
    cases["pi-nabla"] = (
        Contraction(ChainComplex(V), ChainComplex(W),
                    _map(W, V, 0, {(0, 0): 1, (0, 1): 1}),
                    _map(V, W, 0, {(0, 0): 1}), _map(V, V, 1, {}),
                    check=False),
        ["pi nabla != Id"])
    # no homotopy at all on a -> b
    C = two_step()
    con = build_contraction(C)
    cases["Dh"] = (
        Contraction(C, con.small, con.nabla, con.pi, _map(C.space, C.space,
                                                          1, {}),
                    check=False),
        ["Dh != nabla pi - Id"])
    # x, y survive and d a = b; h + nabla sigma with sigma(b) = [y] breaks
    # pi h, h + tau pi with tau([x]) = a breaks h nabla
    V = GradedVectorSpace([("x", 0), ("y", 1), ("a", 1), ("b", 0)])
    C = ChainComplex(V, _map(V, V, -1, {(3, 2): 1}))
    con = build_contraction(C)
    H = con.small.space
    y, x = H.index["h1_0"], H.index["h0_0"]
    nabla_sigma = con.nabla.compose(_map(V, H, 1, {(y, 3): 1}))
    tau_pi = _map(H, V, 1, {(2, x): 1}).compose(con.pi)
    cases["pi-h"] = (
        Contraction(C, con.small, con.nabla, con.pi, con.h + nabla_sigma,
                    check=False),
        ["Dh != nabla pi - Id", "pi h != 0"])
    cases["h-nabla"] = (
        Contraction(C, con.small, con.nabla, con.pi, con.h + tau_pi,
                    check=False),
        ["Dh != nabla pi - Id", "h nabla != 0"])
    # acyclic x -> w, z -> y with D h = -Id and h h (w) = -y
    V = GradedVectorSpace([("w", 0), ("x", 1), ("y", 2), ("z", 3)])
    E = GradedVectorSpace([])
    C = ChainComplex(V, _map(V, V, -1, {(0, 1): 1, (2, 3): 1}))
    cases["h-h"] = (
        Contraction(C, ChainComplex(E), _map(E, V, 0, {}),
                    _map(V, E, 0, {}),
                    _map(V, V, 1, {(1, 0): -1, (2, 1): 1, (3, 2): -1}),
                    check=False),
        ["h h != 0"])
    # identity maps onto a copy with a differential the big side lacks
    V = GradedVectorSpace([("p", 1), ("q", 0)])
    W = GradedVectorSpace([("p2", 1), ("q2", 0)])
    iden = {(0, 0): 1, (1, 1): 1}
    cases["chain-maps"] = (
        Contraction(ChainComplex(V), ChainComplex(W, _map(W, W, -1,
                                                          {(1, 0): 1})),
                    _map(W, V, 0, iden), _map(V, W, 0, iden),
                    _map(V, V, 1, {}), check=False),
        ["pi not a chain map", "nabla not a chain map"])
    # several at once, on x, y, a, b: a differential [x] -> [y] on the
    # small side, a doubled inclusion and h + nabla eta pi, eta([x]) = [y]
    V = GradedVectorSpace([("x", 0), ("y", 1), ("a", 1), ("b", 0)])
    C = ChainComplex(V, _map(V, V, -1, {(3, 2): 1}))
    con = build_contraction(C)
    H = con.small.space
    y, x = H.index["h1_0"], H.index["h0_0"]
    eta = con.nabla.compose(_map(H, H, 1, {(y, x): 1})).compose(con.pi)
    cases["several"] = (
        Contraction(C, ChainComplex(H, _map(H, H, -1, {(x, y): 1})),
                    con.nabla.scale(2), con.pi, con.h + eta, check=False),
        ["pi nabla != Id", "Dh != nabla pi - Id", "pi h != 0",
         "h nabla != 0", "pi not a chain map", "nabla not a chain map"])
    return cases


@pytest.mark.parametrize("name", sorted(broken_contractions()))
def test_identity_failures_match_oracle_when_broken(name):
    con, expected = broken_contractions()[name]
    assert con.identity_failures() == expected
    assert contraction_oracle.identity_failures(con) == expected


def _corrupted(con, field, s, t, value):
    """con with value added to the (t, s) entry of one of nabla, pi and h,
    or of the small differential for field "d_small" (ValueError when the
    sum does not square to zero), by the one builder that skips the
    degree check: the bump may be inhomogeneous."""
    small = con.small
    maps = {"nabla": con.nabla, "pi": con.pi, "h": con.h}
    f = small.d if field == "d_small" else maps[field]
    bump = graded._built(f.source, f.target, f.degree, {s: {t: value}}, 1)
    if field == "d_small":
        small = ChainComplex(small.space, f + bump)
    else:
        maps[field] = f + bump
    return Contraction(con.big, small, check=False, **maps)


def test_identity_failures_match_oracle_on_corrupted_corpus(corpus):
    rng = random.Random(0)
    for seed, _, con, _ in corpus[:20]:
        for _ in range(5):
            field = rng.choice(["nabla", "pi", "h"])
            f = getattr(con, field)
            bad = _corrupted(con, field, rng.randrange(f.source.dim),
                             rng.randrange(f.target.dim),
                             rng.choice([-1, 1, 2]))
            assert (bad.identity_failures()
                    == contraction_oracle.identity_failures(bad)), seed


@functools.lru_cache(maxsize=None)
def verdict_pool():
    """Valid contractions of three kinds, from the first non-abelian
    random_dgla seeds of dimension <= 5 with d != 0: build_contraction's,
    its lift to the coalgebras at N = 3, and the perturbation-lemma
    extension of that lift, whose small differential is perturbed."""
    pool = []
    seed = 0
    while len(pool) < 12:
        g = instances.random_dgla(seed)
        seed += 1
        if g.is_abelian() or g.d.is_zero() or g.space.dim > 5:
            continue
        con = build_contraction(g.complex)
        result = transfer(g, con, 3)
        pool += [con, result.lift, result.extended]
    return pool


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_identity_failures_match_the_seven_product_oracle(data):
    # one-entry corruptions of nabla, pi, h and the small differential:
    # the verdict, with its one small-space residual for the chain-map
    # identities when the first two hold, lists what the seven whole-map
    # products list
    con = data.draw(st.sampled_from(verdict_pool()))
    field = data.draw(st.sampled_from(["nabla", "pi", "h", "d_small"]))
    f = con.small.d if field == "d_small" else getattr(con, field)
    assume(f.source.dim and f.target.dim)
    entry = (data.draw(st.integers(0, f.source.dim - 1)),
             data.draw(st.integers(0, f.target.dim - 1)),
             data.draw(st.sampled_from([-1, 1, 2])))
    try:
        bad = _corrupted(con, field, *entry)
    except ValueError:
        assume(False)   # the corrupted small differential squares to nonzero
    assert bad.identity_failures() == contraction_oracle.identity_failures(bad)


def _counted_residuals(monkeypatch):
    """Record the terms of every residual _vanishes evaluates."""
    terms = []

    def counting(*args):
        terms.append(args[0])
        return _vanishes(*args)

    monkeypatch.setattr("hptmaster.complexes._vanishes", counting)
    return terms


def test_corrupted_verdicts_take_both_paths(monkeypatch):
    # six residuals when pi nabla = Id and D h = nabla pi - Id hold (a
    # corruption of h at a cycle target and a source d does not reach
    # keeps both, and so does one of the small differential), seven
    # otherwise; failing verdicts come from both, and the one residual
    # fails the chain-map identities
    terms = _counted_residuals(monkeypatch)
    rng = random.Random(0)
    seen = set()
    for con in verdict_pool():
        for field in ("nabla", "pi", "h", "h", "h", "d_small"):
            f = con.small.d if field == "d_small" else getattr(con, field)
            if not (f.source.dim and f.target.dim):
                continue
            try:
                bad = _corrupted(con, field, rng.randrange(f.source.dim),
                                 rng.randrange(f.target.dim), 1)
            except ValueError:
                continue
            terms.clear()
            got = bad.identity_failures()
            assert got == contraction_oracle.identity_failures(bad)
            seen.add((len(terms), bool(got), "pi not a chain map" in got))
    assert {(6, True, False), (6, True, True), (7, True, False)} <= seen


def test_a_passing_verdict_evaluates_six_residuals(monkeypatch):
    # pi d nabla = d_small decides both chain-map identities once the
    # first two hold, with d nabla formed on the columns of nabla: a
    # passing verdict evaluates six residuals and forms neither pi d nor
    # nabla d_small
    pool = verdict_pool()
    assert any(not con.small.d.is_zero() for con in pool)
    terms = _counted_residuals(monkeypatch)
    for con in pool:
        fresh = Contraction(con.big, con.small, con.nabla, con.pi, con.h,
                            check=False)
        terms.clear()
        assert fresh.identity_failures() == []
        assert len(terms) == 6
        pairs = [(f, g) for res in terms for _, f, g in res]
        d, d_small = fresh.big.d.columns, fresh.small.d.columns
        assert not any(f is fresh.pi.columns and g is d
                       or f is fresh.nabla.columns and g is d_small
                       for f, g in pairs)


def test_vanishes_skips_a_term_whose_g_hits_no_column_of_f():
    # f g = 0 when no target of g is a source of f: the term is skipped
    # without a walk over the columns of g
    class Walked(dict):
        walks = 0

        def items(self):
            Walked.walks += 1
            return super().items()

    g = Walked({0: {1: 1}, 2: {3: 5}})
    assert _vanishes([(1, {0: {0: 1}, 2: {1: 1}}, g)], 0, 0)
    assert Walked.walks == 0
    assert not _vanishes([(1, {3: {0: 1}}, g)], 0, 0)
    assert Walked.walks == 1
