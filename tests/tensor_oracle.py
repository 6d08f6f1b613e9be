"""The tensor-coalgebra lift of a contraction, kept as an exact test oracle.

The library lifts a contraction straight onto canonical symmetric words.
This module computes the same maps the long way: build T^c on all dim^N
tensor words, apply the slotwise lifts and the side homotopy
sum_k Id^k (x) h (x) (nabla pi)^{rest} there, and pass in and out of the
symmetric coalgebra through the invariants embedding and projection.
"""

from itertools import permutations, product as iproduct
from math import factorial

from hptmaster.graded import (GradedMap, GradedVectorSpace, koszul_sign,
                              suspend_map, ONE, ZERO)
from hptmaster.words import TruncatedSymCoalgebra, sort_factors


def tensor_word_label(word, gen_space):
    return "<" + "|".join(gen_space.labels[g] for g in word) + ">"


class TruncatedTensorCoalgebra:
    """T^c[gen_space] truncated at word length N.

    Basis words are arbitrary sequences of generator indices (repeats of
    odd generators are allowed here, unlike the symmetric quotient).
    """

    def __init__(self, gen_space, max_word_length):
        self.gen_space = gen_space
        self.N = int(max_word_length)
        words = [()]
        layer = [()]
        for _ in range(self.N):
            layer = [w + (g,) for w in layer for g in range(gen_space.dim)]
            words.extend(layer)
        self.words = words
        self.windex = {w: i for i, w in enumerate(words)}
        self.space = GradedVectorSpace(
            [(tensor_word_label(w, gen_space),
              sum(gen_space.degrees[g] for g in w)) for w in words])


def tensor_lift(f, src_tc, tgt_tc):
    """T^c f for a degree-0 generator map f: applies f in every slot."""
    if f.degree != 0:
        raise ValueError("only degree-0 maps lift slotwise without signs")
    ent = {}
    for wi, w in enumerate(src_tc.words):
        images = []
        for g in w:
            img = f.apply_basis(g)
            images.append(list(img.items()))
        for combo in iproduct(*images):
            word = tuple(g for g, _ in combo)
            coeff = ONE
            for _, c in combo:
                coeff *= c
            key = (tgt_tc.windex[word], wi)
            ent[key] = ent.get(key, ZERO) + coeff
    ent = {k: v for k, v in ent.items() if v != 0}
    return GradedMap(src_tc.space, tgt_tc.space, 0, ent)


def tensor_homotopy(h, nabla_pi, tc):
    """The side homotopy T^c h = sum_k Id^{k} (x) h (x) (nabla pi)^{rest}.

    h is the degree +1 homotopy on the generators and nabla_pi the
    composite nabla o pi (both endomorphisms of tc.gen_space).
    """
    space = tc.gen_space
    ent = {}
    for wi, w in enumerate(tc.words):
        if not w:
            continue
        for k in range(len(w)):
            front_deg = sum(space.degrees[g] for g in w[:k])
            sign = -ONE if front_deg % 2 else ONE
            slot_imgs = []
            for pos, g in enumerate(w):
                if pos < k:
                    slot_imgs.append([(g, ONE)])
                elif pos == k:
                    slot_imgs.append(list(h.apply_basis(g).items()))
                else:
                    slot_imgs.append(list(nabla_pi.apply_basis(g).items()))
            for combo in iproduct(*slot_imgs):
                word = tuple(g for g, _ in combo)
                coeff = sign
                for _, c in combo:
                    coeff *= c
                if coeff == 0:
                    continue
                key = (tc.windex[word], wi)
                ent[key] = ent.get(key, ZERO) + coeff
    ent = {k: v for k, v in ent.items() if v != 0}
    return GradedMap(tc.space, tc.space, 1, ent)


def sym_to_tensor(sym, tc):
    """The invariants embedding e_w -> sum of distinct arrangements."""
    space = sym.gen_space
    ent = {}
    for wi, w in enumerate(sym.words):
        degs = [space.degrees[g] for g in w]
        seen = set()
        for perm in permutations(range(len(w))):
            arr = tuple(w[p] for p in perm)
            if arr in seen:
                continue
            seen.add(arr)
            sign = koszul_sign(list(perm), degs)
            ent[(tc.windex[arr], wi)] = sign
    return GradedMap(sym.space, tc.space, 0, ent)


def tensor_to_sym(tc, sym):
    """The invariant projection, inverse to the embedding on invariants.

    A tensor word maps to (prod multiplicities! / len!) times the sorted
    symmetric word with the sorting Koszul sign; words with a repeated odd
    generator die.
    """
    space = sym.gen_space
    ent = {}
    for wi, w in enumerate(tc.words):
        word, sign = sort_factors(w, space)
        if word is None:
            continue
        mult = ONE
        run = 1
        for i in range(1, len(word) + 1):
            if i < len(word) and word[i] == word[i - 1]:
                run += 1
            else:
                mult *= factorial(run)
                run = 1
        coeff = sign * mult / factorial(max(len(word), 1))
        ent[(sym.windex[word], wi)] = coeff
    return GradedMap(tc.space, sym.space, 0, ent)


def tensor_path_lift(con, N):
    """Raw (nabla_c, pi_c, h_c) of the contraction lifted through T^c.

    Returns the maps before any side-condition normalization, together
    with the invariants embedding and projection of the big coalgebra.
    """
    nabla_s = suspend_map(con.nabla)
    pi_s = suspend_map(con.pi)
    h_s = suspend_map(con.h)
    big_sym = TruncatedSymCoalgebra(nabla_s.target, N)
    small_sym = TruncatedSymCoalgebra(nabla_s.source, N)
    big_tc = TruncatedTensorCoalgebra(nabla_s.target, N)
    small_tc = TruncatedTensorCoalgebra(nabla_s.source, N)

    incl_big = sym_to_tensor(big_sym, big_tc)
    proj_big = tensor_to_sym(big_tc, big_sym)
    incl_small = sym_to_tensor(small_sym, small_tc)
    proj_small = tensor_to_sym(small_tc, small_sym)

    nabla_c = proj_big.compose(
        tensor_lift(nabla_s, small_tc, big_tc)).compose(incl_small)
    pi_c = proj_small.compose(
        tensor_lift(pi_s, big_tc, small_tc)).compose(incl_big)
    h_tensor = tensor_homotopy(h_s, nabla_s.compose(pi_s), big_tc)
    h_c = proj_big.compose(h_tensor).compose(incl_big)
    return nabla_c, pi_c, h_c, incl_big, proj_big
