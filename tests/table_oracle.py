"""The sign code of the structure tables as it stood before one type owned
it, kept as an exact oracle for `graded.StructureTable`.

Each operation wrote its own copy of the swap sign: the dg Lie bracket
(`lie_bracket_basis`), the BV product with its unit (`product_basis`), the
degree -1 Gerstenhaber bracket (`gerstenhaber_bracket_basis`), the
problem-file reader that canonicalised rows given out of order
(`canonical_rows`) and the dense product (`bilinear`).  Tables are
canonical dicts (i, j) -> {k: coefficient} with i <= j.
`square_must_vanish` states the forced-square rule that the dg Lie bracket
enforced and the other two operations left out.
"""

from fractions import Fraction

ONE = Fraction(1)
ZERO = Fraction(0)


def lie_bracket_basis(table, degrees, i, j):
    """[e_i, e_j] for a degree-0 graded Lie bracket, any index order."""
    if i <= j:
        return dict(table.get((i, j), {}))
    sign = -ONE if not (degrees[i] % 2 and degrees[j] % 2) else ONE
    return {k: sign * c for k, c in table.get((j, i), {}).items()}


def product_basis(table, degrees, unit, i, j):
    """e_i e_j for a graded commutative product with the given unit."""
    if i == unit:
        return {j: ONE}
    if j == unit:
        return {i: ONE}
    if i <= j:
        return dict(table.get((i, j), {}))
    sign = -ONE if (degrees[i] % 2 and degrees[j] % 2) else ONE
    return {k: sign * c for k, c in table.get((j, i), {}).items()}


def gerstenhaber_bracket_basis(table, degrees, i, j):
    """[e_i, e_j] for the degree -1 bracket, shifted antisymmetry."""
    if i <= j:
        return dict(table.get((i, j), {}))
    pa, qa = degrees[i] - 1, degrees[j] - 1
    sign = -ONE if not (pa % 2 and qa % 2) else ONE
    return {k: sign * c for k, c in table.get((j, i), {}).items()}


def _row_sign(degrees, shift, symmetric, i, j):
    pi, pj = degrees[i] + shift, degrees[j] + shift
    if symmetric:
        return -ONE if (pi % 2 and pj % 2) else ONE
    return ONE if (pi % 2 and pj % 2) else -ONE


def canonical_rows(rows, degrees, shift, symmetric):
    """Rows (i, j, k, c) in either order as a canonical table: swapped
    rows take the sign, values for one pair add up, zeros drop."""
    table = {}
    for i, j, k, c in rows:
        if i > j:
            sign = _row_sign(degrees, shift, symmetric, i, j)
            i, j, c = j, i, sign * c
        val = table.setdefault((i, j), {})
        val[k] = val.get(k, ZERO) + c
    return {key: {k: c for k, c in val.items() if c != 0}
            for key, val in table.items()
            if any(c != 0 for c in val.values())}


def square_must_vanish(degrees, shift, symmetric, i):
    """Does the swap rule force e_i e_i = 0?"""
    return _row_sign(degrees, shift, symmetric, i, i) == -ONE


def bilinear(u, v, basis_fn):
    """Dense bilinear product from the products basis_fn(i, j) of basis
    vectors (sparse dicts), for a product of a space with itself."""
    out = [ZERO] * len(u)
    for i, a in enumerate(u):
        if a == 0:
            continue
        for j, b in enumerate(v):
            if b == 0:
                continue
            for k, c in basis_fn(i, j).items():
                out[k] += a * b * c
    return out


# -- the tensor-product instances --------------------------------------------

LIE3 = {
    "sl2": {("e", "f"): {"h": 1}, ("e", "h"): {"e": -2},
            ("f", "h"): {"f": 2}},
    "b2x": {("e", "f"): {"f": 1}},
    "heis": {("e", "f"): {"h": 1}},
}
# the products of B in lie_instances.lie_tensor_dgla and commuting_lifts_dgla
LIE_TENSOR_PRODUCTS = (("c", "c", "c"), ("c", "u", "u"), ("c", "v", "v"))
COMMUTING_LIFTS_PRODUCTS = (("v", "v", "v"), ("u", "v", "u"))


def lie_tensor_table(kind, products):
    """The canonical bracket table of g (x) B on the basis
    e_c, e_u, e_v, f_c, ..., h_v (u in degree 1, the rest in degree 0)."""
    base = LIE3[kind]
    gens = ("e", "f", "h")
    labels = ["%s_%s" % (g, a) for g in gens for a in ("c", "u", "v")]
    degrees = [1 if lab.endswith("_u") else 0 for lab in labels]
    idx = {lab: i for i, lab in enumerate(labels)}

    def br(g1, g2):
        if (g1, g2) in base:
            return base[(g1, g2)]
        if (g2, g1) in base:
            return {k: -c for k, c in base[(g2, g1)].items()}
        return {}

    table = {}
    for g1 in gens:
        for g2 in gens:
            for a1, a2, a3 in products:
                i, j = idx["%s_%s" % (g1, a1)], idx["%s_%s" % (g2, a2)]
                if i == j:
                    continue
                val = {idx["%s_%s" % (k, a3)]: Fraction(c)
                       for k, c in br(g1, g2).items()}
                if not val:
                    continue
                if i > j:
                    i, j = j, i
                    sign = -ONE
                    if degrees[i] % 2 and degrees[j] % 2:
                        sign = ONE
                    val = {k: sign * c for k, c in val.items()}
                # ordered (g1, g2) pairs hit each symmetric-slot key twice
                # with the same value, so plain assignment deduplicates
                table[(i, j)] = val
    return table
