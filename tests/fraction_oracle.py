"""The Fraction kernels of the maps, tables and checks as they stood before
GradedMap and StructureTable kept int numerators over one common
denominator, kept as exact oracles.

Every function reads the Fraction views only (GradedMap.entries,
by_column below, StructureTable.get) and computes with Fraction values
throughout, one gcd per operation.  Maps come back as entry dicts
(target, source) -> Fraction without zeros, vectors as sparse dicts that
may hold zero values, and add_image and add_product give the true image
and product, not numerator units.
"""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def by_column(f):
    """source index -> {target index: Fraction}: the columns of the map f
    as Fractions, the view GradedMap kept before every reader took its int
    columns."""
    den = f.den
    return {s: {t: Fraction(n, den) for t, n in col.items()}
            for s, col in f.columns.items()}


def add_image(f, acc, vec, scale=ONE):
    """acc += scale * f(vec); returns acc, which may hold zero values."""
    if scale != 1:
        vec = {m: c * scale for m, c in vec.items()}
    columns = by_column(f)
    for m, c in vec.items():
        col = columns.get(m)
        if col:
            for t, c2 in col.items():
                acc[t] = acc.get(t, ZERO) + c * c2
    return acc


def compose(f, g):
    """The entries of f o g (apply g first)."""
    ent = {}
    columns = by_column(f)
    for (m, s), c in g.entries.items():
        for t, c2 in columns.get(m, {}).items():
            key = (t, s)
            ent[key] = ent.get(key, ZERO) + c * c2
    return {k: v for k, v in ent.items() if v != 0}


def add(f, g):
    """The entries of f + g."""
    ent = dict(f.entries)
    for k, c in g.entries.items():
        ent[k] = ent.get(k, ZERO) + c
    return {k: v for k, v in ent.items() if v != 0}


def add_product(table, acc, u, v, sign=1):
    """acc += sign * u v; returns acc, which may hold zero values."""
    for i, a in u.items():
        for j, b in v.items():
            val = table.get(i, j)
            if not val:
                continue
            ab = a * b
            if sign < 0:
                ab = -ab
            for k, c in val.items():
                acc[k] = acc.get(k, ZERO) + ab * c
    return acc


def first_non_derivation(table, op):
    """The first basis pair (i, j) on which op fails the Leibniz rule
    op(e_i e_j) = (op e_i) e_j + (-1)^{|op| p_i} e_i (op e_j),
    p_i = |e_i| + degree, or None."""
    cols = by_column(op)
    degs = table.space.degrees
    dim = table.space.dim
    for i in range(dim):
        col_i = cols.get(i)
        js = range(dim) if col_i else sorted(table.partners[i].union(cols))
        sign = -1 if op.degree * (degs[i] + table.degree) % 2 else 1
        for j in js:
            bad = add_image(op, {}, table.get(i, j))
            if col_i:
                add_product(table, bad, col_i, {j: ONE}, -1)
            col_j = cols.get(j)
            if col_j:
                add_product(table, bad, {i: ONE}, col_j, -sign)
            if any(bad.values()):
                return i, j
    return None


def validate_dgla(g):
    """The report of dgla.validate_dgla, every sorted triple with a
    nonzero pair bracket evaluated in Fractions."""
    space = g.space
    degs = space.degrees
    dim = space.dim
    table = g.bracket
    partners = table.partners
    jacobi = True
    jacobi_witness = None
    for i in range(dim):
        for j in range(i, dim):
            if j in partners[i]:
                ks = range(j, dim)
            else:
                ks = sorted(k for k in partners[i] | partners[j] if k >= j)
            odd_ij = degs[i] % 2 and degs[j] % 2
            for k in ks:
                bad = add_product(table, {}, {i: ONE}, table.get(j, k))
                add_product(table, bad, table.get(i, j), {k: ONE}, -1)
                add_product(table, bad, {j: ONE}, table.get(i, k),
                            1 if odd_ij else -1)
                if any(bad.values()):
                    jacobi = False
                    if jacobi_witness is None:
                        jacobi_witness = (space.labels[i], space.labels[j],
                                          space.labels[k])
    leibniz = first_non_derivation(table, g.d)
    return {
        "antisymmetry": True,
        "jacobi": jacobi,
        "jacobi_witness": jacobi_witness,
        "chain_map": leibniz is None,
        "chain_map_witness": (None if leibniz is None else
                              tuple(space.labels[i] for i in leibniz)),
        "passed": jacobi and leibniz is None,
    }


IDENTITIES = ("pi nabla != Id", "Dh != nabla pi - Id", "pi h != 0",
              "h nabla != 0", "h h != 0", "pi not a chain map",
              "nabla not a chain map")


def identity_failures(con):
    """The failing contraction identities, column by column in Fractions."""
    d, d_small = con.big.d, con.small.d
    nabla, pi, h = con.nabla, con.pi, con.h
    d_cols, d_small_cols = by_column(d), by_column(d_small)
    nabla_cols, pi_cols, h_cols = (
        by_column(nabla), by_column(pi), by_column(h))
    sign = ONE if h.degree % 2 else -ONE
    failed = set()
    for s in range(con.small.space.dim):
        ns = nabla_cols.get(s, {})
        if any(add_image(pi, {s: -ONE}, ns).values()):
            failed.add("pi nabla != Id")
        if any(add_image(h, {}, ns).values()):
            failed.add("h nabla != 0")
        acc = add_image(nabla, add_image(d, {}, ns),
                        d_small_cols.get(s, {}), -ONE)
        if any(acc.values()):
            failed.add("nabla not a chain map")
    for s in range(con.big.space.dim):
        hs, ds = h_cols.get(s, {}), d_cols.get(s, {})
        ps = pi_cols.get(s, {})
        acc = add_image(h, add_image(d, {s: ONE}, hs), ds, sign)
        if any(add_image(nabla, acc, ps, -ONE).values()):
            failed.add("Dh != nabla pi - Id")
        if any(add_image(pi, {}, hs).values()):
            failed.add("pi h != 0")
        if any(add_image(h, {}, hs).values()):
            failed.add("h h != 0")
        if any(add_image(d_small, add_image(pi, {}, ds), ps,
                         -ONE).values()):
            failed.add("pi not a chain map")
    return [name for name in IDENTITIES if name in failed]
