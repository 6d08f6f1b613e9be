"""The verdict loops of the structure tables as they stood before
`graded.StructureTable` kept its constants by row and walked the rows
itself, kept as an exact oracle for `first_non_derivation`,
`first_non_jacobi` and `first_non_associative`.

Each loop forms every term through the table's public kernel
(`add_product` on operand dicts such as {i: 1}, `numerators`, `partners`)
and visits pairs and triples by the coarser rules of that code: the
Leibniz rule every j for each i where op e_i is nonzero, Jacobi every
sorted pair (i, j), associativity every ordered pair (i, j).  All three
test ints, each term being a power of den (times op.den) too large.
"""


def first_non_derivation(table, op):
    """The first basis pair (i, j) on which op fails the Leibniz rule
    op(e_i e_j) = (op e_i) e_j + (-1)^{|op| p_i} e_i (op e_j),
    p_i = |e_i| + degree, or None."""
    cols = op.columns
    degs = table.space.degrees
    dim = table.space.dim
    for i in range(dim):
        col_i = cols.get(i)
        js = range(dim) if col_i else sorted(table.partners[i].union(cols))
        sign = -1 if op.degree * (degs[i] + table.degree) % 2 else 1
        for j in js:
            bad = op.add_image({}, table.numerators(i, j))
            if col_i:
                table.add_product(bad, col_i, {j: 1}, -1)
            col_j = cols.get(j)
            if col_j:
                table.add_product(bad, {i: 1}, col_j, -sign)
            if any(bad.values()):
                return i, j
    return None


def first_non_jacobi(table):
    """The first sorted triple (i, j, k) on which
    [x,[y,z]] - [[x,y],z] - (-1)^{|x||y|} [y,[x,z]] does not vanish, or
    None; only triples with a nonzero pair bracket are evaluated."""
    degs = table.space.degrees
    dim = len(degs)
    partners = table.partners
    num = table.numerators
    for i in range(dim):
        for j in range(i, dim):
            if j in partners[i]:
                ks = range(j, dim)
            else:
                ks = sorted(k for k in partners[i] | partners[j] if k >= j)
            sign = 1 if degs[i] % 2 and degs[j] % 2 else -1
            for k in ks:
                bad = table.add_product({}, {i: 1}, num(j, k))
                table.add_product(bad, num(i, j), {k: 1}, -1)
                table.add_product(bad, {j: 1}, num(i, k), sign)
                if any(bad.values()):
                    return i, j, k
    return None


def first_non_associative(product):
    """The first basis triple (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k),
    or None; the triples with e_i e_j = 0 and e_j e_k = 0 are skipped."""
    dim = product.space.dim
    partners = product.partners
    num = product.numerators
    for i in range(dim):
        for j in range(dim):
            for k in range(dim) if j in partners[i] else sorted(partners[j]):
                bad = product.add_product({}, num(i, j), {k: 1})
                product.add_product(bad, {i: 1}, num(j, k), -1)
                if any(bad.values()):
                    return i, j, k
    return None
