"""The random basis change of `hptmaster.instances` as it stood before it
inverted each degree block fraction-free, kept as an exact oracle.

Each drawn block is tested with a Fraction `linalg.rank`, and the whole
block diagonal matrix is inverted with one Fraction elimination of
[S | I] (`linalg.solve`), so the result, and the random numbers drawn,
can be compared with the library's.
"""

from fractions import Fraction

from hptmaster import linalg
from hptmaster.complexes import ChainComplex
from hptmaster.dgla import DgLieAlgebra
from hptmaster.graded import GradedMap, GradedVectorSpace, ONE


def fraction_inverse(columns):
    """The inverse of the matrix with the given columns: for each row index
    t in increasing order, the coordinates of the unit vector e_t over the
    columns.  Raises ValueError when the matrix is not invertible."""
    keys = sorted(set().union(*columns))
    if len(keys) == len(columns):
        out, den = linalg.solve(columns, [{t: ONE} for t in keys])
        if None not in out:
            return [{k: Fraction(c, den) for k, c in x.items()} for x in out]
    raise ValueError("matrix not invertible")


def change_basis(g, rng, denominator_pool=(1, 1, 2, 3)):
    """Conjugate a dg Lie algebra by a random degreewise basis change."""
    space = g.space
    dim = space.dim
    # the columns of the block diagonal basis change S
    cols = [{} for _ in range(dim)]
    for deg in sorted(set(space.degrees)):
        idx = space.indices_in_degree(deg)
        n = len(idx)
        while True:
            block = []
            for a in range(n):
                row = {}
                for b in range(n):
                    c = Fraction(rng.randrange(-2, 3),
                                 rng.choice(denominator_pool))
                    if c:
                        row[b] = c
                block.append(row or {a: ONE})
            if linalg.rank(block) == n:
                break
        for a, row in enumerate(block):
            for b, c in row.items():
                cols[idx[b]][idx[a]] = c
    basis = GradedMap.from_columns(space, space, 0, cols)
    to_new = GradedMap.from_columns(space, space, 0, fraction_inverse(cols))
    new_space = GradedVectorSpace(
        [("b%d" % i, space.degrees[i]) for i in range(dim)])
    d = to_new.compose(g.d).compose(basis)
    # the brackets of the new basis vectors, on numerators
    bracket = g.bracket
    num_cols = basis.columns
    den = to_new.den * bracket.den * basis.den ** 2
    table = {}
    for i in range(dim):
        for j in range(i, dim):
            br = to_new.add_image({}, bracket.add_product(
                {}, num_cols.get(i, {}), num_cols.get(j, {})))
            br = {k: Fraction(br[k], den) for k in sorted(br) if br[k]}
            if br:
                table[(i, j)] = br
    return DgLieAlgebra(
        ChainComplex(new_space, GradedMap.from_columns(
            new_space, new_space, -1, d.columns, d.den)),
        table)
