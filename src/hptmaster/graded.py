"""Z-graded vector spaces, homogeneous linear maps, and Koszul signs.

Everything is exact over the rationals.  A GradedMap keeps one store, its
columns source index -> {target index: int}, and a StructureTable its
rows; each holds Python-int numerators over one positive common
denominator `den`, reduced by a gcd when it is built, and the kernels run
on ints: add_image and add_product add den times their result (numerator
units), and the caller keeps track of that scale, so a verdict-only check
clears the denominators of its terms and tests ints for zero.  Fractions
(fractions.Fraction) are handed out only at the boundary, as views built
on first use: GradedMap.entries (keyed (target, source)), by_column,
apply_basis and __call__, and StructureTable.canonical, get and
__call__.  Degrees are homological throughout the library; cohomological
input is converted at the boundary via deg_hom = -deg_cohom.

Sign conventions used everywhere (single point of truth):

  * the suspension s has degree +1, (sM)_j = M_{j-1};
  * the differential induced on sM is  -s d s^{-1};
  * operator interchanges follow the Koszul rule, with the degree of a
    homogeneous map counted like the degree of an element;
  * a bilinear operation swaps its arguments by the same rule, shifted by
    its degree (StructureTable owns that sign and the squares it forces
    to vanish), and an operator passes it by the same shifted rule in the
    Leibniz rule (StructureTable.first_non_derivation).
"""

from fractions import Fraction
from math import gcd, lcm

ONE = Fraction(1)


class GradedVectorSpace:
    """Finite ordered basis of (label, degree) pairs.

    A space built from (label, degree) pairs checks that its labels are
    unique.  A space built by `derived` keeps only its degrees and calls
    make_labels() when basis, labels or index is first read: a word
    space, whose words are the keys, so its labels are presentation only
    and are not checked for uniqueness.  basis, labels and index are
    shared: read them, never modify them.
    """

    def __init__(self, basis):
        self._basis = [(str(lab), int(deg)) for lab, deg in basis]
        self._labels = [lab for lab, _ in self._basis]
        self.degrees = [deg for _, deg in self._basis]
        self._index = {}
        for i, lab in enumerate(self._labels):
            if lab in self._index:
                raise ValueError(f"duplicate basis label {lab!r}")
            self._index[lab] = i

    @classmethod
    def derived(cls, degrees, make_labels):
        """The space of the given degrees whose labels make_labels()
        returns, called on first read."""
        space = cls.__new__(cls)
        space.degrees = degrees
        space._make_labels = make_labels
        space._basis = space._labels = space._index = None
        return space

    @property
    def labels(self):
        if self._labels is None:
            self._labels = self._make_labels()
        return self._labels

    @property
    def basis(self):
        if self._basis is None:
            self._basis = list(zip(self.labels, self.degrees))
        return self._basis

    @property
    def index(self):
        """label -> position; the last position of a repeated label of a
        derived space."""
        if self._index is None:
            self._index = {lab: i for i, lab in enumerate(self.labels)}
        return self._index

    @property
    def dim(self):
        return len(self.degrees)

    def indices_in_degree(self, deg):
        return [i for i, d in enumerate(self.degrees) if d == deg]

    def vector_degree(self, v):
        """Degree of a nonzero homogeneous sparse vector."""
        degs = {self.degrees[i] for i in v}
        if len(degs) != 1:
            raise ValueError("inhomogeneous vector")
        return degs.pop()

    def __eq__(self, other):
        return self is other or (isinstance(other, GradedVectorSpace)
                                 and self.degrees == other.degrees
                                 and self.labels == other.labels)

    def __repr__(self):
        return f"GradedVectorSpace({self.basis!r})"


class GradedMap:
    """Degree-homogeneous linear map, kept in one store: columns maps a
    source index s to its column {target index t: nonzero int}, no column
    empty, over one positive common denominator den, so the entry at
    (t, s) is columns[s][t] / den.  The pair is reduced by a gcd when the
    map is built, so equal maps have equal columns and den.

    The constructor (rationals keyed (target, source)) and from_columns
    check deg(target) = deg(source) + degree.  compose, +, - and scale
    combine the denominators once per map; add_image adds den times the
    image (numerator units).  entries, by_column, apply_basis and
    __call__ are Fraction views.  A map is immutable; columns and the
    views are shared: read them, never modify them.
    """

    def __init__(self, source, target, degree, entries=None):
        columns = {}
        for (t, s), c in (entries or {}).items():
            columns.setdefault(s, {})[t] = c
        self._store(*_checked(source, target, degree, columns, 1))

    def _store(self, source, target, degree, columns, den, reduced=False):
        """Keep int numerator columns over den > 0, without zeros or empty
        columns, dividing them by the gcd unless they are reduced already;
        their degrees are not checked.  The column dicts are kept when the
        gcd is 1."""
        g = 1 if reduced else den
        for col in columns.values():
            if g == 1:
                break
            g = gcd(g, *col.values())
        if g != 1:
            columns = {s: {t: n // g for t, n in col.items()}
                       for s, col in columns.items()}
        self.source, self.target, self.degree = source, target, degree
        self.columns, self.den = columns, den // g
        self._entries = self._fractions = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, source, target, degree):
        return _built(source, target, degree, {}, 1)

    @classmethod
    def identity(cls, space):
        return _built(space, space, 0, {i: {i: 1} for i in range(space.dim)},
                      1)

    @classmethod
    def from_columns(cls, source, target, degree, cols, den=1):
        """The map whose column s, the image of source basis vector s, is
        cols[s] / den for a sparse vector cols[s] = {target index: value}
        of rationals; cols is a dict or a list indexed by source index."""
        if not isinstance(cols, dict):
            cols = dict(enumerate(cols))
        return _built(*_checked(source, target, degree, cols, den))

    # -- the Fraction views ------------------------------------------------

    @property
    def entries(self):
        """(target index, source index) -> Fraction, the nonzero entries
        column by column; built on first use and shared: read it, never
        modify it."""
        if self._entries is None:
            den = self.den
            self._entries = {(t, s): Fraction(n, den)
                             for s, col in self.columns.items()
                             for t, n in col.items()}
        return self._entries

    def by_column(self):
        """source index -> {target index: Fraction}, built once per map
        and shared by every caller: read it, never modify it."""
        if self._fractions is None:
            den = self.den
            self._fractions = {
                s: {t: Fraction(n, den) for t, n in col.items()}
                for s, col in self.columns.items()}
        return self._fractions

    def apply_basis(self, s):
        """Image of the s-th source basis vector as a fresh dict
        t -> Fraction."""
        den = self.den
        return {t: Fraction(n, den)
                for t, n in self.columns.get(s, {}).items()}

    def __call__(self, vec):
        """Apply to a sparse vector {index: coeff}; the image is a sparse
        vector of Fractions without zero values, in index order."""
        return _pruned(self.add_image({}, vec), self.den)

    # -- the int kernels ---------------------------------------------------

    def add_image(self, acc, vec, scale=1):
        """acc += scale * den * self(vec) for a sparse vector
        {index: coeff} and an int scale: the image in numerator units,
        int when vec is.  Returns acc, which may hold zero values."""
        columns = self.columns
        for m, c in vec.items():
            col = columns.get(m)
            if col:
                if scale != 1:
                    c *= scale
                for t, n in col.items():
                    acc[t] = acc.get(t, 0) + c * n
        return acc

    def compose(self, other):
        """self o other (apply other first)."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition mismatch")
        columns = self.columns
        out = {}
        for s, col in other.columns.items():
            acc = out[s] = {}
            for m, c in col.items():
                f_col = columns.get(m)
                if f_col:
                    for t, n in f_col.items():
                        acc[t] = acc.get(t, 0) + c * n
        return _built(other.source, self.target, self.degree + other.degree,
                      _nonzero(out), self.den * other.den)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        """self + sign other for sign +-1, in one pass over other."""
        if (other.source != self.source or other.target != self.target
                or other.degree != self.degree):
            raise ValueError("sum of incompatible maps")
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        # the columns of self that other does not touch are shared
        columns = {s: {t: a * n for t, n in col.items()} if a != 1 else col
                   for s, col in self.columns.items()}
        for s, col in other.columns.items():
            acc = columns[s] = dict(columns.get(s, ()))
            for t, n in col.items():
                acc[t] = acc.get(t, 0) + b * n
        return _built(self.source, self.target, self.degree,
                      _nonzero(columns), den)

    def scale(self, c):
        """c times the map, for an int or a Fraction c."""
        k = c.numerator
        return _built(self.source, self.target, self.degree,
                      {s: {t: k * n for t, n in col.items()}
                       for s, col in self.columns.items()} if k else {},
                      self.den * c.denominator)

    def __neg__(self):
        # negated numerators over the same den stay reduced
        return _built(self.source, self.target, self.degree,
                      {s: {t: -n for t, n in col.items()}
                       for s, col in self.columns.items()}, self.den, True)

    def is_zero(self):
        return not self.columns

    def __eq__(self, other):
        return (isinstance(other, GradedMap)
                and self.source == other.source and self.target == other.target
                and self.degree == other.degree and self.den == other.den
                and self.columns == other.columns)

    def __repr__(self):
        return (f"GradedMap(deg={self.degree}, "
                f"{sum(map(len, self.columns.values()))} entries)")


class StructureTable:
    """A graded (anti)symmetric bilinear operation on a space, given by its
    structure constants e_i e_j = sum_k c^k_ij e_k.

    The operation has degree `degree`, so c^k_ij != 0 needs
    |e_k| = |e_i| + |e_j| + degree, and it obeys the Koszul swap rule
    e_j e_i = sign(i, j) e_i e_j with

        sign(i, j) = +(-1)^{p_i p_j} (symmetric),  -(-1)^{p_i p_j} (not),
        p_i = |e_i| + degree.

    A dg Lie bracket and a graded commutative product have degree 0; the
    degree -1 Gerstenhaber bracket gets its shifted rule
    [b, a] = -(-1)^{(|a|-1)(|b|-1)} [a, b] from the same formula.  Where
    sign(i, i) = -1 the rule forces e_i e_i = 0, and a nonzero value there
    is refused.

    rows is a dict or an iterable of ((i, j), {k: c}) pairs, in either
    index order, with rational values, divided by den when den is given
    (int numerators over den need no Fractions); values given for the
    same pair add up.  The constants are kept as int numerators over one
    positive common denominator den, the least one, like a GradedMap's,
    in one store by row: rows[i][j] is den e_i e_j for both index orders,
    each row in index order.  numerators(i, j) reads it, numerator_rows()
    gives the pairs i <= j, and add_product works in numerator units,
    adding den times the product.  canonical (the nonzero values for
    i <= j), get and __call__ hand out Fractions, built on first use.
    partners[i] holds the indices j with e_i e_j != 0.  Pairs come in
    index order, and everything handed out is shared: read it, never
    modify it.

    Only this class reads rows: add_product forms products of table
    entries, and the verdict loops first_non_derivation, first_non_jacobi
    and first_non_associative evaluate their identities on the numerators
    (each term comes out the same power of den, times op.den, too large,
    so ints are tested), in lexicographic order, skipping only the pairs
    or triples on which every term vanishes: the witness is the first
    failing one.
    """

    def __init__(self, space, rows=(), degree=0, symmetric=False, den=1):
        self.space = space
        self.degree = degree
        self.symmetric = symmetric
        if isinstance(rows, dict):
            rows = rows.items()
        sums = {}
        for (i, j), val in rows:
            flip = False
            if i > j:
                i, j = j, i
                flip = self._swap_sign(i, j) < 0
            acc = sums.setdefault((i, j), {})
            for k, c in val.items():
                if type(c) is not Fraction and type(c) is not int:
                    c = Fraction(c)
                if flip:
                    c = -c
                acc[k] = acc[k] + c if k in acc else c
        degs = space.degrees
        name = "product" if symmetric else "bracket"
        canonical = {}
        for (i, j), acc in sums.items():
            val = {k: c for k, c in acc.items() if c != 0}
            if not val:
                continue
            if i == j and self._swap_sign(i, i) < 0:
                raise ValueError(
                    "%s: the square of %r must vanish by graded %s"
                    % (name, space.labels[i],
                       "commutativity" if symmetric else "antisymmetry"))
            for k in val:
                if degs[k] != degs[i] + degs[j] + degree:
                    raise ValueError(
                        "%s: the value on %r, %r has a term in %r of the "
                        "wrong degree" % (name, space.labels[i],
                                          space.labels[j], space.labels[k]))
            canonical[(i, j)] = val
        lcd = lcm(*(c.denominator for val in canonical.values()
                    for c in val.values()))
        g = gcd(lcd * den, *(c.numerator * (lcd // c.denominator)
                             for val in canonical.values()
                             for c in val.values())) if den != 1 else 1
        self.den = lcd * den // g
        # in sorted order each row receives its j in index order
        self.rows = [{} for _ in range(space.dim)]
        for (i, j), val in sorted(canonical.items()):
            num = {k: c.numerator * (lcd // c.denominator) // g
                   for k, c in val.items()}
            self.rows[i][j] = num
            if i != j:
                self.rows[j][i] = (num if self._swap_sign(i, j) > 0
                                   else {k: -n for k, n in num.items()})
        self.partners = [set(row) for row in self.rows]
        self._values = None

    def _swap_sign(self, i, j):
        degs = self.space.degrees
        odd = (degs[i] + self.degree) * (degs[j] + self.degree) % 2 == 1
        return -1 if odd == self.symmetric else 1

    def _fractions(self):
        """rows with Fraction values and the canonical dict, built once."""
        if self._values is None:
            den = self.den
            values = [{j: {k: Fraction(n, den) for k, n in num.items()}
                       for j, num in row.items()} for row in self.rows]
            self._values = values, {(i, j): val
                                    for i, row in enumerate(values)
                                    for j, val in row.items() if i <= j}
        return self._values

    @property
    def canonical(self):
        """(i, j) -> e_i e_j with Fraction values for the nonzero pairs
        i <= j, in index order."""
        return self._fractions()[1]

    def get(self, i, j):
        """e_i e_j as a sparse dict k -> Fraction, for any index order."""
        return self._fractions()[0][i].get(j, {})

    def numerator_rows(self):
        """(i, j) -> den e_i e_j as int numerators for the nonzero pairs
        i <= j, in index order: the rows that rebuild the table over den.
        The values are shared: read them, never modify them."""
        return {(i, j): num for i, row in enumerate(self.rows)
                for j, num in row.items() if i <= j}

    def numerators(self, i, j):
        """den e_i e_j as a sparse dict k -> int, for any index order."""
        return self.rows[i].get(j, {})

    def add_product(self, acc, u, v, sign=1):
        """acc += sign * den * u v for sparse vectors {index: coeff} and
        any int factor sign (a sign +-1, or +-2 for the doubled pairs of a
        cup square): the product in numerator units, int when u and v are.
        Returns acc, which may hold zero values."""
        rows = self.rows
        for i, a in u.items():
            row = rows[i]
            if row:
                _add_left(acc, sign * a, row, v)
        return acc

    def __call__(self, u, v):
        """The product of two sparse vectors, with Fraction values, without
        zero values and in index order."""
        return _pruned(self.add_product({}, u, v), self.den)

    def first_non_derivation(self, op):
        """The lexicographically first basis pair (i, j) on which the
        operator op fails to derive the operation, or None.

        The Leibniz rule, with the Koszul sign of op passing the operation
        and e_i (degrees shifted by the operation's degree, as in the swap
        sign), is

            op(e_i e_j) = (op e_i) e_j + (-1)^{|op| p_i} e_i (op e_j),
            p_i = |e_i| + degree.

        The first term vanishes unless j is in rows[i]; the second unless
        j is in rows[k] for some k in supp op e_i; the third unless some k
        in rows[i] lies in supp op e_j, that is j is in
        op_rows[k] = {j : k in supp op e_j}.  Only the pairs with j in one
        of these sets are evaluated, so the work follows the nonzeros of
        the table and of op, not dim^2.
        """
        cols = op.columns
        rows = self.rows
        degs = self.space.degrees
        op_rows = {}
        for j, col in cols.items():
            for k in col:
                op_rows.setdefault(k, set()).add(j)
        none = {}
        for i, row in enumerate(rows):
            col_i = cols.get(i, none)
            js = set(row)
            for k in col_i:
                js.update(rows[k])
            for k in row:
                js.update(op_rows.get(k, ()))
            sign = -1 if op.degree * (degs[i] + self.degree) % 2 else 1
            for j in sorted(js):
                bad = op.add_image({}, row.get(j, none))
                _add_right(bad, -1, col_i, rows, j)
                _add_left(bad, -sign, row, cols.get(j, none))
                if any(bad.values()):
                    return i, j
        return None

    def first_non_jacobi(self):
        """The lexicographically first sorted triple (i, j, k) on which the
        Jacobiator of a degree-0 bracket does not vanish, or None.

        The bracket is graded antisymmetric, so its Jacobiator
        J(x, y, z) = [x,[y,z]] - [[x,y],z] - (-1)^{|x||y|} [y,[x,z]] is
        totally graded antisymmetric: a triple fails exactly when its
        sorted form does.  Each term of J(e_i, e_j, e_k) brackets e_i with
        something, so an i with an empty row is skipped; and J vanishes
        when [e_i, e_j], [e_j, e_k] and [e_i, e_k] all do, so for
        [e_i, e_j] = 0 only the k in rows[i] or rows[j] are visited.
        """
        rows = self.rows
        degs = self.space.degrees
        dim = len(rows)
        none = {}
        for i, row_i in enumerate(rows):
            if not row_i:
                continue
            for j in range(i, dim):
                row_j = rows[j]
                val_ij = row_i.get(j, none)
                ks = range(j, dim) if val_ij else sorted(
                    k for k in row_i.keys() | row_j.keys() if k >= j)
                sign = 1 if degs[i] % 2 and degs[j] % 2 else -1
                for k in ks:
                    # [x,[y,z]] - [[x,y],z] - (-1)^{|x||y|} [y,[x,z]]
                    bad = _add_left({}, 1, row_i, row_j.get(k, none))
                    _add_right(bad, -1, val_ij, rows, k)
                    _add_left(bad, sign, row_j, row_i.get(k, none))
                    if any(bad.values()):
                        return i, j, k
        return None

    def first_non_associative(self):
        """The lexicographically first basis triple (i, j, k) with
        (e_i e_j) e_k != e_i (e_j e_k), or None.

        Both sides multiply e_i by something, so an i with an empty row is
        skipped; and both vanish when e_i e_j = 0 and e_j e_k = 0, so for
        e_i e_j = 0 only the k in rows[j] are visited (a row lists its j
        in index order).
        """
        rows = self.rows
        dim = len(rows)
        none = {}
        for i, row_i in enumerate(rows):
            if not row_i:
                continue
            for j in range(dim):
                row_j = rows[j]
                val_ij = row_i.get(j, none)
                for k in range(dim) if val_ij else row_j:
                    bad = _add_left({}, -1, row_i, row_j.get(k, none))
                    _add_right(bad, 1, val_ij, rows, k)
                    if any(bad.values()):
                        return i, j, k
        return None


def _add_left(acc, c, row, vec):
    """acc += c e_x vec for row = rows[x] of a table, in numerator units;
    returns acc, which may hold zero values."""
    for m, b in vec.items():
        val = row.get(m)
        if val:
            b *= c
            for k, n in val.items():
                acc[k] = acc.get(k, 0) + b * n
    return acc


def _add_right(acc, c, vec, rows, y):
    """acc += c vec e_y for the rows of a table and an int c, in
    numerator units."""
    for m, b in vec.items():
        val = rows[m].get(y)
        if val:
            b *= c
            for k, n in val.items():
                acc[k] = acc.get(k, 0) + b * n


def _checked(source, target, degree, cols, den):
    """(source, target, degree, columns, den) for the map with columns
    cols / den, cols holding ints and Fractions: its int numerator
    columns, without zeros or empty columns, and their denominator.
    Raises ValueError for a nonzero entry outside the degree."""
    degree = int(degree)
    columns = {}
    ints = True
    for s, col in cols.items():
        want = source.degrees[s] + degree
        kept = {}
        for t, c in col.items():
            if c:
                if target.degrees[t] != want:
                    raise ValueError(
                        "inhomogeneous entry %r -> %r for degree %d map"
                        % (source.basis[s], target.basis[t], degree))
                if type(c) is not int:
                    ints = False
                kept[t] = c
        if kept:
            columns[s] = kept
    if not ints:
        lcd = lcm(*(c.denominator for col in columns.values()
                    for c in col.values()))
        columns = {s: {t: c.numerator * (lcd // c.denominator)
                       for t, c in col.items()} for s, col in columns.items()}
        den *= lcd
    return source, target, degree, columns, den


def _nonzero(columns):
    """The columns without their zero values and empty columns; a column
    without zeros is kept, not copied."""
    return {s: col if all(col.values())
            else {t: n for t, n in col.items() if n}
            for s, col in columns.items() if any(col.values())}


def _built(source, target, degree, columns, den, reduced=False):
    """The map with int numerator columns over den > 0 (GradedMap._store),
    degrees unchecked: the map kernels' operands are homogeneous."""
    m = GradedMap.__new__(GradedMap)
    m._store(source, target, degree, columns, den, reduced)
    return m


def _pruned(acc, den):
    """The sparse vector acc / den with Fraction values, without its zero
    values, in index order; acc holds ints or Fractions."""
    return {k: Fraction(c, den) if type(c) is int else c / den
            for k, c in sorted(acc.items()) if c}


def suspend_space(space):
    """The suspension sM; labels are prefixed with "s" so that sM and M
    never collide."""
    return GradedVectorSpace([("s" + lab, deg + 1) for lab, deg in space.basis])


def suspend_map(phi):
    """Induced map s o phi o s^{-1} on the suspended spaces.

    The Koszul rule for moving phi past one s contributes (-1)^{|phi|}, so
    the induced map is (-1)^{|phi|} with the same matrix; in particular a
    differential d acquires a global -1, matching the convention that the
    differential on sM is -s d s^{-1}.
    """
    src = suspend_space(phi.source)
    tgt = suspend_space(phi.target)
    columns = (-phi if phi.degree % 2 else phi).columns
    return _built(src, tgt, phi.degree, columns, phi.den)
