"""Z-graded vector spaces, homogeneous linear maps, and Koszul signs.

Everything is exact over the rationals (fractions.Fraction).  Degrees are
homological throughout the library; cohomological input is converted at the
boundary via deg_hom = -deg_cohom.

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

ZERO = Fraction(0)
ONE = Fraction(1)


class GradedVectorSpace:
    """Finite ordered basis of (label, degree) pairs; labels are unique."""

    def __init__(self, basis):
        self.basis = [(str(lab), int(deg)) for lab, deg in basis]
        self.index = {}
        for i, (lab, _) in enumerate(self.basis):
            if lab in self.index:
                raise ValueError(f"duplicate basis label {lab!r}")
            self.index[lab] = i
        self.degrees = [deg for _, deg in self.basis]
        self.labels = [lab for lab, _ in self.basis]

    @property
    def dim(self):
        return len(self.basis)

    def dims_by_degree(self):
        out = {}
        for _, deg in self.basis:
            out[deg] = out.get(deg, 0) + 1
        return out

    def indices_in_degree(self, deg):
        return [i for i, d in enumerate(self.degrees) if d == deg]

    def vector_degree(self, v):
        """Degree of a nonzero homogeneous sparse vector."""
        degs = {self.degrees[i] for i in v}
        if len(degs) != 1:
            raise ValueError("inhomogeneous vector")
        return degs.pop()

    def __eq__(self, other):
        return isinstance(other, GradedVectorSpace) and self.basis == other.basis

    def __repr__(self):
        return f"GradedVectorSpace({self.basis!r})"


class GradedMap:
    """Degree-homogeneous linear map, stored sparsely.

    entries maps (target_index, source_index) -> Fraction.  Every nonzero
    entry must satisfy deg(target) = deg(source) + degree.

    entries is immutable after construction: every operation returns a
    new map.  by_column relies on this, since it indexes the entries by
    source column on first use and keeps that index on the map.
    """

    def __init__(self, source, target, degree, entries=None, check=True):
        self.source = source
        self.target = target
        self.degree = int(degree)
        self.entries = {}
        self._columns = None
        if entries:
            for (t, s), c in entries.items():
                if type(c) is not Fraction:
                    c = Fraction(c)
                if c != 0:
                    self.entries[(t, s)] = c
        if check:
            for (t, s) in self.entries:
                if target.degrees[t] != source.degrees[s] + self.degree:
                    raise ValueError(
                        "inhomogeneous entry %r -> %r for degree %d map"
                        % (source.basis[s], target.basis[t], self.degree))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, source, target, degree):
        return cls(source, target, degree, {}, check=False)

    @classmethod
    def identity(cls, space):
        ent = {(i, i): ONE for i in range(space.dim)}
        return cls(space, space, 0, ent, check=False)

    @classmethod
    def from_columns(cls, source, target, degree, cols):
        """cols[s] is the image of source basis vector s as a sparse
        vector {target index: coeff}."""
        return cls(source, target, degree,
                   {(t, s): c for s, col in enumerate(cols)
                    for t, c in col.items()})

    # -- basic algebra -----------------------------------------------------

    def __call__(self, vec):
        """Apply to a sparse vector {index: coeff}; the image is a sparse
        vector without zero values, in index order."""
        return _pruned(self.add_image({}, vec))

    def by_column(self):
        """source index -> {target index: coeff}, built once per map and
        shared by every caller: read it, never modify it."""
        if self._columns is None:
            columns = {}
            for (t, s), c in self.entries.items():
                columns.setdefault(s, {})[t] = c
            self._columns = columns
        return self._columns

    def apply_basis(self, s):
        """Image of the s-th source basis vector as a fresh dict t -> coeff."""
        return dict(self.by_column().get(s, ()))

    def add_image(self, acc, vec, scale=ONE):
        """acc += scale * self(vec) for a sparse vector {index: coeff};
        returns acc, which may hold zero values."""
        if scale != 1:
            vec = {m: c * scale for m, c in vec.items()}
        columns = self.by_column()
        for m, c in vec.items():
            col = columns.get(m)
            if col:
                for t, c2 in col.items():
                    acc[t] = acc.get(t, ZERO) + c * c2
        return acc

    def compose(self, other):
        """self o other (apply other first)."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition mismatch")
        ent = {}
        columns = self.by_column()
        for (m, s), c in other.entries.items():
            for t, c2 in columns.get(m, {}).items():
                key = (t, s)
                ent[key] = ent.get(key, ZERO) + c * c2
        ent = {k: v for k, v in ent.items() if v != 0}
        return GradedMap(other.source, self.target, self.degree + other.degree,
                         ent, check=False)

    def __add__(self, other):
        if (other.source != self.source or other.target != self.target
                or other.degree != self.degree):
            raise ValueError("sum of incompatible maps")
        ent = dict(self.entries)
        for k, c in other.entries.items():
            ent[k] = ent.get(k, ZERO) + c
        ent = {k: v for k, v in ent.items() if v != 0}
        return GradedMap(self.source, self.target, self.degree, ent, check=False)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        ent = {k: c * v for k, v in self.entries.items()} if c else {}
        return GradedMap(self.source, self.target, self.degree, ent, check=False)

    def __neg__(self):
        return self.scale(-1)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, GradedMap)
                and self.source == other.source and self.target == other.target
                and self.degree == other.degree and self.entries == other.entries)

    def __repr__(self):
        return (f"GradedMap(deg={self.degree}, "
                f"{len(self.entries)} entries)")


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
    index order; values given for the same pair add up.  canonical holds
    the nonzero values for i <= j, partners[i] the indices j with
    e_i e_j != 0; both are built once and shared: read them, never modify
    them.  Products of table entries are formed by add_product only.
    """

    def __init__(self, space, rows=(), degree=0, symmetric=False):
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
                if type(c) is not Fraction:
                    c = Fraction(c)
                if flip:
                    c = -c
                acc[k] = acc[k] + c if k in acc else c
        degs = space.degrees
        name = "product" if symmetric else "bracket"
        self.canonical = {}
        self.signed = {}
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
            self.canonical[(i, j)] = self.signed[(i, j)] = val
            if i != j:
                self.signed[(j, i)] = (val if self._swap_sign(i, j) > 0
                                       else {k: -c for k, c in val.items()})
        self.partners = [set() for _ in range(space.dim)]
        for i, j in self.signed:
            self.partners[i].add(j)

    def _swap_sign(self, i, j):
        degs = self.space.degrees
        odd = (degs[i] + self.degree) * (degs[j] + self.degree) % 2 == 1
        return -1 if odd == self.symmetric else 1

    def get(self, i, j):
        """e_i e_j as a sparse dict k -> coefficient, for any index order;
        shared, so read it, never modify it."""
        return self.signed.get((i, j), {})

    def add_product(self, acc, u, v, sign=1):
        """acc += sign * u v for sparse vectors {index: coeff} and an int
        sign of +1 or -1; returns acc, which may hold zero values.

        Unit coefficients (`is ONE`) are not multiplied out."""
        signed = self.signed
        for i, a in u.items():
            for j, b in v.items():
                val = signed.get((i, j))
                if not val:
                    continue
                ab = b if a is ONE else a if b is ONE else a * b
                if sign < 0:
                    ab = -ab
                if ab is ONE:
                    for k, c in val.items():
                        acc[k] = acc[k] + c if k in acc else c
                else:
                    for k, c in val.items():
                        acc[k] = acc.get(k, ZERO) + ab * c
        return acc

    def __call__(self, u, v):
        """The product of two sparse vectors, without zero values and in
        index order."""
        return _pruned(self.add_product({}, u, v))

    def first_non_derivation(self, op):
        """The lexicographically first basis pair (i, j) on which the
        operator op fails to derive the operation, or None.

        The Leibniz rule, with the Koszul sign of op passing the operation
        and e_i (degrees shifted by the operation's degree, as in the swap
        sign), is

            op(e_i e_j) = (op e_i) e_j + (-1)^{|op| p_i} e_i (op e_j),
            p_i = |e_i| + degree.

        A pair with e_i e_j = 0, op e_i = 0 and op e_j = 0 cannot fail, so
        only the other pairs are evaluated; the witness is the same.
        """
        cols = op.by_column()
        degs = self.space.degrees
        dim = self.space.dim
        for i in range(dim):
            col_i = cols.get(i)
            js = range(dim) if col_i else sorted(self.partners[i].union(cols))
            sign = -1 if op.degree * (degs[i] + self.degree) % 2 else 1
            for j in js:
                bad = op.add_image({}, self.get(i, j))
                if col_i:
                    self.add_product(bad, col_i, {j: ONE}, -1)
                col_j = cols.get(j)
                if col_j:
                    self.add_product(bad, {i: ONE}, col_j, -sign)
                if any(bad.values()):
                    return i, j
        return None


def _pruned(acc):
    """The sparse vector acc without its zero values, in index order."""
    return {k: acc[k] for k in sorted(acc) if acc[k]}


def hom_differential(phi, d_src, d_tgt):
    """D(phi) = d_tgt o phi - (-1)^{|phi|} phi o d_src."""
    if d_src.source != phi.source or d_tgt.source != phi.target:
        raise ValueError("differential/space mismatch")
    sign = -1 if phi.degree % 2 == 0 else 1
    return d_tgt.compose(phi) + phi.compose(d_src).scale(sign)


def koszul_sign(permutation, degrees):
    """Sign of permuting homogeneous factors of the given degrees.

    permutation[i] = original position of the element now at slot i.  The
    sign is (-1)^k with k the number of inversions (i < j, permutation[i] >
    permutation[j]) in which both factors have odd degree.
    """
    perm = list(permutation)
    if sorted(perm) != list(range(len(degrees))):
        raise ValueError("malformed permutation")
    odd = [p for p in perm if degrees[p] % 2]
    inversions = sum(a > b for i, a in enumerate(odd) for b in odd[i + 1:])
    return -ONE if inversions % 2 else ONE


def suspend_space(space):
    """The suspension sM; labels are prefixed with "s" so that sM and M
    never collide."""
    return GradedVectorSpace([("s" + lab, deg + 1) for lab, deg in space.basis])


def suspension_iso(space):
    """The canonical degree-1 isomorphism M -> sM (entries all 1)."""
    ent = {(i, i): ONE for i in range(space.dim)}
    return GradedMap(space, suspend_space(space), 1, ent, check=False)


def suspend_map(phi):
    """Induced map s o phi o s^{-1} on the suspended spaces.

    The Koszul rule for moving phi past one s contributes (-1)^{|phi|}, so
    the induced map is (-1)^{|phi|} with the same matrix; in particular a
    differential d acquires a global -1, matching the convention that the
    differential on sM is -s d s^{-1}.
    """
    src = suspend_space(phi.source)
    tgt = suspend_space(phi.target)
    sign = -1 if phi.degree % 2 else 1
    ent = {k: c * sign for k, c in phi.entries.items()}
    return GradedMap(src, tgt, phi.degree, ent, check=False)
