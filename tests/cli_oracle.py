"""The problem-file loader as it stood before its rows were read on a fast
path, kept as an exact oracle for `cli.load_problem`.

Every row of a section formatted its location "section[pos]" before any
check, looked each label up through `look` and parsed each coefficient
text with `cli._ratio`, however often the same text came back.  The
helpers it shares with the library (`_parse_json`, `_rows`, `_label`,
`_ratio`) are the library's own.
"""

import hashlib
from fractions import Fraction
from math import lcm

from hptmaster.bv import BVData
from hptmaster.cli import InputError, _label, _parse_json, _ratio, _rows
from hptmaster.complexes import ChainComplex
from hptmaster.dgla import DgLieAlgebra
from hptmaster.graded import GradedMap, GradedVectorSpace


def _is_row(entry, length):
    return isinstance(entry, list) and len(entry) == length


def load_problem(path):
    """Parse a problem file into ("dgla", DgLieAlgebra) or ("bv", BVData)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    doc = _parse_json(raw, path)
    if not isinstance(doc, dict) or "basis" not in doc:
        raise InputError("%s: missing 'basis' section" % path)
    digest = hashlib.sha256(raw).hexdigest()
    kind = "bv" if ("product" in doc or "delta" in doc) else "dgla"
    grading = doc.get("grading",
                      "cohomological" if kind == "bv" else "homological")
    if grading not in ("homological", "cohomological"):
        raise InputError("grading must be homological or cohomological")

    basis = []
    for pos, entry in enumerate(_rows(doc, "basis")):
        where = "basis[%d]" % pos
        if (not _is_row(entry, 2) or not isinstance(entry[1], int)
                or isinstance(entry[1], bool)):
            raise InputError("%s: expected [label, integer degree]" % where)
        basis.append((_label(entry[0], where), entry[1]))
    if len({lab for lab, _ in basis}) != len(basis):
        raise InputError("duplicate basis labels")
    flip = ((kind == "dgla" and grading == "cohomological")
            or (kind == "bv" and grading == "homological"))
    if flip:
        basis = [(lab, -deg) for lab, deg in basis]
    space = GradedVectorSpace(basis)
    index = space.index

    def look(label, where):
        if _label(label, where) not in index:
            raise InputError("%s: unknown label %r" % (where, label))
        return index[label]

    def section(name, shape):
        width = shape.count(",") + 1
        rows = []
        for pos, entry in enumerate(_rows(doc, name)):
            where = "%s[%d]" % (name, pos)
            if not _is_row(entry, width):
                raise InputError("%s: expected %s" % (where, shape))
            at = tuple([look(label, where) for label in entry[:-1]])
            rows.append((at, *_ratio(entry[-1], where)))
        return rows, lcm(*(q for _, _, q in rows))

    def sparse_map(name, degree):
        rows, den = section(name, "[src, dst, coefficient]")
        columns = {}
        for (src, dst), p, q in rows:
            col = columns.setdefault(src, {})
            col[dst] = col.get(dst, 0) + p * (den // q)
        try:
            return GradedMap.from_columns(space, space, degree, columns, den)
        except ValueError as exc:
            raise InputError("%s: %s" % (name, exc))

    def bilinear_rows(name):
        return section(name, "[x, y, dst, coefficient]")

    def fraction_rows(name):
        return [((i, j), {k: Fraction(p, q)})
                for (i, j, k), p, q in bilinear_rows(name)[0]]

    if kind == "dgla":
        d = sparse_map("differential", -1)
        rows, den = bilinear_rows("bracket")
        bracket = [((i, j), {k: p * (den // q)}) for (i, j, k), p, q in rows]
        try:
            g = DgLieAlgebra(ChainComplex(space, d), bracket, den=den)
        except (ValueError, AssertionError) as exc:
            raise InputError(str(exc))
        return kind, g, digest

    d = sparse_map("differential", 1)
    delta = sparse_map("delta", -1)
    product = fraction_rows("product")
    unit_label = doc.get("unit")
    unit_index = look(unit_label, "unit") if unit_label is not None else 0
    bracket = fraction_rows("bracket") if "bracket" in doc else None
    try:
        bv = BVData(space, product, delta, bracket, d=d,
                    unit_index=unit_index)
    except ValueError as exc:
        raise InputError(str(exc))
    return kind, bv, digest
