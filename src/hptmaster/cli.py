"""Command-line front end: problem files, run reports, subcommands.

Problem files are JSON documents with exact rationals written as strings
("3", "-1/2"); reports are JSON with sorted keys so that identical inputs
produce byte-identical output.  Exit codes: 0 all checks pass, 1 a
verification failed, 2 the input could not be parsed or was inconsistent.
Wall-clock timing goes to stderr only, never into the report bytes.

A coefficient is read as an int pair (p, q).  A dg Lie problem reaches
the library as int numerators over each section's lcm, and tau and the
coderivation are written to the transfer report from their int columns,
as is the massey theta.  Fractions are built for the product and bracket
rows of BV problem files and for theta files, whose modules keep
Fraction vectors, and are read back for the bracket section of a report
and for the rest of the bv and massey reports.
"""

import argparse
import functools
import hashlib
import json
import random
import re
import sys
import time
from fractions import Fraction
from math import gcd, lcm

from .bv import (BVData, GerstenhaberAlgebra, addendum_382_flat_identity,
                 bracket_from_generator, kahler_formality_check,
                 theorem_38_pipeline, validate_bv)
from .complexes import ChainComplex, build_contraction
from .deformation import massey_parameters, morgan_example, wedge_of_spheres
from .dgla import DgLieAlgebra, validate_dgla
from .graded import GradedMap, GradedVectorSpace
from .transfer import transfer, verify_master
from .words import extract_brackets, word_label

SCHEMA = "hptmaster/1"
EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2


class InputError(Exception):
    pass


# the whole coefficient grammar: an integer, a decimal or p/q with ASCII
# digits, in groups (sign, integer part, denominator, decimals, decimals
# after a bare point); Fraction alone would also take exponents (unbounded
# work for "1e1000000"), spaces and, from Python 3.11 on, underscores
_RATIONAL = re.compile(r"([+-]?)(?:([0-9]+)(?:/([0-9]+)|\.([0-9]*))?"
                       r"|\.([0-9]+))")


def _ratio(text, where):
    """The coefficient text as ints (p, q), q > 0, with p / q its value.

    The digits are converted as Fraction(text) converts them, so an
    integer past the interpreter's int-string limit, and a zero
    denominator, are refused with the messages Fraction gives."""
    m = _RATIONAL.fullmatch(str(text))
    if m is None:
        raise InputError("%s: bad rational %r (expected an integer, a "
                         "decimal or p/q)" % (where, text))
    sign, whole, den, decimals, fraction = m.groups()
    decimals = decimals or fraction
    try:
        p = int(whole or "0")
        if den:
            q = int(den)
        else:
            q = 1
            if decimals:
                q = 10 ** len(decimals)
                p = p * q + int(decimals)
    except ValueError as exc:
        raise InputError("%s: bad rational %r (%s)" % (where, text, exc))
    if sign == "-":
        p = -p
    if not q:
        raise InputError("%s: bad rational %r (Fraction(%d, 0))"
                         % (where, text, p))
    return p, q


def _ratio_str(n, den):
    """n / den in lowest terms as "p" or "p/q", for ints n and den > 0."""
    g = gcd(n, den)
    if g == den:
        return str(n // g)
    return "%d/%d" % (n // g, den // g)


def frac_str(value):
    return _ratio_str(value.numerator, value.denominator)


def _parse_json(raw, path):
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise InputError("%s: byte %d: not UTF-8 text" % (path, exc.start))
    except json.JSONDecodeError as exc:
        raise InputError("%s: line %d column %d: %s"
                         % (path, exc.lineno, exc.colno, exc.msg))
    except RecursionError:
        raise InputError("%s: JSON nested too deeply" % path)
    except ValueError as exc:
        # an integer literal past the interpreter's int-string limit
        raise InputError("%s: %s" % (path, exc))


def _rows(doc, section):
    """A list-valued section of the problem document (absent means empty)."""
    rows = doc.get(section, [])
    if not isinstance(rows, list):
        raise InputError("%s: expected a list of rows" % section)
    return rows


def _is_row(entry, length):
    return isinstance(entry, list) and len(entry) == length


def _label(value, where):
    if not isinstance(value, str):
        raise InputError("%s: label must be a string, not %s"
                         % (where, json.dumps(value)))
    return value


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
    # internal conventions: dgLa homological, BV cohomological
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
        """The rows of a section in file order, each checked, as (label
        indices, p, q), and the lcm of their q."""
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
        # columns in file order, duplicate rows added up as numerators
        # over the section's lcm
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
        # rows in file order; the structure table canonicalises them and
        # names the section in its errors
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
    try:
        plain = GerstenhaberAlgebra(space, product, d=d,
                                    unit_index=unit_index)
        if "bracket" in doc:
            bracket = fraction_rows("bracket")
        else:
            bracket = bracket_from_generator(plain, delta)
        # the bracket joins the product table already built
        algebra = GerstenhaberAlgebra(space, plain.multiply, bracket, d=d,
                                      unit_index=unit_index)
        bv = BVData(algebra, delta)
    except (ValueError, AssertionError) as exc:
        raise InputError(str(exc))
    return kind, bv, digest


# -- report serialization ----------------------------------------------------

def _sparse_labels(space, val):
    return {space.labels[i]: frac_str(c) for i, c in sorted(val.items())}


def serialize_transfer(result):
    coalg = result.coalg
    small = result.contraction.small.space

    def int_columns(m, labels):
        # a map's columns written from its int numerators over den, keyed
        # by source word
        return {coalg.words[s]: {labels[t]: _ratio_str(n, m.den)
                                 for t, n in sorted(col.items())}
                for s, col in m.columns.items()}

    tau = {word_label(w, coalg.gen_space): col for w, col
           in int_columns(result.tau.hom, result.g.space.labels).items()}
    brackets = {"l%d" % k: {word_label(w, coalg.gen_space):
                            _sparse_labels(small, val)
                            for w, val in table.items()}
                for k, table in extract_brackets(coalg).items()}
    # the coderivation's columns on the words of length b are lambda_b
    coder = {}
    for w, col in int_columns(coalg.perturbation,
                            coalg.gen_space.labels).items():
        coder.setdefault("arity_%d" % len(w), {})[
            word_label(w, coalg.gen_space)] = col
    return {
        "truncation": result.truncation,
        "homology_basis": [[lab, deg] for lab, deg in small.basis],
        "tau": tau,
        "coderivation": coder,
        "brackets": brackets,
    }


def serialize_mc(mc):
    return {
        "coordinates": list(mc.coordinates),
        "truncation": mc.truncation,
        "equations": {target: {word_label(w, mc.space): frac_str(c)
                               for w, c in poly.items()}
                      for target, poly in mc.equations.items()},
    }


def _emit(report, args, started):
    payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    out = getattr(args, "output", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    sys.stderr.write("elapsed: %.3fs\n" % (time.monotonic() - started))


# -- subcommands -------------------------------------------------------------

def cmd_validate(args, started):
    kind, obj, digest = load_problem(args.file)
    if kind == "dgla":
        verdict = validate_dgla(obj)
    else:
        verdict = validate_bv(obj)
    report = {"schema": SCHEMA, "command": "validate", "kind": kind,
              "input_digest": digest, "verdict": verdict}
    _emit(report, args, started)
    return EXIT_OK if verdict["passed"] else EXIT_VERIFY


def cmd_transfer(args, started):
    if args.max_word_length < 2:
        raise InputError("--max-word-length must be at least 2")
    kind, g, digest = load_problem(args.file)
    if kind != "dgla":
        raise InputError("transfer expects a dg Lie algebra problem file")
    verdict = validate_dgla(g)
    report = {"schema": SCHEMA, "command": "transfer",
              "input_digest": digest,
              "max_word_length": args.max_word_length,
              "valid_input": verdict["passed"]}
    if not verdict["passed"]:
        report["verdict"] = verdict
        _emit(report, args, started)
        return EXIT_VERIFY
    con = build_contraction(g.complex)
    result = transfer(g, con, args.max_word_length)
    report["result"] = serialize_transfer(result)
    code = EXIT_OK
    if args.check:
        master = verify_master(result)
        report["checks"] = {
            "master_equation": master["passed"],
            "failing_word_lengths": master.get("failing_lengths", []),
            "sh_lie": master["sh_lie"]["passed"],
        }
        if not master["passed"]:
            code = EXIT_VERIFY
    _emit(report, args, started)
    return code


def cmd_bv(args, started):
    if args.max_word_length < 2:
        raise InputError("--max-word-length must be at least 2")
    kind, bv, digest = load_problem(args.file)
    if kind != "bv":
        raise InputError("bv expects a problem file with product/delta")
    report = {"schema": SCHEMA, "command": "bv", "input_digest": digest,
              "pipeline": args.pipeline,
              "max_word_length": args.max_word_length}
    verdict = validate_bv(bv)
    report["axioms"] = verdict
    if not verdict["passed"]:
        _emit(report, args, started)
        return EXIT_VERIFY
    # bv computes its Delta-splitting and formality report once, shared
    # by the predicate and the pipeline
    try:
        predicate = kahler_formality_check(bv)
        report["formality_predicate"] = predicate
        if not predicate["passed"]:
            _emit(report, args, started)
            return EXIT_VERIFY
        if args.pipeline == "flat-unit":
            pipeline = addendum_382_flat_identity
        else:
            pipeline = theorem_38_pipeline
        result, pipe = pipeline(bv, args.max_word_length)
    except ValueError as exc:
        report["error"] = str(exc)
        _emit(report, args, started)
        return EXIT_VERIFY
    report["pipeline_report"] = _plain(pipe)
    report["result"] = serialize_transfer(result)
    _emit(report, args, started)
    return EXIT_OK if pipe["passed"] else EXIT_VERIFY


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, Fraction):
        return frac_str(obj)
    return obj


def _parse_theta(args):
    # keyed by word labels, which morgan_example reads
    if args.theta is None and args.seed is None:
        return None
    if args.theta == "zero":
        return {}
    if args.seed is not None and args.theta is None:
        _, sH, words = massey_parameters()
        rng = random.Random(args.seed)
        theta = {}
        while not any(theta.values()):
            theta = {word_label(w, sH): Fraction(rng.randrange(-3, 4))
                     for w in words}
        return theta
    try:
        with open(args.theta, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (args.theta, exc))
    doc = _parse_json(raw, args.theta)
    if not isinstance(doc, dict):
        raise InputError("theta: expected an object of word -> rational")
    return {key: Fraction(*_ratio(value, "theta"))
            for key, value in doc.items()}


def cmd_massey(args, started):
    try:
        dims = [int(part) for part in args.spheres.split(",") if part]
    except ValueError:
        raise InputError("--spheres expects comma-separated integers")
    if not dims or any(n < 2 for n in dims):
        raise InputError("sphere dimensions must be integers >= 2")
    report = {"schema": SCHEMA, "command": "massey", "spheres": dims,
              "order": args.order}
    if sorted(dims) == [3, 3, 12]:
        theta = _parse_theta(args)
        try:
            instance, morgan = morgan_example(args.order, theta=theta)
        except ValueError as exc:
            raise InputError(str(exc))
        report["report"] = _plain(morgan)
        coalg = instance.coalg
        theta = coalg.perturbation
        report["theta"] = {
            word_label(coalg.words[s], coalg.gen_space):
            _ratio_str(sum(col.values()), theta.den)
            for s, col in theta.columns.items()}
        report["mc_equations"] = serialize_mc(instance.mc)
        _emit(report, args, started)
        return EXIT_OK if morgan["sh_lie"] else EXIT_VERIFY
    if args.order < 1:
        raise InputError("--order must be at least 1")
    cap = args.order
    try:
        lie = wedge_of_spheres(dims, cap)
    except ValueError as exc:
        raise InputError(str(exc))
    report["free_lie"] = {
        "experimental_odd_generators": lie.experimental,
        "dimensions_by_length": {str(l): lie.dimension(l)
                                 for l in range(1, cap + 1)},
        "dimensions_by_degree": {str(d): n for d, n
                                 in lie.dimensions_by_degree().items()},
    }
    _emit(report, args, started)
    return EXIT_OK


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared by every
    later one: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="hptmaster",
        description="Exact homotopy transfer for dg Lie and BV algebras.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="check the axioms of a problem file")
    p.add_argument("file")
    p.add_argument("--output")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("transfer", help="transfer onto homology")
    p.add_argument("file")
    p.add_argument("--max-word-length", type=int, default=4)
    p.add_argument("--check", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("bv", help="formality pipeline for BV problem files")
    p.add_argument("file")
    p.add_argument("--pipeline", choices=("full", "flat-unit"),
                   default="full")
    p.add_argument("--max-word-length", type=int, default=4)
    p.add_argument("--output")
    p.set_defaults(func=cmd_bv)

    p = sub.add_parser("massey", help="wedge-of-spheres example family")
    p.add_argument("--spheres", default="3,3,12")
    p.add_argument("--order", type=int, default=5)
    p.add_argument("--theta", default=None,
                   help="'zero' or a JSON file of word -> rational")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output")
    p.set_defaults(func=cmd_massey)
    return parser


def main(argv=None):
    started = time.monotonic()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, started)
    except InputError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
