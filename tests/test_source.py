"""Source hygiene of the library modules, and README's example."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hptmaster"
BENCH = ROOT / "bench"


def unread_imports(source):
    """[(line, name)] of the names bound by imports that are never read."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def names_a_label(node):
    """Does the expression name a label: a name or attribute holding
    "lab", such as lab, label, labels or word_label?"""
    return any((isinstance(n, ast.Name) and "lab" in n.id)
               or (isinstance(n, ast.Attribute) and "lab" in n.attr)
               for n in ast.walk(node))


def prefix_handling(source, allowed=()):
    """[(line, function)] of the places that add or strip the "s" that
    suspension puts before a label: a string constant "s" (or a format
    string that begins with it) or a [1:] slice of an expression that
    names a label, outside the functions named in allowed.  A [1:] of
    anything else, such as the suffix w[1:] of a word tuple, keeps the
    prefix of no label."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
            if func in allowed:
                return
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value == "s" or node.value.startswith(("s%", "s{")):
                found.append((node.lineno, func))
        elif (isinstance(node, ast.Subscript)
              and isinstance(node.slice, ast.Slice)
              and node.slice.upper is None and node.slice.step is None
              and isinstance(node.slice.lower, ast.Constant)
              and node.slice.lower.value == 1 and names_a_label(node.value)):
            found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return sorted(found)


def test_prefix_handling_is_found():
    source = ('def f(lab):\n    return "s" + lab, "s%s" % lab\n'
              'def g(lab):\n    return lab[1:] if lab.startswith("s") else 0\n'
              'x = f"s{1}"[1:2]\n')
    assert prefix_handling(source) == [(2, "f"), (2, "f"), (4, "g"),
                                       (4, "g"), (5, None)]
    assert prefix_handling(source, {"f", "g"}) == [(5, None)]
    # a word suffix is not a label; a label reached through an attribute
    # or a call is
    source = ('def h(w, coalg):\n    return w[1:], coalg.words[1:]\n'
              'def k(space, w):\n'
              '    return space.labels[0][1:], word_label(w, space)[1:]\n')
    assert prefix_handling(source) == [(4, "k"), (4, "k")]


def test_only_suspend_space_handles_the_suspension_prefix():
    # words are index tuples, so no module reads a suspended label back
    found = {p.name: prefix_handling(
        p.read_text(), {"suspend_space"} if p.name == "graded.py" else ())
        for p in sorted(SRC.glob("*.py"))}
    assert {name: f for name, f in found.items() if f} == {}


def test_unread_imports_are_found():
    source = ("import os.path\nfrom . import linalg\n"
              "from .graded import ONE, ZERO as Z\nprint(ONE, linalg.rank)\n")
    assert unread_imports(source) == [(1, "os"), (3, "Z")]


def test_every_library_import_is_read():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unread = {p.name: unread_imports(p.read_text()) for p in modules}
    assert {name: found for name, found in unread.items() if found} == {}


def attribute_reads(source, attr):
    """[line] of the places that read the attribute attr of any object."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == attr
                  and isinstance(node.ctx, ast.Load))


def test_attribute_reads_are_found():
    source = ("table = g.bracket.signed\nx.signed = {}\n"
              "def f(t):\n    return t.signed.get((0, 1)), signed\n")
    assert attribute_reads(source, "signed") == [1, 4]


def test_only_graded_reads_the_signed_structure_constants():
    # products of table entries go through StructureTable.add_product, and
    # the verdict loops that walk StructureTable.rows are its methods
    found = {(p.name, attr): attribute_reads(p.read_text(), attr)
             for p in sorted(SRC.glob("*.py")) if p.name != "graded.py"
             for attr in ("signed", "rows")}
    assert {key: f for key, f in found.items() if f} == {}


def test_no_library_module_reads_a_second_map_store():
    # a GradedMap keeps its numerators in one store, by column; no pair-keyed
    # copy or column index built from one comes back
    found = {(p.name, attr): attribute_reads(p.read_text(), attr)
             for p in sorted(SRC.glob("*.py"))
             for attr in ("num", "num_columns", "_num_columns")}
    assert {key: f for key, f in found.items() if f} == {}


DENSE_HELPERS = ("zeros", "identity", "mat_copy", "columns")


def dense_allocations(source):
    """[(line, kind)] of the places that build a dense coefficient list:
    a list holding ZERO or Fraction(0) multiplied by a count ("zeros"),
    and a module-level function, or a linalg attribute, named like one of
    the dense matrix helpers ("helper")."""
    def is_zero(node):
        return ((isinstance(node, ast.Name) and node.id == "ZERO")
                or (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "Fraction"
                    and all(isinstance(a, ast.Constant) and a.value == 0
                            for a in node.args)))

    tree = ast.parse(source)
    found = [(node.lineno, "helper") for node in tree.body
             if isinstance(node, ast.FunctionDef)
             and node.name in DENSE_HELPERS]
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            if any(isinstance(side, ast.List) and any(map(is_zero, side.elts))
                   for side in (node.left, node.right)):
                found.append((node.lineno, "zeros"))
        elif (isinstance(node, ast.Attribute) and node.attr in DENSE_HELPERS
              and isinstance(node.value, ast.Name)
              and node.value.id == "linalg"):
            found.append((node.lineno, "helper"))
    return sorted(found)


def test_dense_allocations_are_found():
    source = ("def zeros(m):\n    return [[ZERO] * m]\n"
              "x = 3 * [Fraction(0)] + [0] * 2\n"
              "S = linalg.identity(2)\n"
              "class A:\n    def identity(self):\n        return [ONE] * 2\n")
    assert dense_allocations(source) == [(1, "helper"), (2, "zeros"),
                                         (3, "zeros"), (4, "helper")]


def test_no_library_module_allocates_dense_vectors():
    # vectors and matrix columns are sparse {index: coeff} dicts throughout
    found = {p.name: dense_allocations(p.read_text())
             for p in sorted(SRC.glob("*.py"))}
    assert {name: f for name, f in found.items() if f} == {}


def fraction_uses(source):
    """[line] of the places that import the fractions module or name
    Fraction: an import, a name or an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(a.name == "fractions" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module == "fractions"
                   or any(a.name == "Fraction" for a in node.names))
        else:
            hit = ((isinstance(node, ast.Name) and node.id == "Fraction")
                   or (isinstance(node, ast.Attribute)
                       and node.attr == "Fraction"))
        if hit:
            found.append(node.lineno)
    return sorted(found)


def test_fraction_uses_are_found():
    source = ("import fractions\nfrom fractions import Fraction as F\n"
              "x = fractions.Fraction(1, 2)\ny = [Fraction]\n"
              "z = 'Fraction', c.denominator\n")
    assert fraction_uses(source) == [1, 2, 3, 4]


def test_linalg_builds_no_fraction():
    # linalg reads Fraction input through numerator and denominator only,
    # and every answer it gives is in ints
    assert fraction_uses((SRC / "linalg.py").read_text()) == []


# the library-only checks of numbered results that README lists: the
# tier-1 tests call them, no library or benchmark module does
LIBRARY_ONLY = {("bv", "koszul_identity_check"),
                ("bv", "proposition_37_check"),
                ("transfer", "check_addendum_285")}


def public_definitions(source):
    """[(line, name)] of the public module-level names: functions,
    classes and assigned names not starting with "_"."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            names = []
        found.extend((node.lineno, name) for name in names
                     if not name.startswith("_"))
    return found


def referenced_names(source):
    """The names a module reads, as names or attributes, or imports."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_unreferenced_names_are_found():
    source = ("import os\nA = 1\n_B = 2\nC, D = 3, 4\n"
              "def f():\n    return A + os.sep\nclass G:\n    pass\n")
    assert public_definitions(source) == [(2, "A"), (5, "f"), (7, "G")]
    assert referenced_names(source) == {"os", "A", "sep"}


def test_every_public_library_name_is_referenced():
    # a public name that no library or benchmark module reads is an API
    # that nothing in the system calls: it is deleted, or moved under
    # tests/ when only tests use it
    modules = sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py"))
    read = set().union(*(referenced_names(p.read_text()) for p in modules))
    unread = {(p.stem, name) for p in sorted(SRC.glob("*.py"))
              for _, name in public_definitions(p.read_text())
              if name not in read}
    assert unread == LIBRARY_ONLY


def test_no_library_module_sorts_letters_with_a_sign():
    # words are built sorted by merges and one-letter products, and theta
    # files are read by a sort without sign; the signed sort and the
    # permutation sign serve only the oracles (tests/word_oracle.py)
    found = {p.name: referenced_names(p.read_text()) & {
        "koszul_sign", "sort_factors"} for p in sorted(SRC.glob("*.py"))}
    assert {name: f for name, f in found.items() if f} == {}


def readme_example():
    """The Python example of README.md, the one python code block."""
    text = (ROOT / "README.md").read_text()
    blocks = text.split("```python\n")[1:]
    assert len(blocks) == 1
    return blocks[0].split("```")[0]


def test_readme_example_runs(capsys):
    exec(compile(readme_example(), "README.md", "exec"), {})
    assert capsys.readouterr().out == "[3]\n"
