"""Seeded inputs for the three benchmark workloads.

Each builder takes the imported library modules, the input seed
and a scratch directory for problem files, and returns the list of
problems that make up one pass.  A problem has a name that fixes its input
exactly (so reference digests can be keyed by it), a `run` callable that
is the timed call into the library, a `finish` callable that turns the
run's result into (exit code or verdict, report bytes) outside the timed
region, and the expected code.

Why these workloads:

* corpus - the acceptance-criterion-3 path (contraction, Thm 2.9
  recursion, master-equation check, perturbation-lemma extension) on 50
  `random_dgla` instances at N=4.  The extension dominates, and no other
  workload reaches `perturbation`.
* l3-sum - `transfer --check` at N=5 on direct sums of the nonzero-l3
  instance, one sparse (3 copies, 2,561 words) and one made dense by a
  seeded basis change (2 copies).  Word-layer work (splittings, Koszul
  signs, apply_basis, cup brackets) dominates; linear algebra is
  negligible.
* cli-mix - about two hundred small CLI calls per pass, passing and
  failing, where fixed per-call costs in parsing, validation,
  serialization, the BV pipelines and the Massey examples dominate.
"""

import contextlib
import io
import json
import os
import random

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs")

CORPUS_N = 4
# Instances per (dimension, abelian) class, in the proportions random_dgla
# produces on average.  Six-dimensional non-abelian instances take ~60% of
# the pipeline time, and their count in a window of 50 consecutive seeds
# varies by about a quarter, which made pass time swing 4.0-8.6 s with the
# seed; filling fixed quotas keeps the mix, and the pass time, steady.
CORPUS_QUOTAS = {(2, True): 3, (3, True): 2, (4, True): 3, (5, True): 2,
                 (6, True): 3, (3, False): 12, (5, False): 13, (6, False): 12}
SCAN_PER_INSTANCE = 3.2
# cli-mix draws twice as many instances: its median call sits among many
# small, different calls, and more instances make it depend less on the seed.
MIX_QUOTAS = {key: 2 * n for key, n in CORPUS_QUOTAS.items()}
L3_N = 5
ABELIAN_DIM = 40


class Problem:
    __slots__ = ("name", "run", "finish", "expected")

    def __init__(self, name, run, finish, expected=0):
        self.name = name
        self.run = run
        self.finish = finish
        self.expected = expected


def seeded_corpus(lib, seed, quotas=CORPUS_QUOTAS):
    """(seed, algebra) pairs: scan random_dgla seeds upward from `seed`,
    keeping each instance while its (dimension, abelian) class has room.

    At least SCAN_PER_INSTANCE seeds per instance are generated whether or
    not the quotas fill earlier (about 96% of starting seeds fill within
    them), so set-up time does not depend on where the quotas happen to
    fill.
    """
    room = dict(quotas)
    total = sum(quotas.values())
    out = []
    s = seed
    while any(room.values()) or s - seed < SCAN_PER_INSTANCE * total:
        g = lib.instances.random_dgla(s)
        key = (g.space.dim, g.is_abelian())
        if room.get(key):
            room[key] -= 1
            out.append((s, g))
        s += 1
        if s - seed > 100 * total:
            raise RuntimeError("random_dgla no longer fills the corpus quotas")
    return out


# -- problem files -----------------------------------------------------------

def direct_sum(lib, algebras):
    """Block direct sum of dg Lie algebras, labels prefixed by copy."""
    GradedVectorSpace = lib.graded.GradedVectorSpace
    basis, d_ent, table, offset = [], {}, {}, 0
    for n, g in enumerate(algebras):
        basis.extend(("c%d_%s" % (n, lab), deg) for lab, deg in g.space.basis)
        for (t, s), c in g.d.entries.items():
            d_ent[(t + offset, s + offset)] = c
        for (i, j), val in g.bracket_table.items():
            table[(i + offset, j + offset)] = {k + offset: c
                                               for k, c in val.items()}
        offset += g.space.dim
    space = GradedVectorSpace(basis)
    d = lib.graded.GradedMap(space, space, -1, d_ent)
    return lib.dgla.DgLieAlgebra(lib.complexes.ChainComplex(space, d), table)


def problem_document(lib, g):
    """A dg Lie algebra as a homological problem file (JSON document)."""
    labels = g.space.labels
    frac = lib.cli.frac_str
    return {
        "schema": lib.cli.SCHEMA,
        "grading": "homological",
        "basis": [[lab, deg] for lab, deg in g.space.basis],
        "differential": [[labels[s], labels[t], frac(c)]
                         for (t, s), c in sorted(g.d.entries.items())],
        "bracket": [[labels[i], labels[j], labels[k], frac(c)]
                    for (i, j), val in sorted(g.bracket_table.items())
                    for k, c in sorted(val.items())],
    }


def write_problem(lib, g, workdir, stem):
    """Write g as a problem file and check that it loads back unchanged.

    The round-trip guard makes sure the CLI sees exactly the algebra the
    workload was built from: same basis, differential and bracket table.
    """
    path = os.path.join(workdir, stem + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_document(lib, g), fh, indent=1, sort_keys=True)
    kind, loaded, _ = lib.cli.load_problem(path)
    if (kind != "dgla" or loaded.space.basis != g.space.basis
            or loaded.d.entries != g.d.entries
            or loaded.bracket_table != g.bracket_table):
        raise RuntimeError("problem file %s does not round-trip" % stem)
    return path


# -- problem kinds -----------------------------------------------------------

def cli_problem(lib, name, argv, expected):
    """One `cli.main` call with stdout and stderr captured in memory.

    The report bytes are stdout; for an input error (exit 2) there is no
    report, so the error message on stderr is used with the input path
    replaced, keeping the digest independent of where the checkout lives.
    """
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def finish(result):
        code, out, err = result
        if code == lib.cli.EXIT_INPUT:
            out = err.replace(argv[-1], "<input>")
        return code, out.encode("utf-8")

    return Problem(name, run, finish, expected)


def _sorted_entries(graded_map):
    src, tgt = graded_map.source.labels, graded_map.target.labels
    return sorted([tgt[t], src[s], str(c)]
                  for (t, s), c in graded_map.entries.items())


def pipeline_problem(seed, g, lib, N):
    """build_contraction -> transfer -> verify_master -> extended."""

    def run():
        con = lib.complexes.build_contraction(g.complex)
        result = lib.transfer.transfer(g, con, N)
        passed = lib.transfer.verify_master(result)["passed"]
        return passed, result, result.extended

    def finish(outcome):
        passed, result, ext = outcome
        report = {
            "master_equation": passed,
            "transfer": lib.cli.serialize_transfer(result),
            "extended": {"nabla": _sorted_entries(ext.nabla),
                         "pi": _sorted_entries(ext.pi),
                         "h": _sorted_entries(ext.h)},
        }
        data = json.dumps(report, sort_keys=True).encode("utf-8")
        return (0 if passed else 1), data

    return Problem("random_dgla(%d) N=%d" % (seed, N), run, finish)


def massey_theta(seed):
    """A nonzero seeded theta over the six quintic words in sa, sb."""
    rng = random.Random(seed)
    words = ["*".join(["sa"] * (5 - k) + ["sb"] * k) for k in range(6)]
    values = [0]
    while not any(values):
        values = [rng.randrange(-3, 4) for _ in words]
    return {w: str(c) for w, c in zip(words, values)}


# -- workloads ---------------------------------------------------------------

def corpus(lib, seed, workdir, quotas=CORPUS_QUOTAS, N=CORPUS_N):
    return [pipeline_problem(s, g, lib, N)
            for s, g in seeded_corpus(lib, seed, quotas)]


def l3_sum(lib, seed, workdir, copies=(2, 3), N=L3_N):
    """Dense (basis-changed) sum first, then the sparse sum."""
    dense_k, sparse_k = copies
    l3 = lib.instances.nonzero_l3_dgla
    dense = lib.instances.change_basis(
        direct_sum(lib, [l3() for _ in range(dense_k)]), random.Random(seed))
    sparse = direct_sum(lib, [l3() for _ in range(sparse_k)])
    out = []
    for label, g in (("change_basis(l3^%d, seed=%d)" % (dense_k, seed), dense),
                     ("l3^%d" % sparse_k, sparse)):
        path = write_problem(lib, g, workdir, "l3sum-%d" % len(out))
        out.append(cli_problem(
            lib, "transfer --check N=%d %s" % (N, label),
            ["transfer", "--check", "--max-word-length", str(N), path],
            lib.cli.EXIT_OK))
    return out


def cli_mix(lib, seed, workdir, quotas=MIX_QUOTAS, abelian_dim=ABELIAN_DIM):
    """`validate` on every instance and `transfer --check` at N=3 or N=4
    (alternately), then the abelian, BV, Massey and failing-input calls."""
    ok, verify, bad = lib.cli.EXIT_OK, lib.cli.EXIT_VERIFY, lib.cli.EXIT_INPUT
    out = []
    for k, (s, g) in enumerate(seeded_corpus(lib, seed, quotas)):
        path = write_problem(lib, g, workdir, "mix-%d" % k)
        tag = "random_dgla(%d)" % s
        N = 3 + k % 2
        out.append(cli_problem(lib, "validate " + tag, ["validate", path], ok))
        out.append(cli_problem(
            lib, "transfer --check N=%d %s" % (N, tag),
            ["transfer", "--check", "--max-word-length", str(N), path], ok))
    rng = random.Random(seed)
    abelian = lib.instances.abelian_dgla(
        tuple(rng.randrange(-2, 4) for _ in range(abelian_dim)))
    path = write_problem(lib, abelian, workdir, "mix-abelian")
    out.append(cli_problem(
        lib, "validate abelian(%d, seed=%d)" % (abelian_dim, seed),
        ["validate", path], ok))

    def fixture(name):
        return os.path.join(INPUTS, name + ".json")

    for pipeline in ("full", "flat-unit"):
        for name in ("kahler_bv", "unit_bv"):
            out.append(cli_problem(
                lib, "bv --pipeline %s %s" % (pipeline, name),
                ["bv", "--pipeline", pipeline, fixture(name)], ok))
    # `massey --seed` draws theta while iterating a set of words, so its
    # report changes with PYTHONHASHSEED; a seeded theta file reaches the
    # same code with bytes that depend only on the seed.
    theta_path = os.path.join(workdir, "mix-theta.json")
    with open(theta_path, "w", encoding="utf-8") as fh:
        json.dump(massey_theta(seed), fh, sort_keys=True)
    for name, argv in (
            ("massey", ["massey"]),
            ("massey --theta seed=%d" % seed,
             ["massey", "--theta", theta_path]),
            ("massey --spheres 3,5 --order 6",
             ["massey", "--spheres", "3,5", "--order", "6"])):
        out.append(cli_problem(lib, name, argv, ok))
    for argv, expected in ((["validate", fixture("bad_rational")], bad),
                           (["validate", fixture("broken_jacobi")], verify),
                           (["bv", fixture("bad_bv")], verify)):
        name = "%s %s" % (argv[0], os.path.basename(argv[1]))
        out.append(cli_problem(lib, name, argv, expected))
    return out


WORKLOADS = {"corpus": corpus, "l3-sum": l3_sum, "cli-mix": cli_mix}
