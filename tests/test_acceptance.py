"""Acceptance gate: the eight headline guarantees, one test each.

Each test prints a single PASS/FAIL line; the corpus fixture supplies the
fifty deterministic randomized dg Lie algebras (total dimension at most
six, degrees within [-2, 3]) with synthesized contractions and their
transfers at truncation four.
"""

import json
from fractions import Fraction

from hptmaster import cli, instances
from hptmaster.bv import addendum_382_flat_identity, theorem_38_pipeline
from hptmaster.complexes import ChainComplex, Contraction
from hptmaster.deformation import morgan_example, necklace_count, \
    wedge_of_spheres
from hptmaster.dgla import DgLieAlgebra, ce_coalgebra, validate_dgla
from hptmaster.graded import GradedMap
from hptmaster.transfer import (check_addendum_283, check_addendum_285,
                                theorem_29_pipeline, transfer, verify_master)

F = Fraction


def _verdict(n, failures):
    tag = "PASS" if not failures else "FAIL"
    print("CRITERION %d: %s" % (n, tag)
          + ("" if not failures else " -- " + "; ".join(failures[:5])))
    assert not failures, failures


def test_criterion_1_master_equation_on_corpus(corpus):
    failures = []
    for seed, g, con, res in corpus:
        rep = verify_master(res)
        if not rep["passed"]:
            failures.append("seed %d: lengths %s"
                            % (seed, rep.get("failing_lengths")))
    _verdict(1, failures)


def _l2_as_dgla(res):
    """Rebuild the transferred binary bracket as a dg Lie algebra on
    homology (zero differential), index-canonicalized."""
    small = res.contraction.small.space
    table = {}
    for word, val in res.brackets.brackets.get(2, {}).items():
        i, j = word
        sign = F(1)
        if i > j:
            da, db = small.degrees[i], small.degrees[j]
            sign = F(-1) if (da * db) % 2 == 0 else F(1)
            i, j = j, i
        entry = table.setdefault((i, j), {})
        for k, c in val.items():
            entry[k] = entry.get(k, F(0)) + sign * c
    table = {key: {k: c for k, c in val.items() if c != 0}
             for key, val in table.items() if any(val.values())}
    return DgLieAlgebra(ChainComplex(small), table)


def test_criterion_2_sh_lie_relations_and_strict_jacobi(corpus):
    failures = []
    for seed, g, con, res in corpus:
        if not verify_master(res)["sh_lie"]["passed"]:
            failures.append("seed %d: coderivation square" % seed)
            continue
        rep = validate_dgla(_l2_as_dgla(res))
        if not rep["passed"]:
            failures.append("seed %d: l2 %s" % (seed, rep))
    _verdict(2, failures)


def test_criterion_3_contraction_identities(corpus):
    failures = []
    for seed, g, con, res in corpus:
        errs = con.identity_failures()
        if errs:
            failures.append("seed %d synthesized: %s" % (seed, errs))
        errs = res.extended.identity_failures()
        if errs:
            failures.append("seed %d perturbed: %s" % (seed, errs))
    _verdict(3, failures)


def test_criterion_4_degeneration_hypotheses():
    failures = []
    for kind in ("sl2", "b2x", "heis"):
        g = instances.commuting_lifts_dgla(kind)
        from hptmaster.complexes import build_contraction
        con = build_contraction(g.complex)
        res = transfer(g, con, 4)
        r283 = check_addendum_283(g, con, res)
        r285 = check_addendum_285(g, con, res)
        for name, rep in (("projected-bracket", r283), ("lifted", r285)):
            if not (rep["hypothesis_holds"] and rep["passed"]):
                failures.append("%s %s: %s" % (kind, name, rep))
        if res.D.arities():
            failures.append("%s: surviving arities %s" % (kind,
                                                          res.D.arities()))
        _, pipe = theorem_29_pipeline(g, con, 3)
        if not (pipe["passed"] and pipe["D_zero"]):
            failures.append("%s pipeline: %s" % (kind, pipe))
    _verdict(4, failures)


def test_criterion_5_bv_formality_pipelines():
    failures = []
    bv = instances.kahler_bv_instance()
    _, full = theorem_38_pipeline(bv, 3)
    for key in ("passed", "delta_tau_zero", "pi_tau_universal",
                "tau_k_in_im_delta", "D_zero"):
        if not full[key]:
            failures.append("full pipeline %s" % key)
    _, flat = addendum_382_flat_identity(bv, 3)
    for key in ("passed", "tau_k_avoids_unit"):
        if not flat[key]:
            failures.append("flat-unit pipeline %s" % key)
    _verdict(5, failures)


def test_criterion_6_wedge_example_numbers():
    failures = []
    _, report = morgan_example()
    if report["parameter_dimension"] != 6:
        failures.append("parameter dimension %s" % report["parameter_dimension"])
    if report["automorphism_dimension"] != 5:
        failures.append("automorphism dimension %s"
                        % report["automorphism_dimension"])
    hall = wedge_of_spheres([3, 3], 5).dimension(5)
    if hall != 6 or necklace_count(2, 5) != 6:
        failures.append("length-5 free-Lie count %s vs necklace %s"
                        % (hall, necklace_count(2, 5)))
    if not (report["lower_brackets_vanish"] and report["l5_nonzero"]):
        failures.append("bracket support %s" % report)
    if report["formal"] or report["witness"] != 4:
        failures.append("non-formality witness %s" % report["witness"])
    _verdict(6, failures)


def test_criterion_7_round_trips(corpus):
    failures = []
    for seed, g, con, res in corpus:
        if not validate_dgla(g)["passed"]:
            failures.append("seed %d: axioms" % seed)
            continue
        ce = ce_coalgebra(g, 3)
        iden = GradedMap.identity(g.space)
        zero_h = GradedMap.zero(g.space, g.space, 1)
        idcon = Contraction(g.complex, g.complex, iden, iden, zero_h)
        rt = transfer(g, idcon, 3)
        if rt.D.components != ce.perturbation.components:
            failures.append("seed %d: identity transfer != CE" % seed)
    _verdict(7, failures)


def test_criterion_8_report_determinism(fixture_dir, tmp_path, capsys):
    failures = []
    for name in ("l3.json", "abelian.json"):
        blobs = []
        for run in (0, 1):
            out = tmp_path / ("%s.%d" % (name, run))
            code = cli.main(["transfer", str(fixture_dir / name), "--check",
                             "--output", str(out)])
            if code != 0:
                failures.append("%s run %d: exit %d" % (name, run, code))
            blobs.append(out.read_bytes())
        if blobs[0] != blobs[1]:
            failures.append("%s: reports differ" % name)
        if not json.loads(blobs[0]):
            failures.append("%s: empty report" % name)
    capsys.readouterr()
    _verdict(8, failures)
