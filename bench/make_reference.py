#!/usr/bin/env python3
"""Regenerate reference.json: the sha256 of every problem's report bytes.

Run from the root of a checkout, only when a change is meant to alter the
report bytes:

    python3 bench/make_reference.py

Problem names fix their inputs, so one digest per name covers every
workload seed that produces that problem; the digests are collected for
the input seeds 0 .. run.REFERENCE_SEEDS - 1, which every workload seed
maps onto.  Every problem must meet its expected exit code or verdict.
"""

import hashlib
import json
import shutil
import sys
import tempfile

import run
import workloads


def digests(workload):
    """{problem name: sha256 of its report}, or None if a problem failed."""
    out = {}
    for seed in range(run.REFERENCE_SEEDS):
        workdir = tempfile.mkdtemp(prefix="work-", dir=run.HERE)
        try:
            _, problems = run.set_up(workload, seed, workdir)
            for problem in problems:
                if problem.name in out:
                    continue
                code, data = problem.finish(problem.run())
                if code != problem.expected:
                    sys.stderr.write("%s: exit code or verdict %r, expected "
                                     "%r\n" % (problem.name, code,
                                               problem.expected))
                    return None
                out[problem.name] = hashlib.sha256(data).hexdigest()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return out


def main():
    sys.path.insert(0, run.SRC)
    reference = {}
    for workload in sorted(workloads.WORKLOADS):
        found = digests(workload)
        if found is None:
            sys.stderr.write("%s: reference not written\n" % workload)
            return 1
        reference[workload] = dict(sorted(found.items()))
        print("%s: %d digests" % (workload, len(found)))
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
