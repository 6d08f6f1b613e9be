"""Spans and counters recorded from outside the library.

The tracer wraps public functions of `hptmaster` modules while it is
installed.  A wrapped name is replaced in every library module that binds
the same object (for example `transfer` does `from .perturbation import
...`), so calls are caught whichever module makes them.  Spans stay in
memory; `metrics` folds them into per-layer totals, and `write_spans`
dumps them when the run ends.

Per span name the metrics are `<name>.s` (time in outermost calls of that
name), `<name>.self_s` (duration minus the time covered by child spans)
and `<name>.calls`.
"""

import json
import sys
import time

SPANS = (
    "cli.main", "cli.load_problem", "cli.serialize_transfer",
    "complexes.build_contraction",
    "complexes.contraction_extending_projection",
    "linalg.rref",
    "transfer.transfer", "transfer.verify_master",
    "transfer.extend_contraction",
    "perturbation.symmetric_coalgebra_contraction",
    "perturbation.perturbation_lemma",
    "dgla.ce_coalgebra", "dgla.cup_bracket", "dgla.is_twisting_cochain",
    "dgla.validate_dgla",
    "words.check_sh_lie", "words.coderivation_operator",
    "bv.validate_bv", "bv.kahler_formality_check", "bv.theorem_38_pipeline",
    "deformation.morgan_example", "deformation.wedge_of_spheres",
)

# counted calls: (metric, module, class or None, attribute)
CALL_COUNTERS = (
    ("graded.apply_basis.calls", "graded", "GradedMap", "apply_basis"),
    ("graded.compose.calls", "graded", "GradedMap", "compose"),
    ("words.splittings.calls", "words", None, "splittings"),
)

# sizes read from span results; `cli.report_bytes` is added by the caller
SIZE_COUNTERS = ("words.small_words", "words.big_words", "transfer.tau_nnz",
                 "transfer.D_nnz", "perturbation.h_nnz", "cli.report_bytes")


def _after_transfer(counters, result):
    counters["words.small_words"] += len(result.coalg.words)
    counters["transfer.tau_nnz"] += len(result.tau.hom.entries)
    counters["transfer.D_nnz"] += sum(
        len(val) for comp in result.D.components.values()
        for val in comp.values())


def _after_ce_coalgebra(counters, coalg):
    counters["words.big_words"] += len(coalg.words)


def _after_perturbation_lemma(counters, result):
    counters["perturbation.h_nnz"] += len(result[0].h.entries)


AFTER = {
    "transfer.transfer": _after_transfer,
    "dgla.ce_coalgebra": _after_ce_coalgebra,
    "perturbation.perturbation_lemma": _after_perturbation_lemma,
}


def metric_names():
    """Every per-layer metric a traced run reports, with its unit."""
    out = []
    for name in SPANS:
        out += [(name + ".s", "s"), (name + ".self_s", "s"),
                (name + ".calls", "count")]
    out += [(name, "count") for name, _, _, _ in CALL_COUNTERS]
    out += [(name, "bytes" if name == "cli.report_bytes" else "count")
            for name in SIZE_COUNTERS]
    return out


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.counters = dict.fromkeys(
            [n for n, _, _, _ in CALL_COUNTERS] + list(SIZE_COUNTERS), 0)
        self._patched = []       # (owner, attribute, original)

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        after = AFTER.get(name)
        clock = self.clock

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), None, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if after is not None:
                after(counters, result)
            return result
        return wrapper

    def _count(self, metric, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, lib_modules):
        """Wrap every span function and counted call in the library."""
        for metric, modname, cls, attr in CALL_COUNTERS:
            owner = getattr(lib_modules[modname], cls) if cls else None
            if owner is not None:
                self._replace_attr(owner, attr,
                                   self._count(metric, getattr(owner, attr)))
            else:
                original = getattr(lib_modules[modname], attr)
                self._replace_everywhere(original,
                                         self._count(metric, original))
        for name in SPANS:
            modname, attr = name.split(".")
            original = getattr(lib_modules[modname], attr)
            self._replace_everywhere(original, self._span(name, original))

    def _replace_attr(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, value):
        for modname, module in sorted(sys.modules.items()):
            if not modname.startswith("hptmaster") or module is None:
                continue
            for attr, bound in list(vars(module).items()):
                if bound is original:
                    self._replace_attr(module, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- results -------------------------------------------------------------

    def metrics(self):
        """Per-layer totals: outermost time, self time and calls per span."""
        totals = {name: [0.0, 0.0, 0] for name in SPANS}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent) in enumerate(self.spans):
            entry = totals[name]
            duration = end - start
            entry[1] += duration - child_time[index]
            entry[2] += 1
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                entry[0] += duration
        out = {}
        for name, (total, self_time, calls) in totals.items():
            out[name + ".s"] = total
            out[name + ".self_s"] = self_time
            out[name + ".calls"] = calls
        out.update(self.counters)
        return out

    def write_spans(self, path):
        """One JSON line per span: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
