"""Outside-in tracing of homlie's layers.

``Tracer.install`` replaces the public functions named in ``LAYERS`` by
wrappers that record one span per call: name, start, end and parent
span.  Every module global and class attribute that holds the original
function is rebound too, because ``from .laurent import apply_endo``
copies the binding into ``bracket``, ``derivation`` and the other
importers, and ``__rmul__ = __mul__`` copies it within a class.  Spans are kept in
memory in flat arrays and written out by ``dump``; self time is derived
from the span tree by ``self_times``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

# (metric prefix, module, attribute path).  Several paths may share one
# prefix; their spans are then counted together.
LAYERS = (
    ("scalar.param_gcd", "homlie.scalar", "param_gcd"),
    ("scalar.Scalar", "homlie.scalar", "Scalar.__init__"),
    ("scalar.ParamPoly.mul", "homlie.scalar", "ParamPoly.__mul__"),
    ("scalar.ParamPoly.exact_div", "homlie.scalar", "ParamPoly.exact_div"),
    ("scalar.Scalar.eq", "homlie.scalar", "Scalar.__eq__"),
    ("scalar.render_scalar", "homlie.scalar", "render_scalar"),
    ("laurent.LaurentPoly.mul", "homlie.laurent", "LaurentPoly.__mul__"),
    ("laurent.apply_endo", "homlie.laurent", "apply_endo"),
    ("laurent.exact_div", "homlie.laurent", "exact_div"),
    ("laurent.gcd_up_to_unit", "homlie.laurent", "gcd_up_to_unit"),
    ("derivation.make_context", "homlie.derivation", "make_context"),
    ("derivation.apply_generator", "homlie.derivation", "DerivationContext.apply_generator"),
    ("derivation.apply_generator", "homlie.derivation", "SigmaSigmaContext.apply_generator"),
    ("bracket.bracket_general", "homlie.bracket", "bracket_general"),
    ("bracket.verify_quasi_jacobi", "homlie.bracket", "verify_quasi_jacobi"),
    ("bracket.verify_hom_jacobi", "homlie.bracket", "verify_hom_jacobi"),
    ("algebra.GradedAlgebra", "homlie.algebra", "GradedAlgebra.__init__"),
    ("algebra.GradedAlgebra.bracket", "homlie.algebra", "GradedAlgebra.bracket"),
    *(
        ("families.construct", "homlie.families", name)
        for name in (
            "witt_pq", "witt_r", "witt_pq_forced", "classical_witt",
            "sigma_sigma_witt", "sigma_sigma_witt_forced", "sl2_pq", "sl2_r",
            "sl2_pp", "classical_sl2", "sl2_pp_forced", "inverse_twist_example",
        )
    ),
    ("families.check_morphism", "homlie.families", "check_morphism"),
    ("families.expand_in_d_basis", "homlie.families", "expand_in_d_basis"),
    ("extension.Cocycle", "homlie.extension", "Cocycle.__init__"),
    ("extension.verify_cocycle_condition", "homlie.extension", "verify_cocycle_condition"),
    ("extension.make_central_extension", "homlie.extension", "make_central_extension"),
    ("opcat.PlainPoly.subst", "homlie.opcat", "PlainPoly.subst"),
    ("opcat.PlainPoly.mul", "homlie.opcat", "PlainPoly.__mul__"),
    ("opcat.exact_div_plain", "homlie.opcat", "exact_div_plain"),
    ("opcat.verify_entry", "homlie.opcat", "verify_entry"),
    ("report.Report.check", "homlie.report", "Report.check"),
    ("cli.run_suite", "homlie.cli", "run_suite"),
)

CATALOGUE_ROWS = (
    "differentiation", "shift", "shift-difference", "q-dilatation",
    "jackson-q-derivative", "jackson-symmetric-q-derivative",
    "jackson-pq-derivative", "p-dilatation-derivative",
)

# Per-layer metrics as (name, unit), in the order they are reported.
_CALLS_AND_SELF = (
    "scalar.Scalar", "scalar.ParamPoly.mul", "scalar.ParamPoly.exact_div",
    "scalar.Scalar.eq", "scalar.render_scalar", "laurent.LaurentPoly.mul",
    "laurent.apply_endo", "laurent.exact_div", "laurent.gcd_up_to_unit",
    "derivation.make_context", "derivation.apply_generator",
    "bracket.bracket_general", "algebra.GradedAlgebra.bracket",
    "families.construct", "families.expand_in_d_basis",
    "opcat.PlainPoly.subst", "opcat.PlainPoly.mul", "opcat.exact_div_plain",
)
METRICS = (
    ("scalar.param_gcd.calls", "count"),
    ("scalar.param_gcd.self_s", "s"),
    ("scalar.param_gcd.useful_ratio", "ratio"),
    *((f"{p}.{kind}", unit) for p in _CALLS_AND_SELF
      for kind, unit in (("calls", "count"), ("self_s", "s"))),
    ("bracket.verify_quasi_jacobi.triples", "count"),
    ("bracket.verify_quasi_jacobi.self_s", "s"),
    ("bracket.verify_hom_jacobi.triples", "count"),
    ("bracket.verify_hom_jacobi.self_s", "s"),
    ("algebra.bracket_gen.hits", "count"),
    ("algebra.bracket_gen.misses", "count"),
    ("algebra.bracket_gen.hit_ratio", "ratio"),
    ("families.check_morphism.self_s", "s"),
    ("extension.Cocycle.value.calls", "count"),
    ("extension.Cocycle.value.distinct", "count"),
    ("extension.verify_cocycle_condition.calls", "count"),
    ("extension.verify_cocycle_condition.triples", "count"),
    ("extension.verify_cocycle_condition.self_s", "s"),
    ("extension.make_central_extension.self_s", "s"),
    *((f"opcat.row.{row}.s", "s") for row in CATALOGUE_ROWS),
    ("report.Report.check.calls", "count"),
    ("cli.run_suite.self_s", "s"),
)


def self_times(starts, ends, parents) -> list[int]:
    """Self time of each span: its duration minus the durations of its
    direct children.  ``parents[i]`` is the index of span i's parent,
    or -1 for a root; spans of one thread nest, so children never
    overlap each other."""
    selfs = [end - start for start, end in zip(starts, ends)]
    for i, parent in enumerate(parents):
        if parent >= 0:
            selfs[parent] -= ends[i] - starts[i]
    return selfs


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.cocycle_args: set = set()
        self.algebras: list = []
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """``fn`` with a span per call; ``after(args, result, span)`` runs
        once the span has ended."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end)
        stack, clock = self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result, idx)
            return result

        return functools.update_wrapper(traced, fn)

    def _after_hooks(self):
        counts = self.counts

        def gcd(args, result, idx):
            if not result.is_constant():
                counts["scalar.param_gcd.useful"] += 1

        def triples(prefix):
            def hook(args, result, idx):
                counts[f"{prefix}.triples"] += len(result.entries)
            return hook

        def algebra(args, result, idx):
            self.algebras.append(args[0])

        def cocycle(args, result, idx):
            cocycle_obj = args[0]
            cocycle_obj._value = self.wrap(
                "extension.Cocycle.value", cocycle_obj._value,
                lambda a, r, i: self.cocycle_args.add(a))

        def row(args, result, idx):
            counts[f"opcat.row.{args[0].name}.s"] += self.span_end[idx] - self.span_start[idx]

        return {
            "scalar.param_gcd": gcd,
            "bracket.verify_quasi_jacobi": triples("bracket.verify_quasi_jacobi"),
            "bracket.verify_hom_jacobi": triples("bracket.verify_hom_jacobi"),
            "extension.verify_cocycle_condition": triples("extension.verify_cocycle_condition"),
            "algebra.GradedAlgebra": algebra,
            "extension.Cocycle": cocycle,
            "opcat.verify_entry": row,
        }

    def install(self) -> None:
        """Wrap every function in ``LAYERS``, and rebind each module
        global and class attribute in the homlie package that holds one
        of them."""
        hooks = self._after_hooks()
        replaced = {}
        for prefix, module_name, path in LAYERS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self.wrap(prefix, original, hooks.get(prefix))
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, original))
            replaced[id(original)] = (original, wrapped)
        # aliases: module globals, and class attributes such as
        # ``__rmul__ = __mul__``
        owners = []
        for module_name, module in list(sys.modules.items()):
            if module_name == "homlie" or module_name.startswith("homlie."):
                owners.append(module)
                owners.extend(v for v in vars(module).values()
                              if isinstance(v, type) and v.__module__ == module_name)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, attr, hit[1])
                    self._undo.append((owner, attr, value))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter]:
        """Calls and self time (ns) per span name."""
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        selfs = self_times(self.span_start, self.span_end, self.span_parent)
        for nid, s in zip(self.span_name, selfs):
            calls[nid] += 1
            self_ns[nid] += s
        return (Counter({self.names[k]: v for k, v in calls.items()}),
                Counter({self.names[k]: v for k, v in self_ns.items()}))

    def metrics(self) -> dict[str, float]:
        """Every metric in ``METRICS``; a layer that did not run reads 0."""
        calls, self_ns = self.totals()
        out: dict[str, float] = {}
        hits = sum(a.bracket_gen.cache_info().hits for a in self.algebras)
        misses = sum(a.bracket_gen.cache_info().misses for a in self.algebras)
        for name, _unit in METRICS:
            prefix, _, kind = name.rpartition(".")
            if name == "scalar.param_gcd.useful_ratio":
                n = calls["scalar.param_gcd"]
                out[name] = self.counts["scalar.param_gcd.useful"] / n if n else 0.0
            elif name == "algebra.bracket_gen.hits":
                out[name] = hits
            elif name == "algebra.bracket_gen.misses":
                out[name] = misses
            elif name == "algebra.bracket_gen.hit_ratio":
                out[name] = hits / (hits + misses) if hits + misses else 0.0
            elif name == "extension.Cocycle.value.distinct":
                out[name] = len(self.cocycle_args)
            elif name.startswith("opcat.row."):
                out[name] = self.counts[name] / 1e9
            elif kind == "calls":
                out[name] = calls[prefix]
            elif kind == "self_s":
                out[name] = self_ns[prefix] / 1e9
            else:
                out[name] = self.counts[name]
        return out

    def dump(self, path) -> None:
        """Write the span table: a header line with the span names, then
        one ``name_id start_ns end_ns parent`` line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# " + " ".join(self.names) + "\n")
            for row in zip(self.span_name, self.span_start, self.span_end, self.span_parent):
                fh.write("%d %d %d %d\n" % row)
