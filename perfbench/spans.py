"""Spans around the public functions of each frobkern module.

``Tracer.install`` replaces every public module-level function of the seven
layers, and a few named methods, with a wrapper that records a span (name,
parent, start, end, and an optional count taken from the call).  The
replacement is made in every frobkern namespace that holds the function, so
``from .polyalg import count_points`` call sites are traced too.
``PolyRing.order_key`` runs millions of times per Groebner job, so it is
counted, not spanned.  Spans stay in memory; ``write`` dumps them at the end.

Self time of a span is its duration minus the durations of its child spans
(spans of one thread nest, so children never overlap).
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("rootsys", "polyalg", "grmodel", "specseq", "commvar", "verify", "cli")

#: (module, class, method) -> span name
METHODS = {
    ("polyalg", "Poly", "__mul__"): "polyalg.Poly.mul",
    ("polyalg", "Poly", "__rmul__"): "polyalg.Poly.mul",
    ("polyalg", "GF", "__init__"): "polyalg.GF",
    ("polyalg", "GF", "add_vec"): "polyalg.GF",
    ("polyalg", "GF", "mul_vec"): "polyalg.GF",
    ("polyalg", "GF", "pow_vec"): "polyalg.GF",
    ("grmodel", "AlgebraMap", "apply"): "grmodel.AlgebraMap.apply",
    ("grmodel", "AlgebraMap", "well_defined"): "grmodel.AlgebraMap.well_defined",
    ("commvar", "VarietySystem", "count"): "commvar.VarietySystem.count",
    ("commvar", "VarietySystem", "presentation"): "commvar.VarietySystem.presentation",
    ("commvar", "VarietySystem", "union"): "commvar.VarietySystem.union",
}
#: (module, class, method) -> counter name; too hot for a span
COUNTED = {("polyalg", "PolyRing", "order_key"): "polyalg.order_key"}


def _assignments(args, kwargs, result):
    q = args[1] if len(args) > 1 else kwargs["q"]
    return q ** args[0].ring.nvars


#: span name -> count taken from a call that returned
INFO = {
    "polyalg.buchberger": lambda args, kwargs, result: len(result.basis),
    "polyalg.normal_form": lambda args, kwargs, result: int(result.is_zero()),
    "polyalg.count_points": _assignments,
    "specseq.aj_E1_enumerate": lambda args, kwargs, result: len(result),
}

#: metric group -> span names whose self time and calls it sums
GROUPS = {
    "grmodel.build": (
        "grmodel.build_S_star",
        "grmodel.build_Sbar",
        "grmodel.build_Q",
        "grmodel.build_relation_ideal",
        "grmodel.top_free_factor",
        "grmodel.vr_coordinate_algebra",
    ),
    "grmodel.theta": (
        "grmodel.theta_substitution",
        "grmodel.theta_power_identities",
        "grmodel.theta_degree_U3",
    ),
    "grmodel.bracket": (
        "grmodel.bracket_p",
        "grmodel.iterated_bracket",
        "grmodel.in_bracket_image",
    ),
    "grmodel.well_defined": ("grmodel.AlgebraMap.well_defined",),
    "specseq.differentials": (
        "specseq.d2_on_y",
        "specseq.transgression_power",
        "specseq.page_derivation",
        "specseq.d2",
        "specseq.first_nonvanishing_differential",
    ),
    "commvar.systems": (
        "commvar.y_variety_system",
        "commvar.x_variety_system",
        "commvar.component_system",
        "commvar.component_candidates_U4",
        "commvar.subdiagram_components",
        "commvar.VarietySystem.union",
    ),
}

#: per-layer metric -> unit, in report order
UNITS = {
    "polyalg.buchberger.self_s": "s",
    "polyalg.buchberger.basis_elems": "count",
    "polyalg.buchberger.zero_reductions_frac": "fraction",
    "polyalg.normal_form.calls": "count",
    "polyalg.normal_form.self_s": "s",
    "polyalg.order_key.calls": "count",
    "polyalg.graded_dimension.self_s": "s",
    "polyalg.graded_dimension.calls": "count",
    "polyalg.Poly.mul.calls": "count",
    "polyalg.Poly.mul.self_s": "s",
    "polyalg.count_points.self_s": "s",
    "polyalg.count_points.calls": "count",
    "polyalg.count_points.assignments": "count",
    "polyalg.count_points.assignments_per_s": "1/s",
    "polyalg.GF.self_s": "s",
    "polyalg.GF.calls": "count",
    "commvar.conjecture_check.self_s": "s",
    "commvar.VarietySystem.count.calls": "count",
    "commvar.VarietySystem.presentation.self_s": "s",
    "commvar.systems.self_s": "s",
    "specseq.aj_E1_enumerate.self_s": "s",
    "specseq.aj_E1_enumerate.calls": "count",
    "specseq.aj_E1_enumerate.monomials": "count",
    "specseq.uniqueness_witness.self_s": "s",
    "specseq.steenrod_apply.self_s": "s",
    "specseq.differentials.self_s": "s",
    "grmodel.build.self_s": "s",
    "grmodel.build.calls": "count",
    "grmodel.theta.self_s": "s",
    "grmodel.bracket.self_s": "s",
    "grmodel.well_defined.self_s": "s",
    "rootsys.summand_pairs.calls": "count",
    "verify.verify_all.self_s": "s",
    "cli.run.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, parent index, start, end, info]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list = []

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = INFO.get(name)

        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if info is not None:
                try:
                    record[4] = info(args, kwargs, result)
                except Exception:  # a changed return type leaves the count out
                    pass
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / remove --------------------------------------------------

    def install(self) -> None:
        modules = {
            layer: importlib.import_module(f"frobkern.{layer}") for layer in LAYERS
        }
        namespaces = [
            m for name, m in sys.modules.items() if name.split(".")[0] == "frobkern"
        ]
        replaced = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    replaced[id(obj)] = (obj, self._spanned(f"{layer}.{name}", obj))

        def swap(value):
            hit = replaced.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else value

        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                # module-level sequences of functions (verify.ALL_CRITERIA)
                # are swapped too, so identity tests against names still hold
                if isinstance(value, (list, tuple)):
                    new = type(value)(swap(v) for v in value)
                    changed = any(a is not b for a, b in zip(new, value))
                else:
                    new = swap(value)
                    changed = new is not value
                if changed:
                    self._undo.append((ns, attr, value))
                    setattr(ns, attr, new)
        for table, make in ((METHODS, self._spanned), (COUNTED, self._counted)):
            for (layer, cls_name, attr), name in table.items():
                cls = getattr(modules[layer], cls_name, None)
                fn = vars(cls).get(attr) if cls is not None else None
                if inspect.isfunction(fn):
                    self._undo.append((cls, attr, fn))
                    setattr(cls, attr, make(name, fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s = defaultdict(float)
        returned_s = defaultdict(float)  # total time of calls that returned
        calls = defaultdict(int)
        info = defaultdict(int)
        zero_nf = nf_under_gb = 0
        for i, (name, parent, start, end, value) in enumerate(spans):
            self_s[name] += end - start - covered[i]
            calls[name] += 1
            if value is not None:
                info[name] += value
                returned_s[name] += end - start
            if name == "polyalg.normal_form" and value is not None:
                while parent >= 0 and spans[parent][0] != "polyalg.buchberger":
                    parent = spans[parent][1]
                if parent >= 0:
                    nf_under_gb += 1
                    zero_nf += value
        for group, names in GROUPS.items():
            self_s[group] = sum(self_s[n] for n in names)
            calls[group] = sum(calls[n] for n in names)
        for layer in LAYERS:
            self_s[layer] = sum(
                v
                for n, v in list(self_s.items())
                if n.startswith(f"{layer}.") and n not in GROUPS
            )

        out = {}
        for metric in UNITS:
            base, _, field = metric.rpartition(".")
            if field == "self_s":
                out[metric] = self_s[base]
            elif field == "calls":
                out[metric] = self.counts[base] if base in self.counts else calls[base]
        assignments = info["polyalg.count_points"]
        counting_s = returned_s["polyalg.count_points"]
        out.update(
            {
                "polyalg.buchberger.basis_elems": info["polyalg.buchberger"],
                "polyalg.buchberger.zero_reductions_frac": (
                    zero_nf / nf_under_gb if nf_under_gb else 0.0
                ),
                "polyalg.count_points.assignments": assignments,
                "polyalg.count_points.assignments_per_s": (
                    assignments / counting_s if counting_s else 0.0
                ),
                "specseq.aj_E1_enumerate.monomials": info["specseq.aj_E1_enumerate"],
            }
        )
        return out

    def write(self, path: str) -> None:
        """One line per span: index, parent, name, start, end, count."""
        with open(path, "w") as fh:
            fh.write("index,parent,name,start_s,end_s,count\n")
            for i, (name, parent, start, end, value) in enumerate(self.spans):
                count = "" if value is None else value
                fh.write(f"{i},{parent},{name},{start!r},{end!r},{count}\n")
