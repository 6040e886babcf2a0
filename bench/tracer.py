"""Spans around the public entry points of each iwasawalab layer, recorded
from outside the library.

``Tracer.install()`` replaces each target below by a wrapper that records a
span (name, parent span, start, end).  A module-level target is rebound in
every ``iwasawalab.*`` namespace that holds the same object, because the
modules import each other's names; a method target is rebound on its class.
Spans stay in memory; ``summary()`` turns them into the per-layer metrics at
the end of the run.  A layer's self time is the time its spans cover minus
the time covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = ("padic", "abgroup", "quadfield", "residues", "rayclass",
          "classfield", "localize", "iwasawa", "kummer")


def _max_transform_bits(result):
    _, U, V = result
    return max((abs(x).bit_length() for M in (U, V) for row in M for x in row),
               default=0)


# (layer, attribute path in iwasawalab.<layer>, span name or None for
# "<layer>.<path>", observer of the return value or None)
TARGETS = (
    ("padic", "angle_log", "padic.angle_log", None),
    ("padic", "UnramifiedQuadElem.angle_log", "padic.angle_log", None),
    ("padic", "plog", None, None),
    ("padic", "teichmueller", None, None),
    ("padic", "log_ratio", None, None),
    ("abgroup", "smith_normal_form", "abgroup.snf", "snf"),
    ("abgroup", "smith_presentation", None, None),
    ("abgroup", "solve_congruence_lattice", None, None),
    ("abgroup", "lattice_intersection", None, None),
    ("abgroup", "subgroup_image_order", None, None),
    ("abgroup", "subgroup_order_from_lattice", None, None),
    ("abgroup", "decompose_abelian", None, None),
    ("quadfield", "class_group", None, None),
    ("quadfield", "fundamental_unit", None, None),
    ("quadfield", "principal_generator", None, None),
    ("quadfield", "factor_rational_prime", None, None),
    ("quadfield", "SUnitBasisData.__init__", None, None),
    ("quadfield", "ray_class_group", None, None),
    ("residues", "make_component", None, None),
    ("residues", "RationalComponent.dlog", "residues.dlog", None),
    ("residues", "InertComponent.dlog", "residues.dlog", None),
    ("residues", "RamifiedComponent.dlog", "residues.dlog", None),
    ("rayclass", "ray_class_group", None, None),
    ("rayclass", "RayClassGroupData.__init__", "rayclass.build", None),
    ("rayclass", "RayClassGroupData.order_identity", None, None),
    ("rayclass", "RayClassGroupData.p_class_of_ideal", None, None),
    ("classfield", "group_G", None, None),
    ("classfield", "frobenius_image", None, None),
    ("classfield", "GaloisGroupG.frobenius_class", None, None),
    ("localize", "completions_above_p", None, None),
    ("localize", "loc", None, None),
    ("localize", "embed", None, None),
    ("localize", "is_loc_torsion", None, None),
    ("localize", "eq_membership", None, None),
    ("localize", "zp_matrix_rank", None, None),
    ("iwasawa", "mq_order", None, "stable"),
    ("iwasawa", "mq_generator", None, None),
    ("iwasawa", "leopoldt_defect", None, "certified"),
    ("kummer", "construct_alpha", None, "accepted"),
    ("kummer", "verify_alpha", None, None),
)

OBSERVERS = {
    "snf": lambda r: ("max_bits", _max_transform_bits(r)),
    "stable": lambda r: ("count", bool(r.stable)),
    "certified": lambda r: ("count", r.status == "ok"),
    "accepted": lambda r: ("count", r.status == "accepted"),
}


class Tracer:
    def __init__(self):
        self.names = []          # span name per name id
        self.spans = []          # [name id, parent index or -1, start, end]
        self.counts = {}         # span name -> useful outcomes
        self.max_bits = {}       # span name -> largest value observed
        self.missing = []        # targets absent from this version
        self._stack = [-1]       # index of the open span, shared by wrappers

    def wrap(self, name, fn, observer=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts, max_bits = self.counts, self.max_bits
        observe = OBSERVERS[observer] if observer else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, stack[-1], clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                kind, value = observe(result)
                if kind == "count":
                    counts[name] = counts.get(name, 0) + value
                else:
                    max_bits[name] = max(max_bits.get(name, 0), value)
            return result
        return traced

    def install(self):
        """Wrap every target.  Layers the package imports lazily (rayclass,
        residues) are imported first, so that every namespace that will
        hold a target already does."""
        for layer in LAYERS:
            importlib.import_module("iwasawalab." + layer)
        modules = [m for n, m in sys.modules.items()
                   if n == "iwasawalab" or n.startswith("iwasawalab.")]
        for layer, path, span_name, observer in TARGETS:
            owner = sys.modules["iwasawalab." + layer]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.missing.append("%s.%s" % (layer, path))
                continue
            wrapped = self.wrap(span_name or "%s.%s" % (layer, path),
                                original, observer)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
        return self

    def summary(self):
        """(per-layer metrics, {span name: [calls, self seconds]}) over all
        recorded spans."""
        n = len(self.spans)
        child = [0.0] * n
        for name_id, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = {}, {}
        built_under_rc = 0
        rc_id = {i for i, nm in enumerate(self.names)
                 if nm == "rayclass.ray_class_group"}
        for i, (name_id, parent, start, end) in enumerate(self.spans):
            name = self.names[name_id]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            if name == "rayclass.build" and parent >= 0 \
                    and self.spans[parent][0] in rc_id:
                built_under_rc += 1
        out = {}
        for layer in LAYERS:
            prefix = layer + "."
            out[layer + ".calls"] = sum(
                c for nm, c in calls.items() if nm.startswith(prefix))
            out[layer + ".self_s"] = sum(
                s for nm, s in self_s.items() if nm.startswith(prefix))

        def ratio(num, den):
            return num / den if den else 0.0

        rc_calls = calls.get("rayclass.ray_class_group", 0)
        mq_calls = calls.get("iwasawa.mq_order", 0)
        leo_calls = calls.get("iwasawa.leopoldt_defect", 0)
        alpha_calls = calls.get("kummer.construct_alpha", 0)
        out.update({
            "abgroup.snf.calls": calls.get("abgroup.snf", 0),
            "abgroup.snf.self_s": self_s.get("abgroup.snf", 0.0),
            "abgroup.snf.max_entry_bits": self.max_bits.get("abgroup.snf", 0),
            "quadfield.fundamental_unit.self_s":
                self_s.get("quadfield.fundamental_unit", 0.0),
            "quadfield.class_group.self_s":
                self_s.get("quadfield.class_group", 0.0),
            "padic.angle_log.calls": calls.get("padic.angle_log", 0),
            "residues.dlog.calls": calls.get("residues.dlog", 0),
            "rayclass.builds": calls.get("rayclass.build", 0),
            "rayclass.ray_class_group.calls": rc_calls,
            "rayclass.cache_hit_ratio":
                ratio(rc_calls - built_under_rc, rc_calls),
            "localize.loc.calls": calls.get("localize.loc", 0),
            "iwasawa.mq_order.calls": mq_calls,
            "iwasawa.mq_order.stable_ratio":
                ratio(self.counts.get("iwasawa.mq_order", 0), mq_calls),
            "iwasawa.leopoldt_defect.calls": leo_calls,
            "iwasawa.leopoldt.certified_ratio":
                ratio(self.counts.get("iwasawa.leopoldt_defect", 0),
                      leo_calls),
            "kummer.construct_alpha.calls": alpha_calls,
            "kummer.accepted_ratio":
                ratio(self.counts.get("kummer.construct_alpha", 0),
                      alpha_calls),
        })
        return out, {nm: [calls[nm], self_s[nm]] for nm in calls}
