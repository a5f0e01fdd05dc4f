"""Spans around ramsey_lab's public functions, recorded from outside the package.

`Tracer.install()` replaces each traced function with a wrapper in every
ramsey_lab module that binds it (``cli`` imports names directly, ``bounds``
calls ``threshold_solver.check_density_certificate`` through the module,
``_search`` finds ``class_contains_target`` as a module global).  A span
is (name, start, end, parent span, op id); spans live in flat arrays until
the run ends and are then written to one ``.npz`` file.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, function, span name, counter hook); a hook gets (add, result)
TRACED = [
    ("random_models", "sample_gnp", "random_models.sample", None),
    ("random_models", "find_hole_exact", "random_models.exact",
     lambda add, r: add("random_models.exact_holes", r is not None)),
    ("random_models", "find_hole_heuristic", "random_models.heuristic",
     lambda add, r: add("random_models.heuristic_finds", r is not None)),
    ("random_models", "verify_hole", "random_models.verify_hole", None),
    ("random_models", "estimate_hole_probability", "random_models.estimate", None),
    ("arrow_checker", "arrows", "arrow_checker.search",
     lambda add, r: add("arrow_checker.colorings_examined", r.colorings_examined)),
    ("arrow_checker", "bipartite_arrows", "arrow_checker.search",
     lambda add, r: add("arrow_checker.colorings_examined", r.colorings_examined)),
    ("arrow_checker", "class_contains_target", "arrow_checker.containment", None),
    ("arrow_checker", "verify_coloring_avoids_targets", "arrow_checker.witness_verify", None),
    ("constructions", "build_leaf_tree", "constructions.build",
     lambda add, r: add("constructions.tree_vertices", r.n)),
    ("constructions", "build_connector_tree", "constructions.build",
     lambda add, r: add("constructions.tree_vertices", r.n)),
    ("constructions", "verify_leaf_tree", "constructions.verify", None),
    ("constructions", "verify_connector_tree", "constructions.verify", None),
    ("constructions", "serialize_tree", "constructions.serialize", None),
    ("constructions", "serialize_graph", "constructions.serialize", None),
    ("threshold_solver", "regular_min_density", "threshold_solver.solve", None),
    ("threshold_solver", "check_density_certificate", "threshold_solver.certify", None),
    ("threshold_solver", "gnp_min_density", "threshold_solver.closed_form", None),
    ("threshold_solver", "bipartite_min_density", "threshold_solver.closed_form", None),
    ("bounds", "size_ramsey_gnp", "bounds.report", None),
    ("bounds", "size_ramsey_regular", "bounds.report", None),
    ("bounds", "size_ramsey_bipartite", "bounds.report", None),
    ("cli", "main", "cli.main", None),
]

OP = "op"


class Tracer:
    def __init__(self):
        self.names = [OP]
        self.name = array("i")
        self.parent = array("i")
        self.op_ids = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1  # set by the benchmark loop; -1 means set-up
        self.counts: dict[str, int] = {}

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op_ids.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def _add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(value)

    def op(self, op_id: int, fn, *args):
        """Run one benchmark op under a root span."""
        self.op_id = op_id
        i = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(i)
            self.op_id = -1

    def _wrap(self, fn, span: str, hook):
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if hook is not None and self.op_id >= 0:
                hook(self._add, result)
            return result

        return wrapper

    def install(self) -> None:
        mods = [m for k, m in list(sys.modules.items()) if k.startswith("ramsey_lab")]
        for mod_name, fn_name, span, hook in TRACED:
            original = getattr(sys.modules["ramsey_lab." + mod_name], fn_name)
            wrapper = self._wrap(original, span, hook)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    # ── derived per-layer numbers ────────────────────────────────────────────

    def layer_metrics(self) -> dict:
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        op_ids = np.frombuffer(self.op_ids, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        n = len(dur)
        timed = op_ids >= 0

        # a span counts once per name: skip it when an ancestor has its name
        outer = np.ones(n, dtype=bool)
        masks = [0] * n
        names_l = name.tolist()
        for i, (nm, p) in enumerate(zip(names_l, parent.tolist())):
            m = 0 if p < 0 else masks[p] | (1 << names_l[p])
            masks[i] = m
            outer[i] = not (m >> nm & 1)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)

        def total(span: str) -> float:
            nid = self.names.index(span) if span in self.names else -1
            return float(dur[(name == nid) & outer & timed].sum())

        def calls(span: str) -> int:
            nid = self.names.index(span) if span in self.names else -1
            return int(((name == nid) & timed).sum())

        def self_time(span: str) -> float:
            nid = self.names.index(span) if span in self.names else -1
            sel = (name == nid) & timed
            return float((dur[sel] - child_time[sel]).sum())

        k = self.counts
        colorings = k.get("arrow_checker.colorings_examined", 0)
        containment_calls = calls("arrow_checker.containment")
        return {
            "random_models.heuristic_s": (total("random_models.heuristic"), "s"),
            "random_models.heuristic_calls": (calls("random_models.heuristic"), "count"),
            "random_models.heuristic_finds": (k.get("random_models.heuristic_finds", 0), "count"),
            "random_models.exact_s": (total("random_models.exact"), "s"),
            "random_models.exact_calls": (calls("random_models.exact"), "count"),
            "random_models.exact_holes": (k.get("random_models.exact_holes", 0), "count"),
            "random_models.sample_s": (total("random_models.sample"), "s"),
            "random_models.sample_calls": (calls("random_models.sample"), "count"),
            "random_models.verify_hole_s": (total("random_models.verify_hole"), "s"),
            "random_models.estimate_self_s": (self_time("random_models.estimate"), "s"),
            "arrow_checker.search_s": (total("arrow_checker.search"), "s"),
            "arrow_checker.decisions": (calls("arrow_checker.search"), "count"),
            "arrow_checker.colorings_examined": (colorings, "count"),
            "arrow_checker.containment_s": (total("arrow_checker.containment"), "s"),
            "arrow_checker.containment_calls": (containment_calls, "count"),
            "arrow_checker.containment_per_coloring": (
                containment_calls / colorings if colorings else 0.0, "ratio"),
            "arrow_checker.witness_verify_s": (total("arrow_checker.witness_verify"), "s"),
            "constructions.build_s": (total("constructions.build"), "s"),
            "constructions.verify_s": (total("constructions.verify"), "s"),
            "constructions.serialize_s": (total("constructions.serialize"), "s"),
            "constructions.tree_vertices": (k.get("constructions.tree_vertices", 0), "count"),
            "threshold_solver.solve_s": (total("threshold_solver.solve"), "s"),
            "threshold_solver.solve_calls": (calls("threshold_solver.solve"), "count"),
            "threshold_solver.certify_s": (total("threshold_solver.certify"), "s"),
            "threshold_solver.certify_calls": (calls("threshold_solver.certify"), "count"),
            "threshold_solver.closed_form_s": (total("threshold_solver.closed_form"), "s"),
            "bounds.report_s": (total("bounds.report"), "s"),
            "cli.self_s": (self_time("cli.main"), "s"),
            "cli.commands": (calls("cli.main"), "count"),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op_ids, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
