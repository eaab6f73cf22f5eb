"""Outside-in tracer for cptgroup.

The tracer never edits the package.  It replaces public functions with
wrappers, both in the module that defines them and in every cptgroup
module that bound them with ``from ... import``, and puts the originals
back on ``uninstall``.  Scalar and Mat4 arithmetic is only counted: a span
per scalar product would cost more than the product itself.

Spans are kept in memory as ``[name, start, end, parent, run]`` and
written out once at the end.  Per-layer metrics are derived from them
by ``layer_metrics``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

STAGES = ("clifford", "kernels", "compatibility", "solution_properties",
          "matrix_groups", "grading", "isomorphisms", "map_55", "extensions",
          "operator_group", "representations")
SUBCOMMANDS = ("verify", "table", "solve", "cycles", "identify")

# (module, attribute path, metric prefix); each becomes a span
SPANS = [
    ("cptgroup.matrices", "GammaRep.basis_expand",
     "matrices.GammaRep.basis_expand"),
    ("cptgroup.matrices", "Mat4.inverse", "matrices.Mat4.inverse"),
    ("cptgroup.matrices", "Mat4.det", "matrices.Mat4.det"),
    ("cptgroup.matrices", "get_rep", "matrices.get_rep"),
    ("cptgroup.solver", "solve_system", "solver.solve_system"),
    ("cptgroup.solver", "enumerate_consistent_sets",
     "solver.enumerate_consistent_sets"),
    ("cptgroup.groups", "FiniteGroup.__init__", "groups.FiniteGroup.init"),
    ("cptgroup.groups", "find_isomorphism", "groups.find_isomorphism"),
    ("cptgroup.groups", "ShortExactSequence.sections",
     "groups.ShortExactSequence.sections"),
    ("cptgroup.matrix_groups", "build_matrix_group",
     "matrix_groups.build_matrix_group"),
    ("cptgroup.operator_group", "build_operator_group",
     "operator_group.build_operator_group"),
    ("cptgroup.verify", "Context.__init__", "verify.Context.init"),
    ("cptgroup.verify", "run_all", "verify.run_all"),
] + [("cptgroup.verify", f"_check_{s}", f"verify.stage.{s}") for s in STAGES] \
  + [("cptgroup.cli", f"cmd_{c}", f"cli.{c}") for c in SUBCOMMANDS]

# (module, attribute path, metric prefix); each is only counted
COUNTS = [
    ("cptgroup.scalars", "Scalar.__mul__", "scalars.Scalar.mul"),
    ("cptgroup.scalars", "Scalar.__rmul__", "scalars.Scalar.mul"),
    ("cptgroup.scalars", "Scalar.inverse", "scalars.Scalar.inverse"),
    ("cptgroup.matrices", "Mat4.__mul__", "matrices.Mat4.mul"),
    ("cptgroup.matrices", "classify", "matrices.classify"),
    ("cptgroup.solver", "check_cp_compatibility",
     "solver.check_cp_compatibility"),
    ("cptgroup.solver", "check_ct_compatibility",
     "solver.check_ct_compatibility"),
    ("cptgroup.groups", "extend_generator_images",
     "groups.extend_generator_images"),
]

# spans whose distinct argument tuples are counted, and spans whose
# non-None results are counted
DISTINCT = {"solver.solve_system"}
FOUND = {"groups.find_isomorphism"}


class Tracer:
    """Installs wrappers, records spans and counts, and removes them."""

    def __init__(self) -> None:
        self.run = 0                 # id given to the spans started next
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.keys: dict[str, set] = {name: set() for name in DISTINCT}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        keys = self.keys.get(name)
        found = name + ".found" if name in FOUND else None
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keys is not None:
                keys.add(args)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                          self.run])
            stack.append(idx)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if found is not None and result is not None:
                counts[found] = counts.get(found, 0) + 1
            return result
        return wrapper

    def _count(self, fn, name):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self) -> "Tracer":
        for targets, make in ((SPANS, self._span), (COUNTS, self._count)):
            for module, path, name in targets:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                orig = vars(owner).get(attr)
                if orig is None:
                    self.missing.append(f"{module}.{path}")
                    continue
                wrapper = make(orig, name)
                self._set(owner, attr, wrapper)
                if not outer:
                    self._rebind(orig, wrapper)
        return self

    def _set(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, orig, wrapper) -> None:
        """Replace every `from ... import` binding of `orig`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cptgroup"
                                   or mod_name.startswith("cptgroup.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts,
                "distinct": {k: len(v) for k, v in self.keys.items()},
                "missing": self.missing}


# -- derived metrics ---------------------------------------------------------


def merge(dumps: list[dict]) -> dict:
    """Combine the dumps of several traced processes or runs."""
    out = {"spans": [], "counts": {}, "distinct": {}, "missing": []}
    for d in dumps:
        out["spans"].append(d["spans"])
        for key in ("counts", "distinct"):
            for k, v in d[key].items():
                out[key][k] = out[key].get(k, 0) + v
        out["missing"] += [m for m in d["missing"] if m not in out["missing"]]
    return out


def span_stats(span_lists: list[list[list]]) -> dict[str, list[float]]:
    """name -> [calls, total_s, self_s] over every span list.

    Spans come from one thread, so a span's children are nested inside it
    and do not overlap one another: the part of its interval that they
    cover is the sum of their durations.
    """
    stats: dict[str, list[float]] = {}
    for spans in span_lists:
        covered = [0.0] * len(spans)
        for name, start, end, parent, _run in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _parent, _run), cov in zip(spans, covered):
            s = stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += 1
            s[1] += end - start
            s[2] += end - start - cov
    return stats


def layer_metrics(merged: dict, ops: int) -> dict[str, float]:
    """Every per-layer metric, per operation (mean over `ops` traced ops).

    `reuse_ratio` is distinct systems over calls, summed over processes:
    a cache inside one process can save at most calls - distinct solves.
    """
    stats = span_stats(merged["spans"])
    out: dict[str, float] = {}
    for _module, _path, name in SPANS:
        calls, total, self_s = stats.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = calls / ops
        out[f"{name}.total_s"] = total / ops
        out[f"{name}.self_s"] = self_s / ops
    for _module, _path, name in COUNTS:
        out[f"{name}.calls"] = merged["counts"].get(f"{name}.calls", 0) / ops
    for name in FOUND:
        out[f"{name}.found"] = merged["counts"].get(f"{name}.found", 0) / ops
    for name in DISTINCT:
        distinct = merged["distinct"].get(name, 0)
        calls = stats.get(name, (0,))[0]
        out[f"{name}.distinct"] = distinct / ops
        out[f"{name}.reuse_ratio"] = distinct / calls if calls else 0.0
    return out
