"""Outside-in tracer for homct: wraps public entry points and records spans.

The tracer never edits homct's source.  ``Tracer.install()`` replaces every
public function of each layer module, in its defining module and in every
``homct.*`` module that bound the same object through ``from ... import``,
plus the public methods and selected dunders of the classes each module
defines.  Each call records one span (target, parent span, start, end) and
two integer payloads; spans stay in memory and are written out once, at the
end, by ``save``.  ``aggregate`` turns spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

import numpy as np

# homct modules in dependency order; each is one layer of the per-layer table
LAYERS = ["exactla", "algmod", "resolve", "derived", "completion", "stablecmp",
          "cohom", "schemas", "cli"]

# dunders wrapped besides public methods: construction and matrix arithmetic
DUNDERS = {"__init__", "__matmul__", "__add__", "__sub__", "__neg__"}

# metric group -> traced targets ("module:qualname"); see perfbench/README.md
GROUPS = {
    "exactla.elim": ["exactla:rref", "exactla:kernel_basis", "exactla:image_basis",
                     "exactla:Subspace.__init__"],
    "exactla.matmul": ["exactla:Matrix.__matmul__"],
    "exactla.vec": ["exactla:Subspace.reduce", "exactla:Subspace.coords",
                    "exactla:Subspace.from_coords", "exactla:Matrix.apply",
                    "exactla:Subquotient.class_of", "exactla:Subquotient.representative"],
    "exactla.solve": ["exactla:solve", "exactla:solve_matrix"],
    "exactla.matrix_new": ["exactla:Matrix.__init__"],
    "algmod.radical": ["algmod:Algebra.radical"],
    "algmod.radical_submodule": ["algmod:radical_submodule"],
    "algmod.tensor": ["algmod:tensor_over_algebra"],
    "algmod.hom": ["algmod:hom_over_algebra"],
    "algmod.validate": ["algmod:validate_algebra", "algmod:validate_module"],
    "resolve.cover": ["resolve:projective_cover"],
    "resolve.resolution": ["resolve:min_proj_resolution"],
    "resolve.complete": ["resolve:complete_resolution"],
    "resolve.periodicity": ["resolve:detect_periodicity"],
    "derived.homology": ["derived:TensorChain.homology", "derived:ExtChain.cohomology",
                         "derived:TateChain.homology"],
    "derived.connecting": ["derived:connecting_tor", "derived:connecting_ext"],
    "derived.chain": ["derived:tensor_chain", "derived:ext_chain", "derived:tate_chain"],
    "completion.tower": ["completion:cosyzygy_tower", "completion:satellite_tower"],
    "completion.limit": ["completion:tower_limit"],
    "stablecmp.duality": ["stablecmp:stable_homology_via_duality"],
    "stablecmp.vanishing": ["stablecmp:stable_homology_via_vanishing"],
    "stablecmp.copure": ["stablecmp:copure_vanishing_certificate"],
    "cohom.segment": ["cohom:SegmentStage.__init__"],
    "cohom.cotower_limit": ["cohom:cotower_limit"],
    "schemas.parse": ["schemas:parse_algebra_file", "schemas:parse_module_file"],
    "schemas.report_hash": ["schemas:report_hash"],
    "cli.run_compute": ["cli:run_compute"],
}

# metric group -> the metrics it reports; ".s" is the inclusive time of
# outermost calls, ".self_s" the group's self time
GROUP_METRICS = {
    "exactla.elim": ["calls", "self_s", "entries", "max_entries", "nnz_frac"],
    "exactla.matmul": ["calls", "self_s", "madds"],
    "exactla.vec": ["calls", "self_s"],
    "exactla.solve": ["calls", "self_s"],
    "exactla.matrix_new": ["calls"],
    "algmod.radical": ["s"],
    "algmod.radical_submodule": ["calls", "s", "rows"],
    "algmod.tensor": ["calls", "s"],
    "algmod.hom": ["calls", "s"],
    "algmod.validate": ["s"],
    "resolve.cover": ["calls", "s"],
    "resolve.resolution": ["calls", "hit_ratio"],
    "resolve.complete": ["s"],
    "resolve.periodicity": ["s"],
    "derived.homology": ["calls", "s"],
    "derived.connecting": ["calls", "s"],
    "derived.chain": ["calls", "hit_ratio"],
    "completion.tower": ["calls", "s", "stages", "max_stage_dim"],
    "completion.limit": ["s"],
    "stablecmp.duality": ["s"],
    "stablecmp.vanishing": ["s"],
    "stablecmp.copure": ["s"],
    "cohom.segment": ["calls", "s"],
    "cohom.cotower_limit": ["s"],
    "schemas.parse": ["s"],
    "schemas.report_hash": ["s"],
    "cli.run_compute": ["s"],
}


def layer_metric_names() -> list[str]:
    """Every per-layer metric name, in table order."""
    names = [f"{layer}.self_s" for layer in LAYERS if layer not in ("schemas", "cli")]
    for group, metrics in GROUP_METRICS.items():
        names += [f"{group}.{m}" for m in metrics]
    return names + ["trace.spans"]


def unit_of(name: str) -> str:
    """Times are in seconds; every other per-layer metric is an exact count or ratio."""
    if name.endswith(("_s", ".s")):
        return "s"
    return "ratio" if name.endswith(("hit_ratio", "nnz_frac")) else "count"


def _nnz(arr, p) -> tuple[int, int]:
    a = np.asarray(arr)
    if a.size == 0:
        return 0, 0
    return int(a.size), int(np.count_nonzero(a % p))


def _matrix_input(m) -> tuple[int, int]:
    return _nnz(m.a, m.p)


def _subspace_input(_self, p, ambient_dim, basis_rows=None) -> tuple[int, int]:
    return (0, 0) if basis_rows is None else _nnz(basis_rows, p)


def _matmul_madds(a, b) -> tuple[int, int]:
    return a.a.shape[0] * a.a.shape[1] * b.a.shape[1], 0


# payloads (x, y) measured on a call's arguments, before it runs
BEFORE = {
    "exactla:rref": _matrix_input,  # entries, nonzeros
    "exactla:kernel_basis": _matrix_input,
    "exactla:image_basis": _matrix_input,
    "exactla:Subspace.__init__": _subspace_input,
    "exactla:Matrix.__matmul__": _matmul_madds,  # multiply-adds
}


class Tracer:
    """Span recorder.  One instance per process; ``install`` patches homct."""

    def __init__(self):
        self.targets: list[str] = []  # target id -> "module:qualname"
        self.group_of: list[int] = []  # target id -> group id, or -1
        self.groups = list(GROUPS)
        self._target_group = {t: g for g, ts in enumerate(GROUPS.values()) for t in ts}
        # span columns
        self.target = array("i")
        self.parent = array("i")
        self.outer = array("b")  # 1 if no enclosing span of the same group
        self.start = array("d")
        self.end = array("d")
        self.x = array("q")
        self.y = array("q")
        self._stack = [-1]
        self._group_depth = [0] * len(self.groups)
        self._returned: dict[int, object] = {}  # id -> object, kept alive so ids stay unique
        self._orig_radical = None

    # -- payloads measured on a call's result ------------------------------

    def _reuse(self, _args, result) -> tuple[int, int]:
        """(1, 0) if ``result`` was returned before: a cache hit, by identity."""
        hit = id(result) in self._returned
        self._returned[id(result)] = result
        return int(hit), 0

    def _radical_rows(self, args, _result) -> tuple[int, int]:
        """dim rad A * dim M: the spanning vectors radical_submodule eliminates."""
        m = args[0]
        return self._orig_radical(m.algebra).dim * m.dim, 0

    @staticmethod
    def _tower_stages(_args, result) -> tuple[int, int]:
        dims = [s.dim for s in result.stages]
        return len(dims), max(dims, default=0)

    def _after(self, qual: str, group: str):
        if group in ("resolve.resolution", "derived.chain"):
            return self._reuse
        if group == "completion.tower":
            return self._tower_stages
        return self._radical_rows if qual == "algmod:radical_submodule" else None

    def _wrap(self, fn, qual: str):
        tid = len(self.targets)
        self.targets.append(qual)
        gid = self._target_group.get(qual, -1)
        self.group_of.append(gid)
        before = BEFORE.get(qual)
        after = self._after(qual, self.groups[gid] if gid >= 0 else "")
        stack, depth = self._stack, self._group_depth
        target, parent, outer = self.target, self.parent, self.outer
        start, end, xs, ys = self.start, self.end, self.x, self.y
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            payload = before(*args, **kwargs) if before else None
            target.append(tid)
            parent.append(stack[-1])
            outer.append(1 if gid < 0 or depth[gid] == 0 else 0)
            xs.append(payload[0] if payload else 0)
            ys.append(payload[1] if payload else 0)
            end.append(0.0)
            stack.append(i)
            if gid >= 0:
                depth[gid] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
                if gid >= 0:
                    depth[gid] -= 1
            if after:
                xs[i], ys[i] = after(args, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every layer module of the already importable homct package."""
        mods = {name: importlib.import_module(f"homct.{name}") for name in LAYERS}
        self._orig_radical = mods["algmod"].Algebra.radical
        homct_mods = [m for n, m in sorted(sys.modules.items())
                      if n == "homct" or n.startswith("homct.")]
        for name, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, f"{name}:{attr}")
                    for other in homct_mods:
                        for key, val in list(vars(other).items()):
                            if val is obj:
                                setattr(other, key, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, name)
        missing = [t for ts in GROUPS.values() for t in ts if t not in self.targets]
        if missing:
            raise RuntimeError(f"tracer targets not found in homct: {missing}")

    def _wrap_class(self, cls, mod_name: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            qual = f"{mod_name}:{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod) and inspect.isfunction(raw.__func__):
                setattr(cls, attr, staticmethod(self._wrap(raw.__func__, qual)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(raw, qual))

    # -- output ----------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "target": np.frombuffer(self.target, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "outer": np.frombuffer(self.outer, dtype=np.int8),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "x": np.frombuffer(self.x, dtype=np.int64),
            "y": np.frombuffer(self.y, dtype=np.int64),
        }

    def meta(self) -> dict:
        return {"targets": self.targets, "group_of": self.group_of, "groups": self.groups}

    def save(self, path: str) -> None:
        """Write all spans once, as ``.npz``: the span columns, and under "meta"
        a JSON string with the target names, their groups and the group names."""
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(self.meta())), **self.columns())


def aggregate(meta: dict, cols: dict[str, np.ndarray]) -> dict[str, float]:
    """Per-layer metrics from spans.

    A span's self time is its duration minus its direct children's durations;
    a layer's ``self_s`` sums the self time of its spans, which is the time in
    its public calls minus the time in calls into other layers.
    """
    n = len(cols["target"])
    dur = cols["end"] - cols["start"]
    parent = cols["parent"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child_time
    targets = meta["targets"]
    layer_of_target = np.array([LAYERS.index(t.split(":")[0]) for t in targets] or [0])
    group_of_target = np.array(meta["group_of"] or [-1])
    span_layer = layer_of_target[cols["target"]] if n else np.zeros(0, dtype=int)
    span_group = group_of_target[cols["target"]] if n else np.zeros(0, dtype=int)
    out: dict[str, float] = {}
    layer_self = np.bincount(span_layer, weights=self_time, minlength=len(LAYERS))
    for idx, layer in enumerate(LAYERS):
        if layer not in ("schemas", "cli"):
            out[f"{layer}.self_s"] = float(layer_self[idx])
    x, y, outer = cols["x"], cols["y"], cols["outer"].astype(bool)
    for gid, group in enumerate(meta["groups"]):
        sel = span_group == gid
        calls = int(sel.sum())
        values = {
            "calls": calls,
            "self_s": float(self_time[sel].sum()),
            "s": float(dur[sel & outer].sum()),
            "entries": int(x[sel].sum()),
            "max_entries": int(x[sel].max(initial=0)),
            "nnz_frac": float(y[sel].sum() / max(1, x[sel].sum())),
            "madds": int(x[sel].sum()),
            "rows": int(x[sel].sum()),
            "stages": int(x[sel].sum()),
            "max_stage_dim": int(y[sel].max(initial=0)),
            "hit_ratio": float(x[sel].sum() / max(1, calls)),
        }
        for metric in GROUP_METRICS[group]:
            out[f"{group}.{metric}"] = values[metric]
    out["trace.spans"] = n
    return out
