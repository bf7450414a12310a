"""Span tracer that wraps the public entry points of the multiform modules.

Wrapping happens from outside the program: every public module-level
function of the traced modules (plus the ``FieldExpr``/``MatExpr``
evaluation and derivative methods, and the operator closure returned by
``lattice.maxwell_operator``) is replaced by a wrapper that records one span
(name, start, end, parent) per call.  Every alias of a wrapped function is
rebound -- names imported into other modules, values in module-level dicts
such as ``sta.PRODUCT_KERNELS`` -- so no layer silently reads zero.

Spans live in flat in-memory arrays until the pass ends; ``layer_metrics``
reduces them to per-layer self times and counts, and ``save`` writes them
out.  Import this module only in a process that is allowed to be traced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

PACKAGE = "multiform"
TRACED_MODULES = (
    "sta",
    "extensor",
    "fields",
    "gauge",
    "lagrangian",
    "lattice",
    "sampling",
    "scenarios",
)

# Metric group of each traced entry point; public functions not listed here
# fall into "<layer>.other", which still counts toward the layer's self time.
GROUPS = {
    "sta.gp": "sta.prod",
    "sta.op": "sta.prod",
    "sta.lc": "sta.prod",
    "sta.cross": "sta.prod",
    "sta.sp": "sta.prod",
    "fields.FieldExpr.sample": "fields.eval",
    "fields.FieldExpr.at": "fields.eval",
    "fields.FieldExpr.deriv": "fields.deriv",
    "fields.MatExpr.deriv": "fields.deriv",
    "fields.del_expr": "fields.deriv",
    "fields.del_expr_kind": "fields.deriv",
    "gauge.gauge_del_expr": "gauge.build",
    "gauge.spinor_grad_expr": "gauge.build",
    "gauge.covariant_directional_expr": "gauge.build",
    "gauge.spinor_directional_expr": "gauge.build",
    "gauge.boundary_current_gauge": "gauge.build",
    "gauge.check_identity_gauge": "gauge.check",
    "gauge.check_identity_spinor": "gauge.check",
    "gauge.check_pushforward_vs_omega": "gauge.check",
    "gauge.check_spinor_gradient_split": "gauge.check",
    "lagrangian.ele_residual_flat": "lagrangian.residual",
    "lagrangian.ele_residual_gauge": "lagrangian.residual",
    "lagrangian.ele_residual_spinor": "lagrangian.residual",
    "lagrangian.ele_residual": "lagrangian.residual",
    "lagrangian.ele_residual_reference": "lagrangian.residual",
    "lagrangian.variation": "lagrangian.variation",
    "lagrangian.decomposition_check": "lagrangian.decomposition",
    "lattice.maxwell_operator.apply": "lattice.operator",
    "lattice.solve_maxwell": "lattice.solve",
    "lattice.discrete_action": "lattice.stencil",
    "lattice.action_gradient": "lattice.stencil",
    "lattice.discrete_ele_residual": "lattice.stencil",
    "lattice.discrete_gauss": "lattice.stencil",
    "scenarios.run_scenario": "scenarios.run",
}

# methods traced in addition to the module-level functions
METHODS = {
    "fields": {"FieldExpr": ("sample", "at", "deriv"), "MatExpr": ("deriv",)},
}

# one (16,) double per operand and per result row, as computed from shapes
BYTES_PER_ROW = 3 * 16 * 8


def _product_rows(out) -> int:
    return out.size // 16


def _sp_rows(out) -> int:
    return 1 if isinstance(out, float) else out.size


# work units recorded per span: product rows, or evaluated points
WORK = {
    "sta.gp": _product_rows,
    "sta.op": _product_rows,
    "sta.lc": _product_rows,
    "sta.cross": _product_rows,
    "sta.sp": _sp_rows,
    "fields.FieldExpr.sample": lambda out: out.shape[0],
    "fields.FieldExpr.at": lambda out: 1,
}


class Recorder:
    """Flat span store: parallel arrays indexed by span number."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.error = array("b")
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, work=None):
        nid = self.name_id(name)
        stack = self._stack
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        works, errors = self.work, self.error
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            works.append(0)
            errors.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                errors[idx] = 1
                stack.pop()
                raise
            ends[idx] = clock()
            stack.pop()
            if work is not None:
                works[idx] = work(out)
            return out

        traced.__wrapped_original__ = fn
        return traced

    def __len__(self) -> int:
        return len(self.name)

    def save(self, path: str) -> None:
        """Write the spans as a compressed .npz of parallel arrays; ``names``
        maps the ``name`` ids, ``parent`` is a span index or -1."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{
                key: np.frombuffer(getattr(self, key), dtype=dtype)
                for key, dtype in (
                    ("name", np.int32),
                    ("parent", np.int32),
                    ("start", np.float64),
                    ("end", np.float64),
                    ("work", np.int64),
                    ("error", np.int8),
                )
            },
        )


class Tracer:
    """Installs span wrappers into the multiform package and removes them."""

    def __init__(self):
        self.rec = Recorder()
        self._wrappers: dict[int, tuple[object, object]] = {}  # id -> (original, wrapper)
        self._restore: list[tuple[object, str, object]] = []

    def entry_points(self) -> dict[str, tuple[object, str, object]]:
        """span name -> (owner, attribute, function) for every traced entry."""
        found = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, value in vars(mod).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    found[f"{short}.{attr}"] = (mod, attr, value)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    found[f"{short}.{cls_name}.{meth}"] = (cls, meth, cls.__dict__[meth])
        return found

    def _slots(self):
        """(owner, key, value) for every module attribute of the loaded
        package, every value of a module-level dict, and every attribute of a
        class the package defines: the places an alias can be rebound."""
        for name, mod in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                yield mod, attr, value
                if isinstance(value, dict):
                    for key, item in list(value.items()):
                        yield value, key, item
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    for cattr, cvalue in list(vars(value).items()):
                        yield value, cattr, cvalue

    def _original(self, value) -> bool:
        hit = self._wrappers.get(id(value))
        return hit is not None and hit[0] is value

    def install(self) -> None:
        for name, (_, _, fn) in self.entry_points().items():
            wrapper = self.rec.wrap(name, fn, WORK.get(name))
            if name == "lattice.maxwell_operator":
                wrapper = self._wrap_operator_factory(wrapper)
            self._wrappers[id(fn)] = (fn, wrapper)
        for owner, key, value in list(self._slots()):
            if self._original(value):
                self._set(owner, key, self._wrappers[id(value)][1])
        leftovers = self.unbound_references()
        if leftovers:
            self.uninstall()
            raise RuntimeError(f"aliases left unwrapped: {leftovers}")

    def _wrap_operator_factory(self, factory):
        wrap = self.rec.wrap

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return wrap("lattice.maxwell_operator.apply", factory(*args, **kwargs))

        return traced_factory

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._restore.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._restore.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore.clear()

    def unbound_references(self) -> list[str]:
        """Places that still hold an original traced function: rebindable
        slots, plus list/tuple items, default arguments and closure cells."""
        left = []
        for owner, key, value in self._slots():
            where = f"{getattr(owner, '__name__', type(owner).__name__)}.{key}"
            if self._original(value):
                left.append(where)
            elif isinstance(value, (list, tuple)):
                left += [f"{where}[{i}]" for i, v in enumerate(value) if self._original(v)]
            elif inspect.isfunction(value) and not hasattr(value, "__wrapped_original__"):
                cells = []
                for cell in value.__closure__ or ():
                    try:
                        cells.append(cell.cell_contents)
                    except ValueError:  # empty cell
                        pass
                if any(self._original(v) for v in (*(value.__defaults__ or ()), *cells)):
                    left.append(f"{where} (default or closure)")
        return left


# ---------------------------------------------------------------------------
# reduction to per-layer metrics
# ---------------------------------------------------------------------------


def self_times(rec: Recorder) -> list[float]:
    """Span duration minus the time covered by its direct children.

    Calls are sequential in one thread, so children never overlap."""
    n = len(rec)
    child = [0.0] * n
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            child[p] += rec.end[i] - rec.start[i]
    return [rec.end[i] - rec.start[i] - child[i] for i in range(n)]


def group_of(name: str) -> str:
    return GROUPS.get(name, name.split(".")[0] + ".other")


def summarize(rec: Recorder) -> dict:
    """Per-group self time, calls entered from outside the group, work units
    of those calls, all spans and errors; plus per-layer self time."""
    selfs = self_times(rec)
    gname = [group_of(n) for n in rec.names]
    groups: dict[str, dict] = {}
    layers: dict[str, float] = {}
    applies_in_solve = 0
    for i in range(len(rec)):
        g = gname[rec.name[i]]
        s = groups.setdefault(g, {"self_s": 0.0, "calls": 0, "work": 0, "spans": 0, "errors": 0})
        s["self_s"] += selfs[i]
        s["spans"] += 1
        s["errors"] += rec.error[i]
        p = rec.parent[i]
        if p < 0 or gname[rec.name[p]] != g:
            s["calls"] += 1
            s["work"] += rec.work[i]
        layer = g.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + selfs[i]
        if g == "lattice.operator":
            while p >= 0 and gname[rec.name[p]] != "lattice.solve":
                p = rec.parent[p]
            applies_in_solve += p >= 0
    return {
        "groups": groups,
        "layers": layers,
        "min_self_s": min(selfs, default=0.0),
        "applies_in_solve": applies_in_solve,
        "spans": len(rec),
    }


def layer_metrics(summary: dict, checks: int) -> dict[str, float]:
    """The declared per-layer metrics, from a span summary."""
    g = summary["groups"]

    def grp(name: str) -> dict:
        return g.get(name, {"self_s": 0.0, "calls": 0, "work": 0, "spans": 0, "errors": 0})

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    prod, ev, deriv = grp("sta.prod"), grp("fields.eval"), grp("fields.deriv")
    solve, oper, stencil = grp("lattice.solve"), grp("lattice.operator"), grp("lattice.stencil")
    ext = [v for k, v in g.items() if k.startswith("extensor.")]
    smp = [v for k, v in g.items() if k.startswith("sampling.")]
    fields_errors = sum(v["errors"] for k, v in g.items() if k.startswith("fields."))
    return {
        "sta.prod_calls": prod["calls"],
        "sta.prod_rows": prod["work"],
        "sta.rows_per_call": ratio(prod["work"], prod["calls"]),
        "sta.prod_s": prod["self_s"],
        "sta.rows_per_s": ratio(prod["work"], prod["self_s"]),
        "sta.bytes_computed": prod["work"] * BYTES_PER_ROW,
        "extensor.calls": sum(v["calls"] for v in ext),
        "extensor.s": sum(v["self_s"] for v in ext),
        "fields.eval_calls": ev["calls"],
        "fields.eval_points": ev["work"],
        "fields.points_per_call": ratio(ev["work"], ev["calls"]),
        "fields.eval_s": ev["self_s"],
        "fields.deriv_calls": deriv["calls"],
        "fields.deriv_s": deriv["self_s"],
        "fields.errors": fields_errors,
        "gauge.build_calls": grp("gauge.build")["calls"],
        "gauge.build_s": grp("gauge.build")["self_s"],
        "gauge.check_calls": grp("gauge.check")["calls"],
        "gauge.check_s": grp("gauge.check")["self_s"],
        "lagrangian.residual_calls": grp("lagrangian.residual")["calls"],
        "lagrangian.residual_s": grp("lagrangian.residual")["self_s"],
        "lagrangian.variation_calls": grp("lagrangian.variation")["calls"],
        "lagrangian.decomposition_calls": grp("lagrangian.decomposition")["calls"],
        "lattice.operator_applies": oper["spans"],
        "lattice.operator_s": oper["self_s"],
        "lattice.solve_calls": solve["calls"],
        "lattice.solve_s": solve["self_s"],
        "lattice.applies_per_solve": ratio(summary["applies_in_solve"], solve["calls"]),
        "lattice.stencil_calls": stencil["calls"],
        "lattice.stencil_s": stencil["self_s"],
        "lattice.solver_errors": solve["errors"],
        "sampling.calls": sum(v["calls"] for v in smp),
        "sampling.s": sum(v["self_s"] for v in smp),
        "scenarios.self_s": grp("scenarios.run")["self_s"],
        "scenarios.checks": checks,
    }
