"""In-memory span tracing of randzest's public functions, installed from outside.

The program itself carries no tracing code.  :meth:`Tracer.install` replaces
each traced function at every module attribute that refers to it
(``zestim.solve`` and ``ate.solve`` alike, ``finitepop.observe`` and
``simlab.observe``), so every call site inside the package is timed;
:meth:`Tracer.uninstall` puts the originals back.

A span is ``(id, parent id, name, start, end, extra)`` with
``time.perf_counter`` stamps.  ``extra`` holds what a layer reports about its
own work: Newton iterations and convergence for ``solve``, computed bytes for
Jacobian tensors, replications and failures for ``run_study``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from itertools import count

# Functions timed as one span per call (per item for the enumerator), by module.
SPANNED = {
    "zestim": ("solve", "empirical_psi", "empirical_jacobian", "empirical_risk", "sandwich"),
    "estfun": ("glm_mean",),
    "ate": (
        "tau_model_based", "tau_model_imputed", "tau_model_assisted", "tau_unadjusted",
        "fit_working_model", "fit_optimal_adjustment", "adjusted_imputation",
    ),
    "finitepop": ("observe", "read_dataset_csv", "draw_assignment", "enumerate_assignments"),
    "ite": ("fit_normal_linear", "fit_ternary"),
    "cli": ("main",),
    "simlab": ("gen_population", "build_estimator", "run_study"),
}
# Factories whose EstimatingFunction gets traced psi/jac/loss callables.
ESTFUN_FACTORIES = {"estfun": ("glm_score_estfun", "squared_loss_estfun"), "ite": ("ite_estfun",)}


def _solve_extra(fit):
    return {"iters": fit.iterations, "nonconverged": int(not fit.converged)}


def _study_extra(table):
    return {"reps": table.replications, "failures": sum(r.failures for r in table.rows)}


def _jac_extra(tensor):
    return {"bytes": tensor.nbytes}


EXTRAS = {"zestim.solve": _solve_extra, "simlab.run_study": _study_extra}
ESTIMATOR_LABELS = ("b", "i", "ma", "ma_sq", "ai", "unadjusted")
LAYERS = (
    [f"{module}.{name}" for module, names in SPANNED.items() for name in names]
    + ["estfun.psi", "estfun.jac", "estfun.loss"]
    + [f"simlab.estimate.{label}" for label in ESTIMATOR_LABELS]
)


class Tracer:
    """Records spans around randzest calls while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = count(1)
        self._local = threading.local()
        self._patched: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, extra=None):
        """``fn`` with one span per call; ``extra(result)`` annotates it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            note = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                note = extra(result) if extra is not None else None
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, start, end, note))

        return traced

    def _wrap_generator(self, name: str, fn):
        """Generator function whose every ``next`` is one span."""
        step = self.wrap(name, next)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def items():
                while True:
                    try:
                        item = step(inner)
                    except StopIteration:
                        return
                    yield item

            return items()

        return traced

    def _wrap_estfun_factory(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            f = fn(*args, **kwargs)
            changes = {}
            for field, layer, extra in (
                ("psi", "estfun.psi", None), ("jac", "estfun.jac", _jac_extra),
                ("loss", "estfun.loss", None),
            ):
                for arm in ("1", "0"):
                    inner = getattr(f, field + arm)
                    if inner is not None:
                        changes[field + arm] = self.wrap(layer, inner, extra)
            return dataclasses.replace(f, **changes)

        return traced

    def _wrap_build_estimator(self, fn):
        timed_build = self.wrap("simlab.build_estimator", fn)

        @functools.wraps(fn)
        def traced(config, *args, **kwargs):
            estimate = timed_build(config, *args, **kwargs)
            label = config.kind
            if config.kind == "ma" and config.method == "squared-loss":
                label = "ma_sq"
            return self.wrap(f"simlab.estimate.{label}", estimate)

        return traced

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Replace every traced function at each randzest import site."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        replacements = {}
        for module_name, names in SPANNED.items():
            module = importlib.import_module(f"randzest.{module_name}")
            for name in names:
                original = getattr(module, name)
                layer = f"{module_name}.{name}"
                if layer == "simlab.build_estimator":
                    wrapper = self._wrap_build_estimator(original)
                elif layer == "finitepop.enumerate_assignments":
                    wrapper = self._wrap_generator(layer, original)
                else:
                    wrapper = self.wrap(layer, original, EXTRAS.get(layer))
                replacements[id(original)] = wrapper
        for module_name, names in ESTFUN_FACTORIES.items():
            module = importlib.import_module(f"randzest.{module_name}")
            for name in names:
                original = getattr(module, name)
                replacements[id(original)] = self._wrap_estfun_factory(original)

        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "randzest" or module_name.startswith("randzest.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def summarize(spans) -> dict[str, float]:
    """Per-layer metrics of one traced chunk.

    For every span name: ``<name>.calls``, ``<name>.s`` (wall time of the
    outermost spans of that name) and ``<name>.self_s`` (duration minus the
    time its child spans cover).  Derived counts and ratios follow.
    """
    by_id = {span[0]: span for span in spans}
    child_time: dict = defaultdict(float)
    for sid, parent, _name, start, end, _note in spans:
        if parent is not None:
            child_time[parent] += end - start

    def ancestor_names(span):
        parent = span[1]
        while parent is not None and parent in by_id:
            up = by_id[parent]
            yield up[2]
            parent = up[1]

    # Layers that did not run report zero.
    out: dict = defaultdict(float, {
        f"{layer}.{field}": 0.0 for layer in LAYERS for field in ("calls", "s", "self_s")
    })
    in_solve: dict = defaultdict(int)
    in_study = 0
    totals: dict = defaultdict(int)
    for span in spans:
        sid, _parent, name, start, end, note = span
        above = set(ancestor_names(span))
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (end - start) - child_time[sid]
        if name not in above:
            out[f"{name}.s"] += end - start
        if "zestim.solve" in above:
            in_solve[name] += 1
        if name == "zestim.solve" and "simlab.run_study" in above:
            in_study += 1
        if note:
            for key, value in note.items():
                totals[f"{name}.{key}"] += value

    iters = totals["zestim.solve.iters"]
    reps = totals["simlab.run_study.reps"]
    out["zestim.solve.iters"] = iters
    out["zestim.solve.nonconverged"] = totals["zestim.solve.nonconverged"]
    out["zestim.psi_evals_per_iter"] = in_solve["zestim.empirical_psi"] / iters if iters else 0.0
    out["zestim.risk_evals_per_iter"] = in_solve["zestim.empirical_risk"] / iters if iters else 0.0
    out["estfun.jac.bytes_computed"] = totals["estfun.jac.bytes"]
    out["simlab.solves_per_rep"] = in_study / reps if reps else 0.0
    out["simlab.failures"] = totals["simlab.run_study.failures"]
    return dict(out)
