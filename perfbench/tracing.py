"""Spans around fracns's public functions, installed from outside the package.

``Tracer.install()`` replaces each traced function with a timing wrapper in
its home module and in every ``fracns`` namespace holding a copy of it
(``from .spectral import to_real`` binds a copy in the importer), and
wraps every FFT entry point of ``scipy.fft`` and ``numpy.fft``.  Spans stay
in memory, each with the id of the span that was open when it started;
``layer_metrics()`` reduces them at the end.  ``uninstall()`` restores
every original.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass

import numpy as np

# home module -> traced public functions
LAYERS = {
    "spectral": ("apply_bilinear", "projected_advection", "leray_project",
                 "fractional_power", "to_real"),
    "solver": ("solve_steady", "weak_lorentz_norm", "recover_pressure", "residual"),
    "spaces": ("lorentz_quasinorm",),
    "forces": ("make_force", "moment_matrix"),
    "asymptotics": ("build_kernel", "radial_profile", "fit_decay_exponent",
                    "nonexistence_certificate"),
    "evolve": ("kernel_l1_check",),
    "cli": ("run",),
}

FFT_MODULES = ("scipy.fft", "numpy.fft")
FFT_FUNCTIONS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
    "hfft", "ihfft", "hfft2", "ihfft2", "hfftn", "ihfftn",
    "dct", "idct", "dst", "idst", "dctn", "idctn", "dstn", "idstn",
    "fht", "ifht",
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float = 0.0
    end: float = 0.0
    work: float = 0.0  # FFT points, sorted samples or solver iterations

    @property
    def duration(self):
        return self.end - self.start


def _fft_points(args, kwargs, result):
    # samples on the real-space side: max of input and output sizes, so a
    # c2c, r2c and c2r transform of one n^3 field all count n^3
    data = args[0] if args else kwargs.get("x", kwargs.get("a"))  # scipy / numpy name
    return max(np.size(data), np.size(result))


def _quasinorm_samples(args, kwargs, result):
    return np.size(args[0] if args else kwargs["field"])


def _solver_iterations(args, kwargs, result):
    return result.diagnostics.iterations


WORK = {
    "fft": _fft_points,
    "spaces.lorentz_quasinorm": _quasinorm_samples,
    "solver.solve_steady": _solver_iterations,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (namespace, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, work = self.spans, self._stack, WORK.get(name)

        def wrapper(*args, **kwargs):
            # an FFT called from inside another FFT is part of that one
            if name == "fft" and stack and spans[stack[-1]].name == "fft":
                return fn(*args, **kwargs)
            span = Span(len(spans), stack[-1] if stack else None, name)
            spans.append(span)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if work is not None:
                span.work = float(work(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def _install(self):
        originals = {}  # id(original) -> wrapper
        for mod_name in FFT_MODULES:
            mod = importlib.import_module(mod_name)
            for fn_name in FFT_FUNCTIONS:
                fn = getattr(mod, fn_name, None)
                if fn is not None:
                    originals.setdefault(id(fn), self._wrap("fft", fn))
                    self._patch(mod, fn_name, originals[id(fn)])
        for mod_name, names in LAYERS.items():
            mod = importlib.import_module(f"fracns.{mod_name}")
            for fn_name in names:
                fn = getattr(mod, fn_name, None)
                if fn is None:
                    self.missing.append(f"{mod_name}.{fn_name}")
                    continue
                originals[id(fn)] = self._wrap(f"{mod_name}.{fn_name}", fn)
        # every fracns namespace: home modules and the copies made by imports
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fracns" or mod_name.startswith("fracns.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and value is wrapper.__wrapped__:
                    self._patch(mod, attr, wrapper)

    def _patch(self, namespace, attr, wrapper):
        self._patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def uninstall(self):
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def layer_metrics(self) -> dict:
        """``<layer>.{calls,s,self_s}`` for every traced function, plus FFT
        points, solver iterations and sorted Lorentz samples.  Layers never
        called report zeros."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        names = [f"{m}.{f}" for m, fns in LAYERS.items() for f in fns]
        acc = {name: [0, 0.0, 0.0, 0.0] for name in names + ["fft"]}
        for span in self.spans:
            a = acc[span.name]
            a[0] += 1
            a[1] += span.duration
            a[2] += span.duration - child_time[span.id]
            a[3] += span.work
        out = {}
        for name in names:
            calls, s, self_s, _ = acc[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = s
            out[f"{name}.self_s"] = self_s
        calls, s, _, points = acc["fft"]
        out["fft.calls"] = calls
        out["fft.s"] = s
        out["fft.points_m"] = points / 1e6
        iters, solve_s = acc["solver.solve_steady"][3], acc["solver.solve_steady"][1]
        out["solver.iterations"] = int(iters)
        out["solver.s_per_iter"] = solve_s / iters if iters else 0.0
        out["spaces.lorentz_quasinorm.samples_m"] = acc["spaces.lorentz_quasinorm"][3] / 1e6
        return out
