"""Span tracing of the fracch layers from outside the package.

A :class:`Tracer` replaces the public layer functions with timing
wrappers at the module attributes through which fracch calls them, and
puts the originals back when it is closed.  A function that fracch
defines is wrapped under every name any ``fracch`` module binds it to,
so ``fracch.solver.nonlinear_load`` and ``fracch.fem1d.nonlinear_load``
share one wrapper.  A foreign function (scipy's ``solve_banded``) is
wrapped only at the named module, so the banded Newton solve in
``solver`` is not mixed up with the tridiagonal mass solves in ``fem1d``.

A target that does not exist at the traced commit is listed in
``absent`` and reads as zero calls; later refactors may fuse or delete
some of these functions.

Each span is ``(name, start, end, parent, sample)``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``sample`` the path
index of the latest ``path_stream`` call before the span began.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute, kind); kind "span" times every call,
# "count" only counts, "sample" counts and tags later spans with the
# path index.
TARGETS = (
    ("harness.run_study", "fracch.harness", "run_study", "span"),
    ("noise.path_stream", "fracch.noise", "path_stream", "sample"),
    ("noise.sample_path", "fracch.noise", "sample_path", "span"),
    ("noise.coarsen", "fracch.noise", "coarsen", "span"),
    ("noise.project_increments", "fracch.noise", "project_increments", "span"),
    ("noise.frac_integrated_noise", "fracch.noise", "frac_integrated_noise", "span"),
    ("fracops.cq_weights", "fracch.fracops", "cq_weights", "span"),
    ("solver.run_path", "fracch.solver", "run_path", "span"),
    ("solver.step", "fracch.solver", "step", "span"),
    ("solver.history_rhs", "fracch.solver", "history_rhs", "span"),
    ("solver.solve_banded", "fracch.solver", "solve_banded", "span"),
    ("fem1d.nonlinear_load", "fracch.fem1d", "nonlinear_load", "span"),
    ("fem1d.nonlinear_jacobian", "fracch.fem1d", "nonlinear_jacobian", "span"),
    ("fem1d.gauss_rule", "fracch.fem1d", "GaussRule.three_point", "count"),
)


def _fracch_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "fracch" or name.startswith("fracch."))
    ]


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``spans``, ``counts``,
    ``paths`` and ``absent`` afterwards."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.absent: list = []
        # one (newton_iters, steps, max_mass_drift, drift_bound) per run_path
        self.paths: list = []
        self.sample = None
        self._stack: list = []
        self._saved: list = []

    def __enter__(self):
        try:
            for target in self.targets:
                self._install(*target)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        """Put back every attribute this tracer replaced."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _install(self, name, module, attr, kind):
        try:
            mod = importlib.import_module(module)
        except ImportError:
            self.absent.append(name)
            return
        owner_name, _, attr_name = attr.rpartition(".")
        if owner_name:
            # a static method on a class: replace it on the class itself
            owner = getattr(mod, owner_name, None)
            raw = vars(owner).get(attr_name) if owner is not None else None
            if not isinstance(raw, staticmethod):
                self.absent.append(name)
                return
            wrapped = staticmethod(self._wrap(name, kind, raw.__func__))
            self._saved.append((owner, attr_name, raw))
            setattr(owner, attr_name, wrapped)
            return
        original = getattr(mod, attr_name, None)
        if not callable(original):
            self.absent.append(name)
            return
        wrapped = self._wrap(name, kind, original)
        if getattr(original, "__module__", None) == module:
            sites = [
                (m, key)
                for m in _fracch_modules()
                for key, value in list(vars(m).items())
                if value is original
            ]
        else:
            sites = [(mod, attr_name)]
        for owner, key in sites:
            self._saved.append((owner, key, original))
            setattr(owner, key, wrapped)

    def _wrap(self, name, kind, fn):
        counts = self.counts
        if kind == "count":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted
        if kind == "sample":
            signature = inspect.signature(fn)

            @functools.wraps(fn)
            def tagged(*args, **kwargs):
                counts[name] += 1
                bound = signature.bind(*args, **kwargs).arguments
                self.sample = bound.get("path_index")
                return fn(*args, **kwargs)

            return tagged

        spans, stack, clock = self.spans, self._stack, time.perf_counter
        on_return = self._record_path if name == "solver.run_path" else None

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            sample = self.sample
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, sample)
                counts[name] += 1
            if on_return is not None:
                on_return(result)
            return result

        return timed

    def _record_path(self, hist) -> None:
        """Newton work and mass drift of one finished run_path."""
        from fracch.fem1d import FeFunction, l2_norm

        reports = getattr(hist, "reports", None) or ()
        iters = sum(getattr(r, "newton_iters", 0) for r in reports)
        drift = float(getattr(hist, "max_mass_drift", float("nan")))
        try:
            u0 = FeFunction(hist.config.mesh, hist.u0)
            bound = 1e-10 * (1.0 + l2_norm(u0))
        except AttributeError:
            bound = float("nan")
        self.paths.append((iters, len(reports), drift, bound))

    def summary(self) -> dict:
        """Per name: total seconds, self seconds and number of calls."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for target in self.targets:
            out[target[0]] = {"s": 0.0, "self_s": 0.0, "calls": self.counts.get(target[0], 0)}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            entry = out[name]
            entry["s"] += end - start
            entry["self_s"] += end - start - inner
        return out
