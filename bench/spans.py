"""Span tracing around calls into each layer of ``isde``, from outside the package.

A :class:`Tracer` replaces public functions of the package's modules with
wrappers that record one span per call: name, start, end, parent span and
round id. Each wrapper also adds its duration to the parent's child time, so a
layer's self time is its span time minus the time covered by its children.
Aggregates (calls, inclusive and self time, per-layer counters) are kept per
round; raw spans are kept in memory for the first traced round only and
written out when the run ends.

The layers are the package's modules: ``cli``, ``harness``, ``solvers``,
``score``, ``sde_core`` and ``quadrature``. Wrappers are installed only around
traced rounds (:meth:`Tracer.install` / :meth:`Tracer.uninstall`), so untraced
rounds run the unmodified package.
"""

from __future__ import annotations

import dataclasses
import json
import os
from time import perf_counter

import numpy as np

import isde
import isde.cli
import isde.harness
import isde.quadrature
import isde.score
import isde.sde_core
import isde.solvers

# every module that binds a public name with ``from .x import name``
_MODULES = (isde, isde.cli, isde.harness, isde.quadrature, isde.score,
            isde.sde_core, isde.solvers)

SOLVER_SPANS = {
    "isde_solve": "solvers.isde",
    "euler_maruyama": "solvers.euler_maruyama",
    "pc_sampler": "solvers.pc",
    "rk2_midpoint": "solvers.rk2",
    "rk45_adaptive": "solvers.rk45",
}
SCHEDULE_FIELDS = ("k", "g", "sigma", "var", "gamma")
SCHEDULE = "sde_core.schedule"
SCORE = "score"


class RoundStats:
    """Per-name span totals and per-layer counters of one round."""

    def __init__(self):
        self.spans = {}  # name -> [calls, inclusive_s, self_s]
        self.counts = {}  # counter name -> number
        self.weight_keys = set()  # distinct (schedule, order, t_from, t_to)

    def add_span(self, name, dur, self_s):
        entry = self.spans.get(name)
        if entry is None:
            self.spans[name] = [1, dur, self_s]
        else:
            entry[0] += 1
            entry[1] += dur
            entry[2] += self_s

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def calls(self, name):
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def incl_s(self, name):
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name):
        return self.spans.get(name, (0, 0.0, 0.0))[2]


class Tracer:
    """Records spans around calls into the package while installed."""

    def __init__(self):
        self.stack = []  # open spans: [span_id, child_s]
        self.round_id = "setup"
        self.stats = RoundStats()
        self.keep_spans = False
        self.spans = []  # (id, parent, name, start, end, round) of kept rounds
        self._next_id = 0
        self._in_score = False
        self._saved = []  # (owner, attribute, original) to restore
        self._functions = self._function_wrappers()  # id(original) -> wrapper
        self._studies = {name: self.wrap(f"harness.study_ms.{name}", fn)
                         for name, fn in isde.harness.STUDIES.items()}
        result_cls, model_cls = isde.harness.StudyResult, isde.score.ScoreModel
        self._methods = (
            (result_cls, "write", self.wrap("harness.write", result_cls.write, self._on_write)),
            (model_cls, "__call__", self._score_call(model_cls.__call__)),
        )

    # -- span bookkeeping -------------------------------------------------
    def _enter(self):
        self._next_id += 1
        parent = self.stack[-1][0] if self.stack else None
        frame = [self._next_id, 0.0]
        self.stack.append(frame)
        return frame, parent

    def _exit(self, name, frame, parent, start, end):
        self.stack.pop()
        dur = end - start
        if self.stack:
            self.stack[-1][1] += dur
        self.stats.add_span(name, dur, dur - frame[1])
        if self.keep_spans:
            self.spans.append((frame[0], parent, name, start, end, self.round_id))

    def wrap(self, name, fn, on_result=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``on_result(args, kwargs, result)`` runs after the span closes, so its
        own cost is not charged to the layer.
        """
        tracer = self

        def traced(*args, **kwargs):
            frame, parent = tracer._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame, parent, start, perf_counter())
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def begin_round(self, round_id, keep_spans=False):
        self.round_id = round_id
        self.stats = RoundStats()
        self.keep_spans = keep_spans
        frame, parent = self._enter()
        return frame, parent, perf_counter()

    def end_round(self, opened):
        frame, parent, start = opened
        self._exit("round", frame, parent, start, perf_counter())
        self.keep_spans = False
        return self.stats

    def write_spans(self, path):
        """Write the kept spans as JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, rid in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end, "round": rid}) + "\n")

    # -- counters fed from call results -----------------------------------
    def _on_solve(self, kind):
        def record(args, kwargs, out):
            self.stats.count(f"{kind}.nfe", out.nfe)
        return record

    def _on_integrate(self, args, kwargs, res):
        self.stats.count("quadrature.evals", res.evaluations)

    def _on_weight(self, order_of):
        def record(args, kwargs, value):
            sde, rest = args[0], list(args[1:])
            order = order_of(rest)
            t_from, t_to = (float(v) for v in rest[-2:])
            self.stats.weight_keys.add((sde.params, sde.delta, order, t_from, t_to))
        return record

    def _on_write(self, args, kwargs, mpath):
        self.stats.count("harness.write_bytes",
                         os.path.getsize(args[1]) + os.path.getsize(mpath))

    def _score_call(self, original):
        traced = self.wrap(SCORE, original)

        def __call__(model, x, y, t):
            # a model that delegates to another (eps_adapter) is one model call
            if self._in_score:
                return original(model, x, y, t)
            self._in_score = True
            try:
                return traced(model, x, y, t)
            finally:
                self._in_score = False
                self.stats.count("score.paths", int(np.size(x)))

        return __call__

    # -- installing and removing wrappers ---------------------------------
    def trace_schedule(self, sde):
        """Copy of a schedule bundle whose k/g/sigma/var/gamma record spans."""
        return dataclasses.replace(sde, **{f: self.wrap(SCHEDULE, getattr(sde, f))
                                           for f in SCHEDULE_FIELDS})

    def _function_wrappers(self):
        h = isde.harness
        table = {
            isde.cli.main: ("cli.main", None),
            h.config_from_dict: ("harness.config_from_dict", None),
            h.reference_solution: ("harness.reference", None),
            isde.quadrature.integrate: ("quadrature.integrate", self._on_integrate),
            isde.solvers.omega_weight: ("solvers.omega_weight",
                                        self._on_weight(lambda rest: rest[0])),
            isde.solvers.ito_increment: ("solvers.ito_increment",
                                         self._on_weight(lambda rest: "ito")),
        }
        for fn_name, span in SOLVER_SPANS.items():
            table[getattr(isde.solvers, fn_name)] = (span, self._on_solve(span))
        wrappers = {id(fn): self.wrap(name, fn, on_result)
                    for fn, (name, on_result) in table.items()}

        # bundles built while traced carry traced schedule callables
        make_sde = self.wrap("sde_core.make_sde", isde.sde_core.make_sde)

        def traced_make_sde(*args, **kwargs):
            return self.trace_schedule(make_sde(*args, **kwargs))

        wrappers[id(isde.sde_core.make_sde)] = traced_make_sde
        return wrappers

    def install(self):
        """Replace every binding of the traced functions in the package."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                wrapper = self._functions.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
        studies = isde.harness.STUDIES
        for name, wrapper in self._studies.items():
            self._saved.append((studies, name, studies[name]))
            studies[name] = wrapper
        for cls, attr, wrapper in self._methods:
            self._saved.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
