"""Per-module tracing, installed from outside the package.

``Tracer.install`` wraps the package's public functions and rebinds each
wrapped name in every ``irrvis`` module that holds it (``fit_cox`` in
``irrvis.inference``, ``irrvis.simlab``, ``irrvis.calibration``,
``irrvis.cli`` and the package itself, for one); methods and the
``RiskStructure`` constructor are wrapped on their class.  Nothing under
``src/`` is edited.  Spans are kept in memory while ``active`` and turned
into per-module metrics by ``metrics``.
"""

from __future__ import annotations

import functools
import sys
import time

from irrvis import (calibration, cli, cox, data, design, gee, inference,
                    riskset, simlab, weights)

_MODULES = {"data": data, "riskset": riskset, "design": design, "cox": cox,
            "weights": weights, "gee": gee, "inference": inference,
            "calibration": calibration, "simlab": simlab, "cli": cli}


def _n_rows(args, kwargs, result):
    return result.n_rows


def _n_iter(args, kwargs, result):
    return result.n_iter


# (module, qualified name, name of the per-call count, count from the call)
TARGETS = (
    ("data", "load_csv", "rows", _n_rows),
    ("data", "Dataset.take_patients", "rows", _n_rows),
    ("riskset", "RiskStructure", "pairs", lambda a, k, r: a[0].cover_row.size),
    ("design", "BoundDesign.evaluate", "rows", lambda a, k, r: r.shape[0]),
    ("cox", "fit_cox", "newton_iters", _n_iter),
    ("weights", "q_values", None, None),
    ("weights", "mle_weights", None, None),
    ("weights", "balancing_weights", None, None),
    ("weights", "balance_report", None, None),
    ("weights", "export_weights", None, None),
    ("gee", "fit_weighted_gee", "iters", _n_iter),
    ("inference", "analyze_once", None, None),
    ("inference", "sweep", None, None),
    ("inference", "jackknife", "deletions_failed", lambda a, k, r: r.n_failed),
    ("calibration", "calibrate", None, None),
    ("simlab", "generate", None, None),
    ("simlab", "run_study", None, None),
    ("simlab", "limiting_phi", None, None),
    ("cli", "main", None, None),
)

# (metric, numerator span, denominator span): calls per call
RATIOS = (
    ("riskset.RiskStructure.builds_per_cox_fit", "riskset.RiskStructure", "cox.fit_cox"),
    ("cox.fit_cox.calls_per_analysis", "cox.fit_cox", "inference.analyze_once"),
)


def metric_units() -> dict:
    """Every per-module metric name with its unit."""
    units = {}
    for module, qualname, count, _ in TARGETS:
        span = f"{module}.{qualname}"
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
        if count:
            units[f"{span}.{count}"] = "count"
    for name, _, _ in RATIOS:
        units[name] = "ratio"
    return units


class Tracer:
    """Spans ``(name, parent, start, end, count)`` recorded while active."""

    def __init__(self):
        self.active = False
        self.spans: list = []
        self._open: list = []

    def _wrap(self, span_name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            record = [span_name, parent, time.perf_counter(), None, 0]
            self.spans.append(record)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    record[4] = int(count(args, kwargs, result))
                return result
            finally:
                record[3] = time.perf_counter()
                self._open.pop()
        return wrapper

    def install(self) -> None:
        for module_name, qualname, count, count_fn in TARGETS:
            owner = _MODULES[module_name]
            span_name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, method = qualname.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self._wrap(span_name, getattr(cls, method),
                                                count_fn))
            elif isinstance(getattr(owner, qualname), type):
                cls = getattr(owner, qualname)
                cls.__init__ = self._wrap(span_name, cls.__init__, count_fn)
            else:
                original = getattr(owner, qualname)
                wrapper = self._wrap(span_name, original, count_fn)
                for name, module in list(sys.modules.items()):
                    if name != "irrvis" and not name.startswith("irrvis."):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def metrics(self, n_ops: int) -> dict:
        """Per-operation means of every metric in :func:`metric_units`.

        ``self_s`` is a span's duration minus the durations of its direct
        child spans, which nest inside it on this single thread.
        """
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = {}
        for (name, _, start, end, count), covered in zip(self.spans, child):
            calls, self_s, counted = totals.get(name, (0, 0.0, 0))
            totals[name] = (calls + 1, self_s + (end - start) - covered,
                            counted + count)
        values = {}
        for module, qualname, count, _ in TARGETS:
            span = f"{module}.{qualname}"
            calls, self_s, counted = totals.get(span, (0, 0.0, 0))
            values[f"{span}.calls"] = calls / n_ops
            values[f"{span}.self_s"] = self_s / n_ops
            if count:
                values[f"{span}.{count}"] = counted / n_ops
        for name, num, den in RATIOS:
            d = totals.get(den, (0,))[0]
            values[name] = totals.get(num, (0,))[0] / d if d else 0.0
        return values

