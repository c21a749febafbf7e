"""Model matrix construction.

A :class:`ModelMatrixSpec` is an ordered list of terms over the covariate
columns of a dataset and over time.  Terms are built with the constructor
functions below or parsed from compact strings ("``std(log1p(crp))``",
"``t*x``", "``period(0,2)``").

Time-dependent terms need a little care: inside the fitting routines a
row's covariates are combined with *event times* inside the row's interval,
not only with the row's own endpoint.  Evaluation therefore takes the row
indices and the times separately; see :meth:`BoundDesign.evaluate`.

Standardization ``(x - mean) / (2 * sd)`` uses the sample standard
deviation (ddof 1) computed once over the binding subset, so a standardized
column has sample standard deviation exactly 0.5 there.  Binding freezes
those statistics: every later evaluation applies the same affine map.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .data import Dataset
from .errors import ValidationError

__all__ = [
    "Term", "const", "cov", "time_term", "period", "interaction",
    "parse_term", "ModelMatrixSpec", "BoundDesign",
]

_TRANSFORMS = {
    None: lambda x: x,
    "log1p": np.log1p,
    "sqrt": np.sqrt,
}


@dataclass(frozen=True)
class Term:
    """One model matrix column (or one factor of an interaction)."""

    kind: str                    # const | cov | time | period | interaction
    name: Optional[str] = None   # covariate name, kind == cov only
    transform: Optional[str] = None
    standardize: bool = False
    lo: Optional[float] = None   # period bounds, kind == period only
    hi: Optional[float] = None
    factors: tuple = field(default_factory=tuple)

    def label(self) -> str:
        if self.kind == "const":
            return "1"
        if self.kind == "interaction":
            return ":".join(f.label() for f in self.factors)
        if self.kind == "period":
            return f"period({self.lo:g},{self.hi:g})"
        base = "t" if self.kind == "time" else self.name
        if self.transform:
            base = f"{self.transform}({base})"
        if self.standardize:
            base = f"std({base})"
        return base


def const() -> Term:
    return Term("const")


def cov(name: str, transform: Optional[str] = None, standardize: bool = False) -> Term:
    if transform not in _TRANSFORMS:
        raise ValidationError(f"unknown transform {transform!r}")
    return Term("cov", name=name, transform=transform, standardize=standardize)


def time_term(transform: Optional[str] = None, standardize: bool = False) -> Term:
    if transform not in _TRANSFORMS:
        raise ValidationError(f"unknown transform {transform!r}")
    return Term("time", transform=transform, standardize=standardize)


def period(lo: float, hi: float) -> Term:
    if not (lo < hi):
        raise ValidationError("period requires lo < hi")
    return Term("period", lo=float(lo), hi=float(hi))


def interaction(*factors: Term) -> Term:
    if not 2 <= len(factors) <= 3:
        raise ValidationError("interactions take two or three factors")
    for f in factors:
        if f.kind in ("const", "interaction"):
            raise ValidationError("interaction factors must be simple terms")
    return Term("interaction", factors=tuple(factors))


# -- compact string form ---------------------------------------------------

_PERIOD_RE = re.compile(r"^period\(\s*([^,()]+)\s*,\s*([^,()]+)\s*\)$")
_CALL_RE = re.compile(r"^(std|log1p|sqrt)\((.*)\)$")


def _parse_factor(text: str) -> Term:
    text = text.strip()
    if not text:
        raise ValidationError("empty term")
    if text == "1":
        return const()
    m = _PERIOD_RE.match(text)
    if m:
        try:
            return period(float(m.group(1)), float(m.group(2)))
        except ValueError:
            raise ValidationError(f"bad period bounds in {text!r}") from None
    standardize = False
    transform = None
    m = _CALL_RE.match(text)
    if m and m.group(1) == "std":
        standardize = True
        text = m.group(2).strip()
        m = _CALL_RE.match(text)
    if m and m.group(1) in ("log1p", "sqrt"):
        transform = m.group(1)
        text = m.group(2).strip()
        if _CALL_RE.match(text):
            raise ValidationError(f"nested transforms are not supported: {text!r}")
    if re.search(r"[()*,]", text) or text == "":
        raise ValidationError(f"cannot parse term {text!r}")
    if text == "t":
        return time_term(transform, standardize)
    return cov(text, transform, standardize)


def parse_term(text: str) -> Term:
    """Parse one term: factors joined by ``*``, e.g. ``t*std(x)``."""
    parts = [p for p in text.split("*")]
    factors = [_parse_factor(p) for p in parts]
    if len(factors) == 1:
        return factors[0]
    return interaction(*factors)


# -- spec and binding ------------------------------------------------------


class ModelMatrixSpec:
    """Ordered list of terms; the fitted design has one column per term."""

    def __init__(self, terms: Sequence):
        parsed = []
        for t in terms:
            parsed.append(parse_term(t) if isinstance(t, str) else t)
        self.terms = tuple(parsed)
        names = [t.label() for t in self.terms]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate terms in spec: {names}")
        self.names = tuple(names)

    def __len__(self) -> int:
        return len(self.terms)

    def has_const(self) -> bool:
        return any(t.kind == "const" for t in self.terms)


def _subset_rows(dataset: Dataset, subset: str) -> np.ndarray:
    if subset == "all":
        return np.arange(dataset.n_rows)
    if subset == "at_risk":
        return dataset.at_risk_row_indices()
    if subset == "visits":
        return dataset.visit_row_indices()
    raise ValidationError(f"unknown subset {subset!r} (expected all, at_risk or visits)")


def _raw_factor(dataset: Dataset, f: Term, rows: np.ndarray, times: np.ndarray) -> np.ndarray:
    if f.kind == "time":
        base = times
    elif f.kind == "cov":
        base = dataset.covariate_column(f.name)[rows]
    elif f.kind == "period":
        return ((times >= f.lo) & (times < f.hi)).astype(np.float64)
    else:
        raise ValidationError(f"cannot evaluate factor of kind {f.kind!r}")
    if f.transform == "log1p" and np.any(base <= -1.0):
        raise ValidationError(f"log1p needs values > -1 in term {f.label()!r}")
    if f.transform == "sqrt" and np.any(base < 0.0):
        raise ValidationError(f"sqrt needs non-negative values in term {f.label()!r}")
    # float64 already (Dataset columns, evaluate's times); never written to
    return _TRANSFORMS[f.transform](base)


class BoundDesign:
    """A spec bound to a dataset, with standardization statistics frozen."""

    def __init__(self, dataset: Dataset, spec: ModelMatrixSpec, subset: str = "at_risk",
                 rows: Optional[np.ndarray] = None):
        """Bind on the rows ``subset`` names, or on ``rows`` when given
        (row indices of ``dataset``, possibly repeated, standing for that
        subset of a dataset made from them)."""
        self.spec = spec
        self.names = spec.names
        self._stats: dict = {}
        if rows is None:
            rows = _subset_rows(dataset, subset)
        if rows.size == 0:
            raise ValidationError(f"subset {subset!r} selects no rows")
        times = dataset.end[rows]
        for term in spec.terms:
            factors = term.factors if term.kind == "interaction" else (term,)
            for f in factors:
                if f.kind == "const" or not f.standardize or f in self._stats:
                    continue
                v = _raw_factor(dataset, f, rows, times)
                mean = float(v.mean())
                sd = float(v.std(ddof=1)) if v.size > 1 else 0.0
                if sd == 0.0:
                    raise ValidationError(
                        f"term {f.label()!r} is constant on the binding subset; "
                        "cannot standardize")
                self._stats[f] = (mean, sd)

    @property
    def standardizes(self) -> bool:
        """Whether the frozen map depends on the binding rows."""
        return bool(self._stats)

    def _factor_values(self, dataset, f, rows, times):
        v = _raw_factor(dataset, f, rows, times)
        if f.standardize:
            mean, sd = self._stats[f]
            v = (v - mean) / (2.0 * sd)
        return v

    def evaluate(self, dataset: Dataset, rows: np.ndarray,
                 times: Optional[np.ndarray] = None) -> np.ndarray:
        """Design matrix for covariate ``rows`` evaluated at ``times``.

        ``times`` defaults to the rows' own interval endpoints.  Passing
        explicit times lets a caller evaluate a row's covariates at any
        event time inside the row's interval.  The result, shape
        ``(rows, terms)``, is column-major: its transpose is a C-contiguous
        ``(terms, rows)`` array, one row per term.

        Each distinct factor is gathered, transformed and standardized once
        per call, however many terms it enters; an interaction multiplies
        its factors into its column in the order the term lists them.
        """
        rows = np.asarray(rows)
        if times is None:
            times = dataset.end[rows]
        else:
            times = np.asarray(times, dtype=np.float64)
            if times.shape != rows.shape:
                raise ValidationError("rows and times must have equal length")
        out = np.empty((len(self.spec), rows.shape[0]), dtype=np.float64)
        values: dict = {}

        def factor(f):
            v = values.get(f)
            if v is None:
                v = values[f] = self._factor_values(dataset, f, rows, times)
            return v

        for j, term in enumerate(self.spec.terms):
            if term.kind == "const":
                out[j] = 1.0
            elif term.kind == "interaction":
                first, second, *rest = term.factors
                np.multiply(factor(first), factor(second), out=out[j])
                for f in rest:
                    out[j] *= factor(f)
            else:
                out[j] = factor(term)
        return out.T

