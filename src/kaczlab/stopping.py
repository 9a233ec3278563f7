"""Stopping rules as pluggable predicates over the iterate stream.

The windowed rule (``lise``) is the practical default: every L iterations it
compares the current iterate against a snapshot from L iterations ago and
fires when ``||current - snapshot|| / L`` drops below the tolerance.  It
needs neither the reference solution nor a residual, and keeps exactly one
snapshot.  For the stacked-system engines the monitored vector is [z; x];
for ``rek`` it is x alone.

The remaining kinds exist for comparison studies: ``rse``/``ase`` need the
reference solution, ``rres`` needs a full residual (and plateaus at the
noise floor on inconsistent systems), ``aise`` compares consecutive
iterates, over the same parts as ``lise`` (a greedy column step moves z
only), ``rek-native`` evaluates the extended method's two normalized
residuals every ``8 * min(m, n)`` steps, and ``grak-native`` is the
reference-based combined-error test whose large denominator makes it fire
early on big systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import ReferenceUnavailable, WindowNotReady

__all__ = [
    "RULE_KINDS",
    "StoppingRule",
    "LiseWindow",
    "lise_check",
    "rse_check",
    "ase_check",
    "aise_check",
    "rres_check",
    "rek_native_check",
    "grak_native_check",
    "make_monitor",
]

DEFAULT_WINDOW = 400
DEFAULT_ORACLE_PERIOD = 400


@dataclass(frozen=True)
class StoppingRule:
    """Configuration record for one stopping rule.

    ``window`` is the lag L of the windowed rule, which is also its
    evaluation cadence.  ``check_period`` overrides the cadence of the other
    rules (defaults: every iteration for ``aise``, ``8 * min(m, n)`` for
    ``rek-native``, 400 for the rest) and must be at least 1; ``lise``
    rejects it.
    """

    kind: str
    tol: float
    window: int = DEFAULT_WINDOW
    check_period: int | None = None

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown stopping rule {self.kind!r}; expected {RULE_KINDS}")
        if not self.tol > 0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")
        if self.window < 1:
            raise ValueError(f"window length must be >= 1, got {self.window}")
        if self.check_period is not None and self.check_period < 1:
            raise ValueError(f"check_period must be >= 1, got {self.check_period}")
        if self.kind == "lise" and self.check_period is not None:
            raise ValueError("the lise rule checks every window L; "
                             "check_period does not apply to it")


@dataclass
class LiseWindow:
    """One retained snapshot of the monitored iterate, L iterations old; a
    copy of the caller's array, which :func:`lise_check` never writes."""

    snapshot: np.ndarray

    def __post_init__(self):
        self.snapshot = np.array(self.snapshot, dtype=np.float64)


def _lagged_distance_sq(parts, snaps, diffs) -> float:
    """Sum of ||part - snap||^2 over the parts, then each snap := its part,
    through scratch ``diffs``: the kernel of both lise_check and the monitor."""
    total = 0.0
    for part, snap, diff in zip(parts, snaps, diffs):
        np.subtract(part, snap, out=diff)
        total += float(diff @ diff)
        np.copyto(snap, part)
    return total


def lise_check(window: LiseWindow, current: np.ndarray, k: int, L: int, tol: float):
    """Windowed lagged-iterate check at iteration k (a positive multiple of L).

    Returns ``(fired, value)`` with ``value = ||current - snapshot|| / L``;
    fires on ``value < tol``.  The snapshot takes the values of ``current``.
    """
    if k <= 0 or k % L != 0:
        raise WindowNotReady(f"iteration {k} is not a positive multiple of L={L}")
    snap = window.snapshot
    value = math.sqrt(_lagged_distance_sq((current,), (snap,), (np.empty_like(snap),))) / L
    return value < tol, value


def rse_check(x, x_star, tol: float):
    """Relative solution error ||x - x_star|| / ||x_star||; fires on <= tol."""
    if x_star is None:
        raise ReferenceUnavailable("relative solution error needs x_star")
    ref = float(np.linalg.norm(x_star))
    if ref == 0.0:
        raise ReferenceUnavailable("x_star is zero; relative error undefined")
    value = float(np.linalg.norm(x - x_star)) / ref
    return value <= tol, value


def ase_check(x, x_star, tol: float):
    """Absolute solution error ||x - x_star||; fires on <= tol."""
    if x_star is None:
        raise ReferenceUnavailable("absolute solution error needs x_star")
    value = float(np.linalg.norm(x - x_star))
    return value <= tol, value


def _aise_value(distance_sq: float, b, tol: float):
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        raise ValueError("b is zero; adjacent-iterate error undefined")
    value = math.sqrt(distance_sq) / bnorm
    return value <= tol, value


def aise_check(x_k, x_prev, b, tol: float):
    """Consecutive-iterate distance ``||x_k - x_prev|| / ||b||``; fires on <= tol.

    Inside ``run()`` the iterate is [z; x] for the stacked-system engines
    and x for ``rek``, the parts the windowed rule compares.  ``x_prev`` is
    left unchanged.
    """
    x_k = np.asarray(x_k, dtype=np.float64)
    snap = np.array(x_prev, dtype=np.float64)
    return _aise_value(_lagged_distance_sq((x_k,), (snap,), (np.empty_like(snap),)), b, tol)


def rres_check(x, system, tol: float):
    """Relative residual ||b - A x|| / ||b||; fires on <= tol.

    On inconsistent systems this plateaus at the orthogonal noise level, so
    it is a diagnostic rather than a default.
    """
    bnorm = float(np.linalg.norm(system.b))
    if bnorm == 0.0:
        raise ValueError("b is zero; relative residual undefined")
    value = float(np.linalg.norm(system.b - system.mat.matvec(x))) / bnorm
    return value <= tol, value


def rek_native_check(x, z, system, tol: float):
    """The extended method's own two-part test; deferred while x is zero.

    Fires when both ``||A x - (b - z)|| / (||A||_F ||x||)`` and
    ``||A^T z|| / (||A||_F^2 ||x||)`` are <= tol.  Costs two full products.
    """
    xnorm = float(np.linalg.norm(x))
    if xnorm == 0.0:
        return False, (math.inf, math.inf)
    mat = system.mat
    fro = math.sqrt(mat.frob_sq)
    v1 = float(np.linalg.norm(mat.matvec(x) - (system.b - z))) / (fro * xnorm)
    v2 = float(np.linalg.norm(mat.rmatvec(z))) / (mat.frob_sq * xnorm)
    return (v1 <= tol and v2 <= tol), (v1, v2)


def grak_native_check(x, z, x_star, z_star, b, tol: float):
    """Combined squared error of (x, z) over ``||x_star||^2 + ||b - z_star||^2``.

    The denominator grows with the problem, which is exactly why this test
    can fire long before x is accurate.
    """
    if x_star is None or z_star is None:
        raise ReferenceUnavailable("combined-error test needs x_star and z_star")
    b_range = b - z_star
    denom = float(x_star @ x_star) + float(b_range @ b_range)
    if denom == 0.0:
        raise ReferenceUnavailable("zero reference energy; test undefined")
    dx = x - x_star
    dz = z - z_star
    value = (float(dx @ dx) + float(dz @ dz)) / denom
    return value <= tol, value


# ---------------------------------------------------------------------------
# run-loop monitors
# ---------------------------------------------------------------------------


def _oracle_cadence(rule, mat):
    return DEFAULT_ORACLE_PERIOD


@dataclass(frozen=True)
class _Kind:
    """How a monitor runs one rule kind.

    ``check(monitor, state, system)`` returns ``(fired, value)`` through the
    kind's public check, every ``cadence(rule, mat)`` steps unless
    ``check_period`` overrides it.  A lagged kind's ``parts(state, stacked)``
    are the arrays that its check compares with their snapshots, then copies
    into them.
    """

    check: Callable
    cadence: Callable = _oracle_cadence
    parts: Callable | None = None


def _lise(mon, state, system):
    # in place over the parts, with buffers allocated at start: the run loop
    # is sensitive to megabyte-sized allocations every window
    total = _lagged_distance_sq(mon.parts(state), mon.snaps, mon.diffs)
    value = math.sqrt(total) / mon.period
    return value < mon.rule.tol, value


def _aise(mon, state, system):
    return _aise_value(_lagged_distance_sq(mon.parts(state), mon.snaps, mon.diffs),
                       system.b, mon.rule.tol)


def _rek_native(mon, state, system):
    fired, values = rek_native_check(state.x, state.z, system, mon.rule.tol)
    return fired, max(values)


def _lagged_parts(state, stacked):
    return (state.z, state.x) if stacked else (state.x,)


_KINDS = {
    "lise": _Kind(_lise, lambda rule, mat: rule.window, _lagged_parts),
    "rse": _Kind(lambda mon, state, system: rse_check(state.x, system.x_star, mon.rule.tol)),
    "ase": _Kind(lambda mon, state, system: ase_check(state.x, system.x_star, mon.rule.tol)),
    "aise": _Kind(_aise, lambda rule, mat: 1, _lagged_parts),
    "rres": _Kind(lambda mon, state, system: rres_check(state.x, system, mon.rule.tol)),
    "rek-native": _Kind(_rek_native, lambda rule, mat: 8 * min(mat.m, mat.n)),
    "grak-native": _Kind(lambda mon, state, system: grak_native_check(
        state.x, state.z, system.x_star, system.z_star, system.b, mon.rule.tol)),
}
RULE_KINDS = tuple(_KINDS)


class _Monitor:
    """Evaluation state of one rule inside one run; owns its trace."""

    def __init__(self, rule: StoppingRule, check, period: int, parts):
        self.rule = rule
        self.period = period
        self.trace: list = []
        self.parts = parts
        self.snaps = None
        self.diffs = None
        self._check = check

    def start(self, state, system):
        """Snapshot a lagged kind's parts, then run the check once, unrecorded,
        so a rule that cannot be evaluated fails before the first step."""
        if self.parts is not None:
            self.snaps = tuple(p.copy() for p in self.parts(state))
            self.diffs = tuple(np.empty_like(p) for p in self.snaps)
        self._check(self, state, system)

    def observe(self, k, state, system):
        fired, value = self._check(self, state, system)
        self.trace.append((k, value))
        return fired, value


def make_monitor(rule: StoppingRule, system, engine: str) -> _Monitor:
    """Instantiate the evaluation state for one (rule, system, engine) run.

    The windowed rule monitors [z; x] for the stacked-system engines and x
    alone for ``rek``.
    """
    kind = _KINDS[rule.kind]
    parts = kind.parts and partial(kind.parts, stacked=engine != "rek")
    period = rule.check_period or kind.cadence(rule, system.mat)
    return _Monitor(rule, kind.check, period, parts)
