"""Scalar comparison-principle checks for differential inequalities.

The model problem is h' <= F(h) = C*delta - B*h + h^5 with positive
constants.  When delta is small enough that the quadratic surrogate
C*delta - B*h + h^2 has a real lower root h_- in (0, 1), the interval
[0, h_-] traps every trajectory started inside it; this module verifies that
numerically on the worst-case equality dynamics, and provides the exponential
envelope check used for decaying energy series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ComparisonParams:
    """Constants of the comparison problem; B^2 >= 4 C delta is required."""

    B: float
    C: float
    delta: float
    h0: float = 0.0

    def __post_init__(self) -> None:
        if not (self.B > 0 and self.C > 0):
            raise ValueError("B and C must be positive")
        if self.delta < 0 or self.h0 < 0:
            raise ValueError("delta and h0 must be nonnegative")
        if self.B**2 < 4.0 * self.C * self.delta:
            raise ValueError("discriminant negative: no real root to trap below")

    @property
    def h_minus(self) -> float:
        return h_minus(self.B, self.C, self.delta)


@dataclass(frozen=True)
class TrapResult:
    h_minus: float
    max_h: float
    max_excess: float
    trapped: bool
    steps: int


def h_minus(B: float, C: float, delta: float) -> float:
    """Lower root (B - sqrt(B^2 - 4 C delta)) / 2 of the quadratic surrogate.

    Computed as 2 C delta / (B + sqrt(B^2 - 4 C delta)), which avoids the
    cancellation of the textbook form for small delta.
    """
    disc = B * B - 4.0 * C * delta
    if disc < 0.0:
        raise ValueError(f"discriminant {disc} is negative")
    return 2.0 * C * delta / (B + math.sqrt(disc))


def _rhs(h: np.ndarray, B: float, C: float, delta: float) -> np.ndarray:
    return C * delta - B * h + h**5


def verify_trap(params: ComparisonParams, tau_max: float = 50.0, dt: float = 1e-3) -> TrapResult:
    """Integrate the equality dynamics h' = C delta - B h + h^5 and check
    that the trajectory never leaves [0, h_- + 1e-9].

    Any series satisfying the differential *inequality* is dominated by this
    trajectory, so the check covers the whole comparison class.  Also asserts
    F(h_-) <= 0, which holds because h^5 <= h^2 on [0, 1].
    """
    hm = params.h_minus
    if not 0.0 < hm < 1.0:
        raise ValueError(f"trap root h_-={hm} outside (0, 1)")
    if params.h0 >= hm:
        raise ValueError(f"start value {params.h0} must lie below h_-={hm}")
    if not 0.0 < dt <= 0.25 / params.B:
        raise ValueError(f"dt={dt} is not stable for B={params.B}")
    f_at_root = _rhs(np.asarray(hm), params.B, params.C, params.delta)
    if f_at_root > 1e-12:
        raise AssertionError(f"F(h_-)={f_at_root} should be nonpositive")

    steps = int(math.ceil(tau_max / dt))
    B, C, delta = params.B, params.C, params.delta
    cd = C * delta
    h = float(params.h0)
    max_h = h
    for _ in range(steps):
        k1 = cd - B * h + h**5
        h2 = h + 0.5 * dt * k1
        k2 = cd - B * h2 + h2**5
        h3 = h + 0.5 * dt * k2
        k3 = cd - B * h3 + h3**5
        h4 = h + dt * k3
        k4 = cd - B * h4 + h4**5
        h = h + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not math.isfinite(h):
            raise FloatingPointError("trap integration diverged; reduce dt")
        if h > max_h:
            max_h = h
    excess = max_h - hm
    return TrapResult(
        h_minus=hm,
        max_h=max_h,
        max_excess=excess,
        trapped=(excess <= 1e-9) and (max_h >= 0.0),
        steps=steps,
    )


def envelope_excess(
    tau: np.ndarray, values: np.ndarray, rate: float, offset: float
) -> np.ndarray:
    """Rowwise excess values - env of a series over the exponential envelope
    implied by values' <= -rate * values + offset:

        env(tau) = exp(-rate (tau - tau0)) values(tau0)
                   + (offset / rate) (1 - exp(-rate (tau - tau0)))
    """
    tau = np.asarray(tau, dtype=float)
    values = np.asarray(values, dtype=float)
    if tau.size == 0:
        raise ValueError("empty series")
    if rate <= 0.0:
        raise ValueError(f"decay rate must be positive, got {rate}")
    decay = np.exp(-rate * (tau - tau[0]))
    return values - (decay * values[0] + (offset / rate) * (1.0 - decay))

