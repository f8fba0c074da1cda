"""Ledger storage and the inequality verdicts derived from it.

A ledger is the per-step record of a run: physical-variable norms, rescaled
functionals, split energies, and the nonlinear coupling integrals.  The
verifiers difference the series in the slow time tau and check each energy
inequality rowwise, fitting a certificate constant wherever the underlying
statement leaves a generic constant unspecified.  All verdicts are
deterministic functions of the ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gronwall_comparator

ROUTE_GAP_LIMIT = 1e-10

HOLDS = "holds"
HOLDS_WITH_CERTIFICATE = "holds_with_certificate"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

CSV_COLUMNS = (
    "t",
    "tau",
    "dt",
    "u_l2sq",
    "u_h1sq",
    "u_h2sq",
    "u_sup",
    "w_l2sq",
    "w_h1sq",
    "w_h2sq",
    "w_sup",
    "E_low",
    "E_high",
    "low_l4",
    "low_sup",
    "grad_high_sq",
    "trilinear_w",
    "lap_coupling",
    "route_gap",
)

CORRUPTION_KINDS = ("energy_bump", "trilinear_flip", "subrate_energy")


class LedgerError(ValueError):
    """A ledger failed one of its structural invariants."""


_COLUMN_INDEX = {name: i for i, name in enumerate(CSV_COLUMNS)}


class EnergyLedger:
    """Ledger rows as one read-only (rows, len(CSV_COLUMNS)) float64 table,
    columns in CSV_COLUMNS order, plus run metadata (alpha, grid, seed, ...).

    The ledger copies the table, validates it once and then freezes it, so
    every verifier can rely on the invariants of `validate` without
    re-checking them.  The copy is column-major, so each `column` view is
    contiguous.
    """

    def __init__(self, table, meta: dict | None = None) -> None:
        table = np.array(table, dtype=float, order="F")
        if table.ndim != 2 or table.shape[1] != len(CSV_COLUMNS):
            raise LedgerError(
                f"ledger table must have shape (rows, {len(CSV_COLUMNS)}), got {table.shape}"
            )
        table.flags.writeable = False
        self.table = table
        self.meta = dict(meta or {})
        self.validate()

    def __len__(self) -> int:
        return len(self.table)

    def column(self, name: str) -> np.ndarray:
        """Read-only view of one column."""
        return self.table[:, _COLUMN_INDEX[name]]

    def validate(self) -> None:
        if len(self.table) < 3:
            raise LedgerError(
                f"ledger has {len(self.table)} rows; differencing needs at least three"
            )
        tau = self.column("tau")
        if not np.all(np.diff(tau) > 0):
            raise LedgerError("tau must be strictly increasing")
        for name in CSV_COLUMNS:
            if not np.all(np.isfinite(self.column(name))):
                raise LedgerError(f"non-finite entries in column {name}")
        worst_gap = float(np.max(self.column("route_gap")))
        if worst_gap > ROUTE_GAP_LIMIT:
            raise LedgerError(f"route disagreement {worst_gap} exceeds {ROUTE_GAP_LIMIT}")
        energy0 = self.column("E_low")[0] + self.column("E_high")[0]
        if energy0 > self.column("w_l2sq")[0] * (1.0 + 1e-12) + 1e-300:
            raise LedgerError("initial split energy exceeds the total energy")

    def subsample(self, stride: int) -> "EnergyLedger":
        """Every stride-th row plus the final one: the ledger a coarser
        output stride would have produced from the same physics."""
        if stride < 1:
            raise ValueError("stride must be >= 1")
        keep = list(range(0, len(self.table), stride))
        if keep[-1] != len(self.table) - 1:
            keep.append(len(self.table) - 1)
        meta = dict(self.meta)
        meta["stride"] = meta.get("stride", 1) * stride
        return EnergyLedger(self.table[keep], meta=meta)

    def to_csv_text(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for row in self.table.tolist():
            lines.append(",".join(f"{v:.17g}" for v in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv_text(cls, text: str, meta: dict | None = None) -> "EnergyLedger":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise LedgerError("empty ledger file")
        header = tuple(h.strip() for h in lines[0].split(","))
        if header != CSV_COLUMNS:
            raise LedgerError(f"unexpected ledger header {header}")
        rows = []
        for number, ln in enumerate(lines[1:], start=2):
            parts = ln.split(",")
            if len(parts) != len(CSV_COLUMNS):
                raise LedgerError(f"line {number}: malformed ledger line: {ln!r}")
            try:
                rows.append([float(v) for v in parts])
            except ValueError as exc:
                raise LedgerError(f"line {number}: bad number in ledger: {ln!r}") from exc
        return cls(np.array(rows, dtype=float).reshape(-1, len(CSV_COLUMNS)), meta=meta)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_csv_text())

    @classmethod
    def read_csv(cls, path, meta: dict | None = None) -> "EnergyLedger":
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_csv_text(fh.read(), meta=meta)


@dataclass(frozen=True)
class InequalityReport:
    """Verdict for one inequality over a ledger.

    `max_residual` and `tolerance` are quoted at the row with the worst
    excess, so a violated report always has max_residual > tolerance.
    """

    inequality_id: str
    status: str
    max_residual: float
    tolerance: float
    certificate: float | None
    tau_range: tuple[float, float]
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CertificateConstant:
    inequality_id: str
    value: float
    n: int
    delta: float


def d_dtau(tau: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Derivative of a sampled series on a (possibly nonuniform) tau grid.

    Three-point centered differences in the interior, one-sided second-order
    stencils at the ends; error O(max spacing^2) for smooth series.
    """
    tau = np.asarray(tau, dtype=float)
    values = np.asarray(values, dtype=float)
    if tau.ndim != 1 or tau.shape != values.shape:
        raise ValueError("tau and values must be equal-length 1-d arrays")
    if tau.size < 3:
        raise ValueError("need at least three rows to difference")
    out = np.empty_like(values)
    hm = tau[1:-1] - tau[:-2]
    hp = tau[2:] - tau[1:-1]
    out[1:-1] = (
        -hp / (hm * (hm + hp)) * values[:-2]
        + (hp - hm) / (hm * hp) * values[1:-1]
        + hm / (hp * (hm + hp)) * values[2:]
    )
    a, b = tau[1] - tau[0], tau[2] - tau[1]
    out[0] = (
        -(2 * a + b) / (a * (a + b)) * values[0]
        + (a + b) / (a * b) * values[1]
        - a / (b * (a + b)) * values[2]
    )
    a, b = tau[-1] - tau[-2], tau[-2] - tau[-3]
    out[-1] = (
        (2 * a + b) / (a * (a + b)) * values[-1]
        - (a + b) / (a * b) * values[-2]
        + a / (b * (a + b)) * values[-3]
    )
    return out


def _local_spacing(tau: np.ndarray) -> np.ndarray:
    """Max adjacent spacing seen by the stencil at each row."""
    gaps = np.diff(tau)
    h = np.empty_like(tau)
    h[0] = max(gaps[0], gaps[1])
    h[-1] = max(gaps[-1], gaps[-2])
    h[1:-1] = np.maximum(gaps[:-1], gaps[1:])
    return h


def _window_max(values: np.ndarray) -> np.ndarray:
    """Max of each entry's window of five neighbours, with the series
    extended by its end values (so near the ends the window shrinks)."""
    padded = np.pad(values, 2, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, 5)
    return windows.max(axis=1)


def differencing_tolerance(tau: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Rowwise error budget for d_dtau applied to `values`.

    The leading truncation error of the centered stencil is h^2 |f'''| / 6,
    budgeted four times over; the third derivative is estimated from the
    series itself (the max over a window of five rows, so isolated dips do not
    understate it) and the roundoff/route floor of the differenced data is
    added.  Endpoint rows get four times the budget: the one-sided stencils
    carry larger constants.
    """
    tau = np.asarray(tau, dtype=float)
    values = np.asarray(values, dtype=float)
    d3 = d_dtau(tau, d_dtau(tau, d_dtau(tau, values)))
    d3_mag = _window_max(np.abs(d3))
    h = _local_spacing(tau)
    truncation = 4.0 * h**2 * d3_mag / 6.0
    data_floor = (ROUTE_GAP_LIMIT + 1e3 * np.finfo(float).eps) * np.abs(values)
    noise = 2.0 * data_floor / h
    tol = truncation + noise
    tol[0] *= 4.0
    tol[-1] *= 4.0
    return tol


def _headline(
    residual: np.ndarray, tol: np.ndarray
) -> tuple[float, float, bool]:
    """Residual/tolerance pair at the worst row, and whether it fired."""
    excess = residual - tol
    idx = int(np.argmax(excess))
    return float(residual[idx]), float(tol[idx]), bool(excess[idx] > 0.0)


def _tau_range(ledger: EnergyLedger) -> tuple[float, float]:
    tau = ledger.column("tau")
    return (float(tau[0]), float(tau[-1]))


def _burn_in_index(tau: np.ndarray) -> int:
    """First row at or past tau[0] + 1 (clamped to leave a tail)."""
    idx = int(np.searchsorted(tau, tau[0] + 1.0))
    return min(idx, len(tau) - 2)


def verify_l2_inequality(ledger: EnergyLedger) -> InequalityReport:
    """Energy inequality: (1/2) d/dtau ||w||^2 <= -(||grad w||^2 - ||w||^2/4).

    Two residual streams are checked: the differenced rescaled energy against
    its dissipation bound, and -- equivalently through the change of
    variables -- rowwise monotonicity of the physical-variable energy.
    """
    tau = ledger.column("tau")
    w2 = ledger.column("w_l2sq")
    h1 = ledger.column("w_h1sq")
    u2 = ledger.column("u_l2sq")

    lhs = 0.5 * d_dtau(tau, w2)
    rhs = -(h1 - 0.25 * w2)
    residual = lhs - rhs
    tol_rows = 0.5 * differencing_tolerance(tau, w2)
    tol_rows += ROUTE_GAP_LIMIT * (h1 + 0.25 * w2)
    res_a, tol_a, fired_a = _headline(residual, tol_rows)

    increments = np.diff(u2)
    tol_inc = np.full_like(increments, 1e-12 * max(float(np.max(u2)), 1e-300))
    res_b, tol_b, fired_b = _headline(increments, tol_inc)

    h = _local_spacing(tau)
    status = VIOLATED if (fired_a or fired_b) else HOLDS
    headline = (res_b, tol_b) if (fired_b and not fired_a) else (res_a, tol_a)
    return InequalityReport(
        inequality_id="l2_energy",
        status=status,
        max_residual=headline[0],
        tolerance=headline[1],
        certificate=None,
        tau_range=_tau_range(ledger),
        details={
            "max_differential_residual": float(np.max(residual)),
            "max_energy_increment": float(np.max(increments)),
            "fitted_quadratic_coefficient": float(np.max(residual / h**2)),
            "monotone_fired": fired_b,
        },
    )


def verify_h1_inequality(ledger: EnergyLedger) -> InequalityReport:
    """Gradient-energy ladder: the raw dissipation inequality, a fitted
    offset certificate, and the exponential envelope that offset implies.

    Raw:       d/dtau ||grad w||^2 <= -2||grad^2 w||^2 - ||grad w||^2/2 - 2 T(w)
    Fitted:    d/dtau ||grad w||^2 <= -||grad^2 w||^2 - ||grad w||^2/2 + c
    Envelope:  ||grad w||^2(tau) <= e^{-(tau-tau0)/2} ||grad w||^2(tau0)
                                     + 2 c (1 - e^{-(tau-tau0)/2})
    """
    tau = ledger.column("tau")
    f = ledger.column("w_h1sq")
    h2 = ledger.column("w_h2sq")
    tri = ledger.column("trilinear_w")
    grad_high = ledger.column("grad_high_sq")

    d1 = d_dtau(tau, f)
    raw_residual = d1 - (-2.0 * h2 - 0.5 * f - 2.0 * tri)
    tol_rows = differencing_tolerance(tau, f)
    tol_rows += ROUTE_GAP_LIMIT * (2.0 * h2 + 0.5 * f + 2.0 * np.abs(tri))
    res_a, tol_a, fired_a = _headline(raw_residual, tol_rows)

    offset_needed = d1 + h2 + 0.5 * f - tol_rows  # dead band absorbs stencil error
    certificate = float(max(0.0, np.max(offset_needed)))

    envelope_violation = gronwall_comparator.gronwall_envelope(
        tau, f, rate=0.5, offset=certificate
    )
    envelope_tol = 1e-8 * max(float(np.max(f)), 1e-300)
    fired_env = envelope_violation > envelope_tol

    burn = _burn_in_index(tau)
    delta1 = float(np.sqrt(np.max(grad_high[burn:])))

    if fired_a or fired_env:
        status = VIOLATED
    elif certificate > 0.0:
        status = HOLDS_WITH_CERTIFICATE
    else:
        status = HOLDS
    return InequalityReport(
        inequality_id="h1_gradient",
        status=status,
        max_residual=res_a,
        tolerance=tol_a,
        certificate=certificate,
        tau_range=_tau_range(ledger),
        details={
            "envelope_violation": envelope_violation,
            "envelope_tolerance": envelope_tol,
            "delta1": delta1,
            "max_raw_residual": float(np.max(raw_residual)),
        },
    )


def verify_h2_inequality(ledger: EnergyLedger) -> InequalityReport:
    """Curvature-energy decay: rowwise inequality plus a tail decay-rate fit.

    The rowwise check uses d/dtau ||Lap w||^2 <= -(3/2)||Lap w||^2 - 2 K(w),
    the form with the (always nonpositive) third-derivative dissipation term
    dropped; the stored columns carry no third-derivative norm.  The tail fit
    reports the largest rho with ||Lap w||^2(tau) <= e^{-rho (tau - tau0)}
    ||Lap w||^2(tau0) and compares it against the target 3/2 less the fitted
    gradient certificate scaled by the measured high-part gradient bound.
    """
    tau = ledger.column("tau")
    f = ledger.column("w_h2sq")
    lap = ledger.column("lap_coupling")

    d1 = d_dtau(tau, f)
    residual = d1 + 1.5 * f + 2.0 * lap
    tol_rows = differencing_tolerance(tau, f)
    tol_rows += ROUTE_GAP_LIMIT * (1.5 * f + 2.0 * np.abs(lap))
    res_a, tol_a, fired_a = _headline(residual, tol_rows)

    h1_report = verify_h1_inequality(ledger)
    delta1 = h1_report.details["delta1"]
    rate_target = 1.5 - h1_report.certificate * delta1

    start = _burn_in_index(tau)
    tail = tau >= tau[start] + 1.0
    floor = 1e-30 * max(float(np.max(f)), 1e-300)
    rho = 0.0
    trivial = f[start] <= floor
    if not trivial and np.any(tail):
        with np.errstate(divide="ignore"):
            rates = np.log(f[start] / np.maximum(f[tail], floor)) / (tau[tail] - tau[start])
        rho = float(np.min(rates))

    if fired_a:
        status = VIOLATED
    elif trivial:
        status = HOLDS
    elif rho >= rate_target:
        status = HOLDS_WITH_CERTIFICATE
    else:
        status = INCONCLUSIVE
    return InequalityReport(
        inequality_id="h2_laplacian",
        status=status,
        max_residual=res_a,
        tolerance=tol_a,
        certificate=rho,
        tau_range=_tau_range(ledger),
        details={
            "decay_rate": rho,
            "rate_target": rate_target,
            "delta1": delta1,
            "h1_certificate": h1_report.certificate,
            "tail_rows": int(np.count_nonzero(tail)),
        },
    )


def verify_decomposition_decay(
    ledger: EnergyLedger,
    alpha: float,
    tol: float = 0.05,
) -> InequalityReport:
    """Split-energy decay: certificate fit, exponential envelope, and the
    vanishing of the low-norm and high-energy columns.

    (a) fits the smallest C with (1/2) E' <= -alpha E + C E^(3/2) rowwise;
    (b) checks E(tau) <= E(tau0) e^{-alpha (tau - tau0)} (1 + tol); a failure
        counts as a violation when the smallness condition
        E(tau0) <= (alpha / 2C)^2 is active, and is inconclusive otherwise;
    (c) requires the low-pass L4/sup norms and the high split energy to be
        nonincreasing after burn-in and to end at <= 10% of their start.
    """
    meta_alpha = ledger.meta.get("alpha")
    if meta_alpha is not None and abs(meta_alpha - alpha) > 1e-12:
        raise LedgerError(f"ledger was built with alpha={meta_alpha}, not {alpha}")
    tau = ledger.column("tau")
    energy = ledger.column("E_low") + ledger.column("E_high")

    d1 = d_dtau(tau, energy)
    dead_band = 0.5 * differencing_tolerance(tau, energy) + ROUTE_GAP_LIMIT * alpha * energy
    surplus = 0.5 * d1 + alpha * energy - dead_band
    valid = energy > 1e-14 * max(float(np.max(energy)), 1e-300)
    certificate = 0.0
    if np.any(valid):
        certificate = float(max(0.0, np.max(surplus[valid] / energy[valid] ** 1.5)))

    smallness = math.inf if certificate == 0.0 else (alpha / (2.0 * certificate)) ** 2
    condition_active = energy[0] <= smallness
    envelope = energy[0] * np.exp(-alpha * (tau - tau[0])) * (1.0 + tol)
    excess = energy - envelope
    res_env, tol_env, fired_env = _headline(excess, np.zeros_like(excess))

    start = _burn_in_index(tau)
    tail_ok = True
    tail_ratios = {}
    for name in ("low_l4", "low_sup", "E_high"):
        series = ledger.column(name)
        if name != "E_high":
            series = series**2  # compare on the energy footing of E_high
        scale = max(float(np.max(series)), 1e-300)
        steps_ok = np.all(
            series[start + 1 :] <= series[start:-1] * (1.0 + 1e-6) + 1e-12 * scale
        )
        ratio = series[-1] / series[0] if series[0] > 0.0 else 0.0
        tail_ratios[name] = float(ratio)
        tail_ok = tail_ok and bool(steps_ok) and ratio <= 0.1

    if (fired_env and condition_active) or not tail_ok:
        status = VIOLATED
    elif fired_env:
        status = INCONCLUSIVE
    elif certificate > 0.0:
        status = HOLDS_WITH_CERTIFICATE
    else:
        status = HOLDS
    return InequalityReport(
        inequality_id="split_energy_decay",
        status=status,
        max_residual=res_env,
        tolerance=tol_env if fired_env else float(tol * max(energy[0], 1e-300)),
        certificate=certificate,
        tau_range=_tau_range(ledger),
        details={
            "smallness_threshold": smallness,
            "condition_active": bool(condition_active),
            "envelope_excess": float(np.max(excess)),
            "tail_ratios": tail_ratios,
            "tail_monotone_and_small": bool(tail_ok),
            "initial_energy": float(energy[0]),
        },
    )


def verify_blowup_rate(ledger: EnergyLedger, epsilon: float) -> InequalityReport:
    """Rate monitor: the earliest logged t0 with sqrt(T-t) sup|u| <= epsilon
    for every logged time after t0.

    The monitored quantity equals sup|w|, so the check reads off one ledger
    column.  With epsilon too small to ever be met the verdict is
    inconclusive, never violated: the bound is an eventual statement.
    """
    q = ledger.column("w_sup")
    t = ledger.column("t")
    over = q > epsilon
    if not np.any(over):
        idx = 0
    else:
        last_over = int(np.nonzero(over)[0][-1])
        idx = last_over if last_over + 1 < len(q) else None

    third = max(1, len(q) // 3)
    tail = q[-third:]
    slack = 1e-12 * max(float(np.max(q)), 1e-300)
    final_third_nonincreasing = bool(np.all(np.diff(tail) <= slack))

    if idx is None:
        status = INCONCLUSIVE
        residual = float(np.max(q - epsilon))
        t0 = None
    else:
        status = HOLDS
        residual = float(np.max(q[idx:] - epsilon))
        t0 = float(t[idx])
    return InequalityReport(
        inequality_id="supnorm_rate_monitor",
        status=status,
        max_residual=residual,
        tolerance=0.0,
        certificate=None,
        tau_range=_tau_range(ledger),
        details={
            "epsilon": epsilon,
            "t0": t0,
            "final_third_nonincreasing": final_third_nonincreasing,
            "monitor_final": float(q[-1]),
        },
    )


def two_route_audit(ledger: EnergyLedger) -> float:
    """Max relative gap between the two functional-computation routes."""
    return float(np.max(ledger.column("route_gap")))


def route_audit_report(ledger: EnergyLedger) -> InequalityReport:
    """The two-route verdict, which always holds.

    An `EnergyLedger` rejects a route gap above ROUTE_GAP_LIMIT when it is
    built, and its table is read-only, so no ledger that reaches this check
    can violate it; a run whose routes disagree ends in LedgerError instead.
    """
    return InequalityReport(
        inequality_id="two_route_audit",
        status=HOLDS,
        max_residual=two_route_audit(ledger),
        tolerance=ROUTE_GAP_LIMIT,
        certificate=None,
        tau_range=_tau_range(ledger),
        details={},
    )


def corrupt_ledger(ledger: EnergyLedger, kind: str) -> EnergyLedger:
    """Injected-defect fixtures for exercising the detectors.

    energy_bump      : one mid-run row gains 50% energy;
    trilinear_flip   : the trilinear column changes sign everywhere;
    subrate_energy   : split-energy columns decay at half the target rate.
    """
    if kind not in CORRUPTION_KINDS:
        raise ValueError(f"unknown corruption kind {kind!r}")
    table = ledger.table.copy()
    col = _COLUMN_INDEX
    if kind == "energy_bump":
        mid = len(table) // 2
        table[mid, [col["u_l2sq"], col["w_l2sq"]]] *= 1.5
    elif kind == "trilinear_flip":
        table[:, col["trilinear_w"]] = -table[:, col["trilinear_w"]]
    else:
        alpha = float(ledger.meta.get("alpha", 0.0625))
        tau = table[:, col["tau"]]
        decay = np.array([math.exp(-0.5 * alpha * (x - tau[0])) for x in tau])
        split = [col[c] for c in ("E_low", "E_high", "low_l4", "low_sup")]
        table[:, split] = np.outer(decay, table[0, split])
    meta = dict(ledger.meta)
    meta["corruption"] = kind
    return EnergyLedger(table, meta=meta)


def verify_all(
    ledger: EnergyLedger,
    alpha: float,
    epsilon: float = 0.1,
    decay_tol: float = 0.05,
) -> list[InequalityReport]:
    """The six verdicts over the ledger, in a fixed order."""
    return [
        verify_l2_inequality(ledger),
        verify_h1_inequality(ledger),
        verify_h2_inequality(ledger),
        verify_decomposition_decay(ledger, alpha, tol=decay_tol),
        verify_blowup_rate(ledger, epsilon),
        route_audit_report(ledger),
    ]
