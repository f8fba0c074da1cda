"""Ledger storage and the inequality verdicts derived from it.

A ledger is the per-step record of a run: physical-variable norms, rescaled
functionals, split energies, and the nonlinear coupling integrals.  The
verifiers difference the series in the slow time tau and check each energy
inequality rowwise, fitting a certificate constant wherever the underlying
statement leaves a generic constant unspecified.  Each verifier lists its
checks, and one rule (`_report`, stated in InequalityReport) turns the list
into the status and the quoted residual and tolerance.  All verdicts are
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

    A verdict is an ordered list of named checks, each a rowwise residual
    against a tolerance that fires where residual > tolerance.  The status is
    violated if a violated-kind check fires, else inconclusive if an
    inconclusive-kind check fires, else the verdict's clean status (holds or
    holds_with_certificate).  `max_residual` and `tolerance` are those of the
    check that decided the status (the first check when none fired) at its
    worst row, the row of largest residual - tolerance: a violated or
    inconclusive report has max_residual > tolerance, a holding one
    max_residual <= tolerance.  `details` names that check (`decided_by`)
    and its row (`worst_row`, `worst_tau`).
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


def _report(
    inequality_id: str,
    ledger: EnergyLedger,
    checks: list,
    clean: str,
    certificate: float | None,
    details: dict,
) -> InequalityReport:
    """The one rule that decides every verdict (see InequalityReport).

    `checks` is an ordered list of (name, first_row, residual, tolerance,
    status): residual[i] belongs to ledger row first_row + i, the tolerance
    is an array over those rows or a scalar, and `status` (violated or
    inconclusive) is what the check sets when it fires.  `clean` is the
    status when no check fires.
    """
    tau = ledger.column("tau")
    quotes, fired = [], []
    for name, first_row, residual, tol, status in checks:
        tol = np.broadcast_to(tol, residual.shape)
        row = int(np.argmax(residual - tol))
        quotes.append((status, name, first_row + row, float(residual[row]), float(tol[row])))
        if residual[row] > tol[row]:
            fired.append(quotes[-1])
    status, name, row, residual, tol = min(
        fired, key=lambda q: q[0] != VIOLATED, default=quotes[0]
    )
    return InequalityReport(
        inequality_id=inequality_id,
        status=status if fired else clean,
        max_residual=residual,
        tolerance=tol,
        certificate=certificate,
        tau_range=(float(tau[0]), float(tau[-1])),
        details={**details, "decided_by": name, "worst_row": row, "worst_tau": float(tau[row])},
    )


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

    increments = np.diff(u2)
    tol_inc = 1e-12 * max(float(np.max(u2)), 1e-300)

    h = _local_spacing(tau)
    checks = [
        ("differential", 0, residual, tol_rows, VIOLATED),
        ("energy_increment", 1, increments, tol_inc, VIOLATED),
    ]
    details = {
        "max_differential_residual": float(np.max(residual)),
        "max_energy_increment": float(np.max(increments)),
        "fitted_quadratic_coefficient": float(np.max(residual / h**2)),
        "monotone_fired": bool(np.any(increments > tol_inc)),
    }
    return _report("l2_energy", ledger, checks, HOLDS, None, details)


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

    offset_needed = d1 + h2 + 0.5 * f - tol_rows  # dead band absorbs stencil error
    certificate = float(max(0.0, np.max(offset_needed)))

    envelope = gronwall_comparator.envelope_excess(tau, f, rate=0.5, offset=certificate)
    envelope_tol = 1e-8 * max(float(np.max(f)), 1e-300)

    burn = _burn_in_index(tau)
    delta1 = float(np.sqrt(np.max(grad_high[burn:])))

    checks = [
        ("raw_inequality", 0, raw_residual, tol_rows, VIOLATED),
        ("envelope", 0, envelope, envelope_tol, VIOLATED),
    ]
    details = {
        "envelope_violation": float(np.max(envelope)),
        "envelope_tolerance": envelope_tol,
        "delta1": delta1,
        "max_raw_residual": float(np.max(raw_residual)),
    }
    clean = HOLDS_WITH_CERTIFICATE if certificate > 0.0 else HOLDS
    return _report("h1_gradient", ledger, checks, clean, certificate, details)


def verify_h2_inequality(ledger: EnergyLedger) -> InequalityReport:
    """Curvature-energy decay: rowwise inequality plus a tail decay-rate fit.

    The rowwise check uses d/dtau ||Lap w||^2 <= -(3/2)||Lap w||^2 - 2 K(w),
    the form with the (always nonpositive) third-derivative dissipation term
    dropped; the stored columns carry no third-derivative norm.  The tail fit
    reports the largest rho with ||Lap w||^2(tau) <= e^{-rho (tau - tau0)}
    ||Lap w||^2(tau0) and compares it against the target 3/2 less the fitted
    gradient certificate scaled by the measured high-part gradient bound;
    falling short of the target is inconclusive, not violated.
    """
    tau = ledger.column("tau")
    f = ledger.column("w_h2sq")
    lap = ledger.column("lap_coupling")

    d1 = d_dtau(tau, f)
    residual = d1 + 1.5 * f + 2.0 * lap
    tol_rows = differencing_tolerance(tau, f)
    tol_rows += ROUTE_GAP_LIMIT * (1.5 * f + 2.0 * np.abs(lap))

    h1_report = verify_h1_inequality(ledger)
    delta1 = h1_report.details["delta1"]
    rate_target = 1.5 - h1_report.certificate * delta1

    start = _burn_in_index(tau)
    first_tail = int(np.searchsorted(tau, tau[start] + 1.0))
    floor = 1e-30 * max(float(np.max(f)), 1e-300)
    trivial = f[start] <= floor
    checks = [("rowwise_inequality", 0, residual, tol_rows, VIOLATED)]
    rho = 0.0
    if not trivial:
        rates = np.zeros(1)  # no tail row yet: no decay measured
        if first_tail < len(tau):
            with np.errstate(divide="ignore"):
                rates = np.log(f[start] / np.maximum(f[first_tail:], floor))
            rates /= tau[first_tail:] - tau[start]
        rho = float(np.min(rates))
        checks.append(
            ("tail_rate", min(first_tail, len(tau) - 1), rate_target - rates, 0.0, INCONCLUSIVE)
        )
    details = {
        "decay_rate": rho,
        "rate_target": rate_target,
        "delta1": delta1,
        "h1_certificate": h1_report.certificate,
        "tail_rows": len(tau) - first_tail,
    }
    clean = HOLDS if trivial else HOLDS_WITH_CERTIFICATE
    return _report("h2_laplacian", ledger, checks, clean, rho, details)


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
        E(tau0) <= (alpha / 2C)^2 is active (always, when C = 0), and is
        inconclusive otherwise;
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

    smallness = None if certificate == 0.0 else (alpha / (2.0 * certificate)) ** 2
    condition_active = smallness is None or energy[0] <= smallness
    envelope = energy[0] * np.exp(-alpha * (tau - tau[0])) * (1.0 + tol)
    checks = [("envelope", 0, energy, envelope, VIOLATED if condition_active else INCONCLUSIVE)]

    start = _burn_in_index(tau)
    tail_ratios = {}
    for name in ("low_l4", "low_sup", "E_high"):
        series = ledger.column(name)
        if name != "E_high":
            series = series**2  # compare on the energy footing of E_high
        scale = max(float(np.max(series)), 1e-300)
        step_bound = series[start:-1] * (1.0 + 1e-6) + 1e-12 * scale
        ratio = series[-1] / series[0] if series[0] > 0.0 else 0.0
        tail_ratios[name] = float(ratio)
        checks += [
            (f"{name}_monotone", start + 1, series[start + 1 :], step_bound, VIOLATED),
            (f"{name}_end_ratio", len(tau) - 1, np.array([ratio]), 0.1, VIOLATED),
        ]
    tail_ok = not any(np.any(res > t) for _, _, res, t, _ in checks[1:])
    details = {
        "smallness_threshold": smallness,
        "condition_active": bool(condition_active),
        "envelope_excess": float(np.max(energy - envelope)),
        "tail_ratios": tail_ratios,
        "tail_monotone_and_small": tail_ok,
        "initial_energy": float(energy[0]),
    }
    clean = HOLDS_WITH_CERTIFICATE if certificate > 0.0 else HOLDS
    return _report("split_energy_decay", ledger, checks, clean, certificate, details)


def verify_blowup_rate(ledger: EnergyLedger, epsilon: float) -> InequalityReport:
    """Rate monitor: the earliest logged t0 with sqrt(T-t) sup|u| <= epsilon
    for every logged time after t0.

    The monitored quantity equals sup|w|, so the check reads off one ledger
    column; the report quotes the rows after t0 (all rows when no row
    exceeds epsilon, and t0 is the first logged time).  With epsilon too
    small to ever be met the verdict is inconclusive, never violated: the
    bound is an eventual statement.
    """
    q = ledger.column("w_sup")
    over = np.nonzero(q > epsilon)[0]
    first = int(over[-1]) + 1 if over.size else 0  # rows from here on meet the bound
    if first == len(q):  # the last row exceeds epsilon: no t0 yet
        t0, first = None, 0
    else:
        t0 = float(ledger.column("t")[max(first - 1, 0)])

    third = max(1, len(q) // 3)
    tail = q[-third:]
    slack = 1e-12 * max(float(np.max(q)), 1e-300)
    final_third_nonincreasing = bool(np.all(np.diff(tail) <= slack))

    checks = [("bound_after_t0", first, q[first:] - epsilon, 0.0, INCONCLUSIVE)]
    details = {
        "epsilon": epsilon,
        "t0": t0,
        "final_third_nonincreasing": final_third_nonincreasing,
        "monitor_final": float(q[-1]),
    }
    return _report("supnorm_rate_monitor", ledger, checks, HOLDS, None, details)


def two_route_audit(ledger: EnergyLedger) -> float:
    """Max relative gap between the two functional-computation routes."""
    return float(np.max(ledger.column("route_gap")))


def route_audit_report(ledger: EnergyLedger) -> InequalityReport:
    """The two-route verdict, which always holds.

    An `EnergyLedger` rejects a route gap above ROUTE_GAP_LIMIT when it is
    built, and its table is read-only, so no ledger that reaches this check
    can violate it; a run whose routes disagree ends in LedgerError instead.
    """
    checks = [("route_gap", 0, ledger.column("route_gap"), ROUTE_GAP_LIMIT, VIOLATED)]
    return _report("two_route_audit", ledger, checks, HOLDS, None, {})


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
