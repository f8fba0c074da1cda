"""Tests for ledger handling, differencing, and the inequality verifiers."""

import numpy as np
import pytest

from torusns.inequality_lab import (
    CORRUPTION_KINDS,
    CSV_COLUMNS,
    _window_max,
    EnergyLedger,
    LedgerError,
    corrupt_ledger,
    d_dtau,
    route_audit_report,
    two_route_audit,
    verify_all,
    verify_blowup_rate,
    verify_decomposition_decay,
    verify_h1_inequality,
    verify_h2_inequality,
    verify_l2_inequality,
)


def make_table(tau, **columns):
    """Synthetic ledger table; unspecified columns are zero."""
    table = np.zeros((len(tau), len(CSV_COLUMNS)))
    table[:, CSV_COLUMNS.index("tau")] = tau
    table[:, CSV_COLUMNS.index("t")] = 1.0 - np.exp(-np.asarray(tau, dtype=float))
    for name, values in columns.items():
        table[:, CSV_COLUMNS.index(name)] = values
    return table


def zero_ledger(n_rows=40, alpha=0.0625):
    tau = np.linspace(0.0, 6.0, n_rows)
    return EnergyLedger(make_table(tau), meta={"alpha": alpha})


class TestDifferencing:
    def test_linear_exact(self):
        tau = np.linspace(0.0, 3.0, 25)
        assert np.max(np.abs(d_dtau(tau, tau) - 1.0)) < 1e-12

    def test_constant_zero(self):
        tau = np.linspace(0.0, 3.0, 25)
        assert np.max(np.abs(d_dtau(tau, np.full(25, 4.2)))) < 1e-12

    def test_quadratic_exact_on_nonuniform_grid(self):
        rng = np.random.default_rng(0)
        tau = np.cumsum(rng.uniform(0.01, 0.2, 30))
        f = 3.0 * tau**2 - tau + 0.5
        assert np.max(np.abs(d_dtau(tau, f) - (6.0 * tau - 1.0))) < 1e-9

    def test_second_order_richardson(self):
        def max_err(n):
            tau = np.linspace(0.0, 2.0, n)
            err = d_dtau(tau, np.exp(-tau)) - (-np.exp(-tau))
            return np.max(np.abs(err))

        assert max_err(81) / max_err(161) >= 3.0

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            d_dtau(np.array([0.0, 1.0]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6, 7, 289])
    def test_window_max_is_clamped_max_of_five(self, length):
        # the budget's third-derivative estimate: each row takes the max over
        # rows i-2..i+2, clamped to the series
        values = np.abs(np.random.default_rng(length).standard_normal(length))
        direct = [max(values[max(i - 2, 0) : min(i + 3, length)]) for i in range(length)]
        assert np.array_equal(_window_max(values), np.array(direct))


class TestLedgerStorage:
    def test_csv_roundtrip_bit_exact(self, small_ledger):
        text = small_ledger.to_csv_text()
        again = EnergyLedger.from_csv_text(text, meta=small_ledger.meta)
        assert again.to_csv_text() == text

    def test_csv_header_fixed(self, small_ledger):
        header = small_ledger.to_csv_text().splitlines()[0]
        assert header == (
            "t,tau,dt,u_l2sq,u_h1sq,u_h2sq,u_sup,w_l2sq,w_h1sq,w_h2sq,w_sup,"
            "E_low,E_high,low_l4,low_sup,grad_high_sq,trilinear_w,lap_coupling,route_gap"
        )

    def test_bad_header_rejected(self):
        with pytest.raises(LedgerError):
            EnergyLedger.from_csv_text("a,b,c\n1,2,3\n")

    def test_bad_number_rejected(self, small_ledger):
        lines = small_ledger.to_csv_text().splitlines()
        parts = lines[1].split(",")
        parts[3] = "zero"
        lines[1] = ",".join(parts)
        with pytest.raises(LedgerError, match="line 2"):
            EnergyLedger.from_csv_text("\n".join(lines))

    def test_subsample_keeps_endpoints(self, small_ledger):
        sub = small_ledger.subsample(7)
        assert sub.column("t")[0] == small_ledger.column("t")[0]
        assert sub.column("t")[-1] == small_ledger.column("t")[-1]
        assert len(sub) < len(small_ledger)

    def test_validate_rejects_fewer_than_three_rows(self):
        for rows in (0, 1, 2):
            with pytest.raises(LedgerError, match=f"ledger has {rows} rows"):
                EnergyLedger(make_table(np.arange(float(rows))))

    def test_validate_rejects_nonmonotone_tau(self):
        table = zero_ledger().table.copy()
        table[[5, 6]] = table[[6, 5]]
        with pytest.raises(LedgerError):
            EnergyLedger(table)

    def test_validate_rejects_nan(self):
        tau = np.linspace(0.0, 1.0, 10)
        w = np.zeros(10)
        w[3] = np.nan
        with pytest.raises(LedgerError):
            EnergyLedger(make_table(tau, w_l2sq=w))

    def test_validate_rejects_route_divergence(self):
        tau = np.linspace(0.0, 1.0, 10)
        gap = np.zeros(10)
        gap[-1] = 1e-8
        with pytest.raises(LedgerError):
            EnergyLedger(make_table(tau, route_gap=gap))

    def test_validate_rejects_split_excess(self):
        tau = np.linspace(0.0, 1.0, 10)
        with pytest.raises(LedgerError):
            EnergyLedger(make_table(tau, E_low=np.full(10, 2.0), w_l2sq=np.ones(10)))


class TestL2Verifier:
    def test_zero_trajectory(self):
        report = verify_l2_inequality(zero_ledger())
        assert report.status == "holds"
        assert report.max_residual == pytest.approx(0.0, abs=1e-15)

    def test_small_run_holds(self, small_ledger):
        report = verify_l2_inequality(small_ledger)
        assert report.status == "holds"

    def test_energy_bump_flagged(self, small_ledger):
        report = verify_l2_inequality(corrupt_ledger(small_ledger, "energy_bump"))
        assert report.status == "violated"
        assert report.max_residual > report.tolerance


class TestH1Verifier:
    def test_zero_trajectory(self):
        report = verify_h1_inequality(zero_ledger())
        assert report.status == "holds"
        assert report.certificate == 0.0

    def test_small_run(self, small_ledger):
        report = verify_h1_inequality(small_ledger)
        assert report.status in ("holds", "holds_with_certificate")
        assert report.details["envelope_violation"] <= report.details["envelope_tolerance"]

    def test_envelope_only_failure_quotes_the_envelope(self, h1_envelope_only_ledger):
        report = verify_h1_inequality(h1_envelope_only_ledger)
        assert report.status == "violated"
        assert report.details["decided_by"] == "envelope"
        assert report.details["max_raw_residual"] < 0.0
        assert report.max_residual == report.details["envelope_violation"]
        assert report.tolerance == report.details["envelope_tolerance"]

    def test_missing_rows_error(self):
        # a two-row ledger is rejected when it is built, before any verifier
        tau = np.array([0.0, 0.5])
        with pytest.raises(ValueError):
            verify_h1_inequality(EnergyLedger(make_table(tau)))


class TestH2Verifier:
    def test_zero_trajectory(self):
        report = verify_h2_inequality(zero_ledger())
        assert report.status == "holds"

    def test_small_run_rate(self, small_ledger):
        report = verify_h2_inequality(small_ledger)
        assert report.status in ("holds", "holds_with_certificate")
        assert report.details["decay_rate"] > 0.0

    def test_heat_kernel_rate_closed_form(self):
        # u-side curvature energy of a |k|=1 mode decays like e^{-2t}; the
        # rescaled column is s^(3/2) times that.  The fitted rate must agree
        # with the closed form evaluated on the same grid of rows.
        tau = np.linspace(0.0, 6.0, 400)
        t = 1.0 - np.exp(-tau)
        s = 1.0 - t
        h2 = s**1.5 * np.exp(-2.0 * t)
        lap = np.zeros_like(tau)
        table = make_table(tau, w_h2sq=h2, lap_coupling=lap, u_h2sq=np.exp(-2.0 * t))
        ledger = EnergyLedger(table)
        report = verify_h2_inequality(ledger)
        start = np.searchsorted(tau, tau[0] + 1.0)
        tail = tau >= tau[start] + 1.0
        expected = np.min(
            np.log(h2[start] / h2[tail]) / (tau[tail] - tau[start])
        )
        assert report.details["decay_rate"] == pytest.approx(expected, rel=1e-9)
        assert report.status == "holds_with_certificate"


class TestDecompositionVerifier:
    def test_zero_trajectory(self):
        report = verify_decomposition_decay(zero_ledger(), alpha=0.0625)
        assert report.status == "holds"
        assert report.certificate == 0.0

    def test_exact_rate_series_envelope(self):
        alpha = 0.0625
        tau = np.linspace(0.0, 6.0, 300)
        e = 1e-4 * np.exp(-alpha * tau)
        fast = 1e-4 * np.exp(-2.0 * tau)  # high part collapses quickly
        table = make_table(
            tau,
            E_low=e - 0.5 * fast,
            E_high=0.5 * fast,
            low_l4=np.sqrt(fast),
            low_sup=np.sqrt(fast),
            w_l2sq=np.full_like(tau, 1.0),
        )
        report = verify_decomposition_decay(EnergyLedger(table), alpha=alpha)
        assert report.details["envelope_excess"] <= 0.0
        assert report.status in ("holds", "holds_with_certificate")

    def test_small_run(self, small_ledger):
        report = verify_decomposition_decay(small_ledger, alpha=0.0625)
        assert report.status in ("holds", "holds_with_certificate")
        assert report.details["condition_active"]

    def test_subrate_series_flagged(self, small_ledger):
        bad = corrupt_ledger(small_ledger, "subrate_energy")
        report = verify_decomposition_decay(bad, alpha=0.0625)
        assert report.status == "violated"

    def test_alpha_mismatch(self, small_ledger):
        with pytest.raises(LedgerError):
            verify_decomposition_decay(small_ledger, alpha=0.1)


class TestRateMonitor:
    def test_zero_trajectory(self):
        report = verify_blowup_rate(zero_ledger(), epsilon=0.1)
        assert report.status == "holds"
        assert report.details["t0"] == 0.0

    def test_small_run(self, small_ledger):
        report = verify_blowup_rate(small_ledger, epsilon=0.1)
        assert report.status == "holds"
        assert report.details["t0"] is not None

    def test_zero_epsilon_inconclusive(self, small_ledger):
        report = verify_blowup_rate(small_ledger, epsilon=0.0)
        assert report.status == "inconclusive"

    def test_mid_run_crossing(self):
        tau = np.linspace(0.0, 6.0, 50)
        q = np.where(tau < 2.0, 1.0, 0.01)
        ledger = EnergyLedger(make_table(tau, w_sup=q))
        report = verify_blowup_rate(ledger, epsilon=0.1)
        assert report.status == "holds"
        crossing_t = ledger.column("t")[np.argmax(tau >= 2.0) - 1]
        assert report.details["t0"] == pytest.approx(crossing_t)

    def test_quotes_only_rows_after_t0(self):
        # the row at t0 is the last one above epsilon; the bound is claimed after it
        tau = np.linspace(0.0, 6.0, 50)
        q = np.where(tau < 2.0, 1.0, 0.01)
        ledger = EnergyLedger(make_table(tau, w_sup=q))
        report = verify_blowup_rate(ledger, epsilon=0.1)
        assert report.status == "holds"
        assert report.max_residual == pytest.approx(0.01 - 0.1)
        assert report.max_residual <= report.tolerance
        assert ledger.column("t")[report.details["worst_row"]] > report.details["t0"]


class TestRouteAudit:
    def test_zero_ledger(self):
        assert two_route_audit(zero_ledger()) == 0.0

    def test_small_run(self, small_ledger):
        assert two_route_audit(small_ledger) <= 1e-10
        assert route_audit_report(small_ledger).status == "holds"


class TestCorruptions:
    def test_unknown_kind(self, small_ledger):
        with pytest.raises(ValueError):
            corrupt_ledger(small_ledger, "gremlins")

    def test_all_kinds_produce_valid_structure(self, small_ledger):
        for kind in ("energy_bump", "trilinear_flip", "subrate_energy"):
            bad = corrupt_ledger(small_ledger, kind)
            assert bad.meta["corruption"] == kind
            assert len(bad) == len(small_ledger)

    def test_input_left_unchanged(self, small_ledger):
        before = small_ledger.to_csv_text()
        for kind in ("energy_bump", "trilinear_flip", "subrate_energy"):
            corrupt_ledger(small_ledger, kind)
            assert small_ledger.to_csv_text() == before

    def test_table_is_read_only(self, small_ledger):
        with pytest.raises(ValueError):
            small_ledger.column("tau")[0] = -1.0


class TestVerifyAll:
    @pytest.mark.parametrize(
        "source",
        ["small", "energy_bump", "trilinear_flip", "subrate_energy", "zero", "h1_envelope_only"],
    )
    def test_quoted_row_decides_the_status(self, request, small_ledger, source):
        # a verdict that fires quotes a residual above its tolerance, one that
        # holds a residual at or below it, both at the row named in details
        if source in CORRUPTION_KINDS:
            ledger = corrupt_ledger(small_ledger, source)
        elif source == "zero":
            ledger = zero_ledger()
        else:
            ledger = request.getfixturevalue(f"{source}_ledger")
        tau = ledger.column("tau")
        for report in verify_all(ledger, alpha=0.0625, epsilon=0.1):
            fired = report.status in ("violated", "inconclusive")
            assert fired == (report.max_residual > report.tolerance), report
            assert report.details["worst_tau"] == tau[report.details["worst_row"]]

    def test_full_set(self, small_ledger):
        reports = verify_all(small_ledger, alpha=0.0625, epsilon=0.1)
        assert [r.inequality_id for r in reports] == [
            "l2_energy",
            "h1_gradient",
            "h2_laplacian",
            "split_energy_decay",
            "supnorm_rate_monitor",
            "two_route_audit",
        ]
