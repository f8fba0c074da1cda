"""Acceptance suite: one test per criterion, each printing a verdict line.

The expensive artifacts (standard run, detector fixture run, parameter sweep)
are session fixtures shared across criteria; run with ``pytest -s
tests/test_acceptance.py`` to watch the lines appear.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import torusns as tn
from torusns.inequality_lab import (
    corrupt_ledger,
    two_route_audit,
    verify_blowup_rate,
    verify_decomposition_decay,
    verify_h1_inequality,
    verify_h2_inequality,
    verify_l2_inequality,
)
from torusns.multiplier_bank import MultiplierSet, apply, check_bernstein
from torusns.runner_cli import cmd_sweep, parse_config

from conftest import make_random_spectral_field

ALPHAS = (1.0 / 32.0, 1.0 / 16.0, 3.0 / 32.0, 0.124)


def verdict(number: int, ok: bool, text: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {text}")
    assert ok, f"criterion {number}: {text}"


@pytest.fixture(scope="session")
def sweep_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    config = parse_config(
        "stride = 4\nsweep_delta = 0.005, 0.01, 0.02\nsweep_n = 16, 32\n"
    )
    code = cmd_sweep(replace(config, out_dir=str(out)))
    rows = []
    table = (out / "certificates.csv").read_text().splitlines()[1:]
    for line in table:
        ineq, alpha, delta, n, value = line.split(",")
        rows.append((ineq, float(alpha), float(delta), int(n), float(value)))
    return code, rows


def test_criterion_01_operator_identities(grid32):
    mults = MultiplierSet(1.0 / 16.0)
    rng = np.random.default_rng(11)
    worst_complete = 0.0
    worst_split = 0.0
    for _ in range(100):
        f = make_random_spectral_field(grid32, rng)
        low = apply(mults, "phi", f)
        high = apply(mults, "one_minus_phi", f)
        recon_gap = np.max(np.abs(low.data + high.data - f.data))
        worst_complete = max(worst_complete, recon_gap / np.max(np.abs(f.data)))
        total = tn.norms(f).l2_sq
        split = tn.norms(low).l2_sq + tn.norms(apply(mults, "sqrt_one_minus_phi_sq", f)).l2_sq
        worst_split = max(worst_split, abs(split - total) / total)
    ok = worst_complete <= 1e-12 and worst_split <= 1e-12
    verdict(
        1,
        ok,
        f"operator completeness {worst_complete:.2e}, energy split {worst_split:.2e} "
        "(100 random fields, <= 1e-12)",
    )


def test_criterion_02_leray_projection(grid32):
    rng = np.random.default_rng(12)
    worst_div = worst_idem = worst_adj = 0.0
    for _ in range(100):
        f = make_random_spectral_field(grid32, rng)
        p = tn.leray_project(f)
        worst_div = max(worst_div, tn.divergence_ratio(p))
        pp = tn.leray_project(p)
        worst_idem = max(
            worst_idem, np.max(np.abs(pp.data - p.data)) / np.max(np.abs(p.data))
        )
    for _ in range(10):
        f = make_random_spectral_field(grid32, rng)
        g = make_random_spectral_field(grid32, rng)
        lhs = tn.spectral_core.inner_l2(tn.leray_project(f), g)
        rhs = tn.spectral_core.inner_l2(f, tn.leray_project(g))
        scale = abs(lhs) + abs(rhs) + 1e-300
        worst_adj = max(worst_adj, abs(lhs - rhs) / scale)
    ok = worst_div <= 1e-12 and worst_idem <= 1e-12 and worst_adj <= 1e-12
    verdict(
        2,
        ok,
        f"projection divergence {worst_div:.2e}, idempotency {worst_idem:.2e}, "
        f"self-adjointness {worst_adj:.2e} (<= 1e-12)",
    )


def test_criterion_03_sign_certificates():
    worst = -math.inf
    for alpha in ALPHAS:
        worst = max(
            worst,
            tn.sign_certificate_A(alpha),
            tn.sign_certificate_B(alpha),
        )
    verdict(3, worst <= 1e-12, f"max sign bracket {worst:.2e} over alphas {ALPHAS}")


def test_criterion_04_low_norm_bound_and_bernstein(grid32):
    alpha = 1.0 / 16.0
    mults = MultiplierSet(alpha)
    c4 = tn.hausdorff_young_constant(alpha, 4)
    cinf = tn.hausdorff_young_constant(alpha, math.inf)
    rng = np.random.default_rng(13)
    violations = 0
    worst_margin = math.inf
    betas = [
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1),
    ]
    for _ in range(100):
        f = make_random_spectral_field(grid32, rng)
        low = tn.norms(apply(mults, "phi", f))
        chi_l2 = math.sqrt(tn.norms(apply(mults, "chi", f)).l2_sq)
        if low.l4 > c4 * chi_l2 or low.sup > cinf * chi_l2:
            violations += 1
        scale = tn.norms(f).l2_sq + tn.norms(f).h2_sq
        for beta in betas:
            worst_margin = min(worst_margin, check_bernstein(mults, f, beta) / scale)
    ok = violations == 0 and worst_margin >= -1e-12
    verdict(
        4,
        ok,
        f"low-norm bound violations {violations}/100, "
        f"worst derivative-margin {worst_margin:.2e} (>= -1e-12)",
    )


def test_criterion_05_energy_law_and_stride_scaling(standard_run):
    ledger, _, _ = standard_run
    u2 = ledger.column("u_l2sq")
    monotone = bool(np.all(np.diff(u2) <= 0.0))
    coarse = verify_l2_inequality(ledger.subsample(4))
    fine = verify_l2_inequality(ledger.subsample(2))
    res_coarse = coarse.details["max_differential_residual"]
    res_fine = fine.details["max_differential_residual"]
    reduction = res_coarse / res_fine
    a_coarse = coarse.details["fitted_quadratic_coefficient"]
    a_fine = fine.details["fitted_quadratic_coefficient"]
    a_stable = 1.0 / 3.0 <= a_coarse / a_fine <= 3.0
    ok = monotone and fine.status == "holds" and reduction >= 3.0 and a_stable
    verdict(
        5,
        ok,
        f"energy nonincreasing={monotone}, residual reduction x{reduction:.2f} "
        f"(>= 3), fitted coefficient ratio {a_coarse / a_fine:.2f}",
    )


def test_criterion_06_split_energy_decay(standard_run):
    ledger, config, wall = standard_run
    report = verify_decomposition_decay(ledger, alpha=config.alpha, tol=0.05)
    ok = (
        report.status in ("holds", "holds_with_certificate")
        and report.details["condition_active"]
        and report.details["envelope_excess"] <= 0.0
        and wall <= 300.0
    )
    verdict(
        6,
        ok,
        f"envelope at rate alpha holds (excess {report.details['envelope_excess']:.2e}), "
        f"smallness condition active, wall {wall:.0f}s (<= 300s)",
    )


def test_criterion_07_gradient_ladder(standard_run):
    ledger, _, _ = standard_run
    h1 = verify_h1_inequality(ledger)
    h2 = verify_h2_inequality(ledger)
    rho = h2.details["decay_rate"]
    ok = (
        h1.status in ("holds", "holds_with_certificate")
        and h1.details["envelope_violation"] <= h1.details["envelope_tolerance"]
        and h2.status in ("holds", "holds_with_certificate")
        and rho > 0.0
    )
    verdict(
        7,
        ok,
        f"gradient/curvature residuals within tolerance, tail decay rate {rho:.3f} > 0, "
        f"envelope with certificate {h1.certificate:.3g} holds",
    )


def test_criterion_08_rate_monitor(standard_run):
    ledger, _, _ = standard_run
    report = verify_blowup_rate(ledger, epsilon=0.1)
    ok = (
        report.status == "holds"
        and report.details["t0"] is not None
        and report.details["final_third_nonincreasing"]
    )
    verdict(
        8,
        ok,
        f"monitor below 0.1 beyond t0={report.details['t0']:.4g}, "
        "final third nonincreasing",
    )


def test_criterion_09_comparison_trap():
    from torusns.gronwall_comparator import ComparisonParams, h_minus, verify_trap

    oracle = float(np.min(np.roots([1.0, -1.0, 0.1])))
    root_ok = abs(h_minus(1.0, 1.0, 0.1) - oracle) <= 1e-12
    rng = np.random.default_rng(99)
    trapped = 0
    draws = 0
    worst_excess = 0.0
    while draws < 20:
        b = rng.uniform(0.5, 2.0)
        c = rng.uniform(0.5, 2.0)
        d = rng.uniform(0.0, b * b / (4.0 * c)) * 0.95
        hm = h_minus(b, c, d)
        if not 0.0 < hm < 1.0:
            continue
        draws += 1
        params = ComparisonParams(B=b, C=c, delta=d, h0=rng.uniform(0.0, 0.95) * hm)
        result = verify_trap(params, tau_max=50.0, dt=1e-3)
        worst_excess = max(worst_excess, result.max_excess)
        trapped += int(result.trapped)
    ok = root_ok and trapped == 20
    verdict(
        9,
        ok,
        f"root matches oracle to 1e-12, {trapped}/20 draws trapped "
        f"(worst excess {worst_excess:.2e} <= 1e-9)",
    )


def test_criterion_10_two_route_audit(standard_run):
    ledger, _, _ = standard_run
    gap = two_route_audit(ledger)
    verdict(10, gap <= 1e-10, f"max route gap {gap:.2e} (<= 1e-10)")


def test_criterion_11_certificate_stability(sweep_result):
    code, rows = sweep_result
    fits = {}
    for ineq, alpha, delta, n, value in rows:
        if ineq == "split_energy_decay":
            fits.setdefault(delta, {})[n] = value
    ok = code == 0 and len(fits) == 3
    spreads = []
    for delta, by_n in sorted(fits.items()):
        values = [by_n[n] for n in sorted(by_n)]
        ok = ok and len(values) == 2
        vmax, vmin = max(values), min(values)
        spreads.append(f"delta={delta:g}: {values}")
        ok = ok and (vmax <= 2.0 * vmin or vmax <= 1e-12)
    verdict(
        11,
        ok,
        "split-energy certificate varies <= 2x across n at fixed delta: "
        + "; ".join(spreads),
    )


def test_criterion_12_detector_soundness(standard_run, flip_fixture_run):
    ledger, config, _ = standard_run
    bump = verify_l2_inequality(corrupt_ledger(ledger, "energy_bump"))
    subrate = verify_decomposition_decay(
        corrupt_ledger(ledger, "subrate_energy"), alpha=config.alpha
    )
    flip = verify_h1_inequality(corrupt_ledger(flip_fixture_run, "trilinear_flip"))
    clean_flip = verify_h1_inequality(flip_fixture_run)
    ok = (
        bump.status == "violated"
        and subrate.status == "violated"
        and flip.status == "violated"
        and clean_flip.status in ("holds", "holds_with_certificate")
    )
    verdict(
        12,
        ok,
        f"energy bump -> {bump.status}, sub-rate energy -> {subrate.status}, "
        f"trilinear sign flip -> {flip.status} (clean fixture -> {clean_flip.status})",
    )
