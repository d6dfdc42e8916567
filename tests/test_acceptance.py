"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The full module is designed to stay within a
single-threaded desk-scale budget.  The advantage map of criterion 7
dominates; the oracle grid of criterion 1 diagonalises each hypothesis once
for all three s values and takes a few seconds.
"""

import numpy as np
import pytest

from gaussqi import highprec
from gaussqi.divergence import chernoff, fidelity, q_s_general
from gaussqi.fock_oracle import choose_cutoff, hypothesis_pair_fock, q_s_fock
from gaussqi.reference import (
    beamsplitter,
    phase_rotation,
    q_s_alt,
    q_s_coherent_closed,
    random_physical_cov,
    random_symplectic,
    squeezer,
    symplectic_form,
    williamson,
)
from gaussqi.sweeps import reproduce_figure, verify_expansion
from gaussqi.target import TargetConfig, make_pair
from gaussqi.transmitters import TransmitterSpec, coherent, smsv, thermal_state, vacuum


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_oracle_equivalence():
    """|q_s_general - q_s_fock| < 1e-6 over the full transmitter/parameter grid,
    within a 5-minute single-threaded budget."""
    import time

    start = time.monotonic()
    n_values = (0.1, 0.3, 0.5)
    kappas = (0.1, 0.2, 0.3)
    s_values = (0.3, 0.5, 0.7)
    worst = 0.0
    worst_at = None
    cutoffs = {}
    for kind in ("vacuum", "coherent", "smsv", "tmss"):
        if kind == "tmss":
            # choose_cutoff verifies 23 at this anchor (test_choose_cutoff);
            # the grid runs at 24, at or above it
            cutoffs[kind] = 24
        else:
            cutoffs[kind] = choose_cutoff(
                TransmitterSpec(kind, 0.0 if kind == "vacuum" else 0.5),
                TargetConfig(kappa=0.3, n_b=0.5),
                tol=1e-8,
            )
        for n_s in (0.0,) if kind == "vacuum" else n_values:
            for n_b in n_values:
                for kappa in kappas:
                    spec = TransmitterSpec(kind, n_s)
                    cfg = TargetConfig(kappa=kappa, n_b=n_b)
                    rho0, rho1 = hypothesis_pair_fock(spec, cfg, cutoffs[kind])
                    pair = make_pair(spec, cfg)
                    for s in s_values:
                        diff = abs(
                            q_s_fock(rho0, rho1, s)
                            - q_s_general(pair.rho0, pair.rho1, s)
                        )
                        if diff > worst:
                            worst, worst_at = diff, (kind, n_s, n_b, kappa, s)
    elapsed = time.monotonic() - start
    _report(
        "criterion 1 (oracle equivalence)",
        worst < 1e-6 and elapsed < 300.0,
        f"worst |Fock - Gaussian| = {worst:.3e} at {worst_at}, cutoffs {cutoffs}, "
        f"{elapsed:.0f}s of the 300s budget",
    )


def test_criterion_02_formula_cross_agreement():
    """Closed form vs general to 1e-12; alternative form vs general to 1e-10."""
    rng = np.random.default_rng(2024)
    worst_closed = 0.0
    for _ in range(100):
        s = rng.uniform(0.02, 0.98)
        kappa = rng.uniform(0.01, 0.95)
        n_b = rng.uniform(0.0, 50.0)
        n_s = rng.uniform(0.0, 10.0)
        pair = make_pair(coherent(n_s), TargetConfig(kappa=kappa, n_b=n_b))
        a = q_s_general(pair.rho0, pair.rho1, s)
        b = q_s_coherent_closed(s, kappa, n_b, n_s)
        worst_closed = max(worst_closed, abs(a - b) / b)
    worst_alt = 0.0
    for _ in range(100):
        s = rng.uniform(0.02, 0.98)
        kappa = rng.uniform(0.01, 0.9)
        n_b = rng.uniform(0.0, 20.0)
        n_s = rng.uniform(0.0, 5.0)
        pair = make_pair(smsv(n_s), TargetConfig(kappa=kappa, n_b=n_b))
        a = q_s_general(pair.rho0, pair.rho1, s)
        b = q_s_alt(pair.rho0, pair.rho1, s)
        worst_alt = max(worst_alt, abs(a - b))
    _report(
        "criterion 2 (formula cross-agreement)",
        worst_closed < 1e-12 and worst_alt < 1e-10,
        f"closed-form rel dev {worst_closed:.2e} (tol 1e-12), "
        f"alternative-form dev {worst_alt:.2e} (tol 1e-10)",
    )


def test_criterion_03_optimal_s_asymptotics():
    """s* hits the predicted bright- and dim-background offsets within 5e-4."""
    res = chernoff(make_pair(coherent(1.0), TargetConfig(kappa=1e-2, n_b=100.0)))
    bright_pred = 0.5 + 1e-2 * 100.0 / (4 * (2 * 100.0 + 1))
    bright_dev = abs(res.s_star - bright_pred)
    res = chernoff(make_pair(coherent(1.0), TargetConfig(kappa=1e-2, n_b=1e-3)))
    dim_pred = 0.5 + 1e-2 / 24.0
    dim_dev = abs(res.s_star - dim_pred)
    _report(
        "criterion 3 (optimal-s asymptotics)",
        bright_dev < 5e-4 and dim_dev < 5e-4,
        f"bright |s* - model| = {bright_dev:.2e}, dim |s* - model| = {dim_dev:.2e} (tol 5e-4)",
    )


def test_criterion_04_expansion_residual_orders():
    """Fitted residual orders exceed the stated orders minus 0.1."""
    names = (
        "bright-affinity",
        "dim-affinity",
        "smsv-weak-signal",
        "smsv-strong-signal",
        "tmss-affinity",
        "tmss-eigenvalues",
    )
    results = {}
    ok = True
    for name in names:
        check = verify_expansion(name)
        results[name] = (check.fitted_order, check.expected_order, check.passed)
        ok = ok and check.passed
    detail = ", ".join(
        f"{n}: {fo:.2f} (> {eo - 0.1:.2f})" for n, (fo, eo, _) in results.items()
    )
    _report("criterion 4 (expansion residual orders)", ok, detail)


def test_criterion_05_fidelity_curve():
    """Reflected-squeezed fidelity curve peak near the analytic marker, and a
    contiguous region above the vacuum-probe fidelity."""
    rows, summary = reproduce_figure("fidelity-curves")
    detail = (
        f"peak N_S = {summary['peak_n_s']:.3f}, marker {summary['analytic_marker']:.2f}, "
        f"rel dev {summary['peak_rel_dev']:.3%} (tol 5%); "
        f"crossover interval {summary['crossover_interval']}, "
        f"contiguous = {summary['interval_contiguous']}"
    )
    # The marker is the kappa -> 0 maximiser N_B^2/(2 N_B + 1) = 9.756 at
    # N_B = 20 (confirmed by closed form, arbitrary-precision optimization,
    # and brute-force Fock); a wrong squeezing parametrisation or reflection
    # channel moves the grid peak outside the 5% gate.
    _report(
        "criterion 5 (fidelity curve)",
        summary["peak_within_5pct"] and summary["interval_contiguous"],
        detail,
    )


def test_criterion_06_smsv_ratio_concomitance():
    """A region where squeezing hurts, with matching fidelity ordering."""
    rows, summary = reproduce_figure("smsv-ratio")
    _report(
        "criterion 6 (squeezed-worse region + fidelity concomitance)",
        summary["region_exists"] and summary["fidelity_concomitant"],
        f"ratio > 1 on N_S in {summary['region_n_s']}, max ratio {summary['max_ratio']:.9f}, "
        f"fidelity concomitant = {summary['fidelity_concomitant']}",
    )


def test_criterion_07_advantage_map():
    """Grid maximum of the entangled/coherent exponent ratio in [2.1, 2.4], all < 4."""
    rows, summary = reproduce_figure("advantage-map")
    _report(
        "criterion 7 (advantage map)",
        summary["max_in_window"] and summary["all_below_4"],
        f"max ratio {summary['max_ratio']:.4f} ({summary['max_ratio_db']:.2f} dB) at "
        f"N_S={summary['argmax_n_s']:.4g}, N_B={summary['argmax_n_b']:.4g}; all < 4: "
        f"{summary['all_below_4']}",
    )


def test_criterion_08_limit_order():
    """Legacy ratio in [3.9, 4.0]; agnostic strictly < 4 and -> 1 on the
    intensity-first path."""
    legacy = highprec.exponent_ratio(1e-4, 1e4, 1e-6, model="legacy")
    kappa_first = [highprec.exponent_ratio(1e-4, 1e4, k) for k in (1e-6, 1e-8, 1e-10)]
    ns_first = highprec.exponent_ratio(1e-10, 1e4, 1e-3)
    ok = (
        3.9 <= legacy <= 4.0
        and all(r < 4.0 for r in kappa_first)
        and 3.8 <= kappa_first[-1] <= 4.0
        and abs(ns_first - 1.0) <= 0.02
    )
    _report(
        "criterion 8 (limit-order study)",
        ok,
        f"legacy {legacy:.4f} in [3.9, 4.0]; kappa-first approach {kappa_first} all < 4; "
        f"ns-first {ns_first:.6f} within 2% of 1",
    )


def test_criterion_09_vacuum_wellposedness():
    """Vacuum detection has a positive exponent; the legacy pair degenerates."""
    res = chernoff(make_pair(vacuum(), TargetConfig(kappa=0.1, n_b=1.0)))
    legacy = chernoff(make_pair(vacuum(), TargetConfig(kappa=0.1, n_b=1.0, model="legacy")))
    ok = res.xi > 0.0 and legacy.xi == 0.0 and "degenerate" in legacy.flags
    _report(
        "criterion 9 (vacuum detection well-posedness)",
        ok,
        f"agnostic xi = {res.xi:.6e} > 0; legacy flags = {legacy.flags}",
    )


def test_criterion_10_symplectic_property_suite():
    """1000 random covariances pass the Williamson invariants; 1000 random
    beamsplitter/squeezer compositions stay symplectic to 1e-10."""
    rng = np.random.default_rng(77)
    worst_diag = 0.0
    worst_symp = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        cov = random_physical_cov(n, rng)
        w = williamson(cov)
        delta = symplectic_form(n)
        diag = np.diag(np.repeat(w.nu, 2))
        worst_diag = max(
            worst_diag,
            np.linalg.norm(w.S @ cov @ w.S.T - diag) / np.linalg.norm(cov),
        )
        worst_symp = max(worst_symp, np.linalg.norm(w.S @ delta @ w.S.T - delta))
        assert np.all(w.nu >= 0.5 - 1e-10)

    delta = symplectic_form(2)
    worst_comp = 0.0
    for _ in range(1000):
        s = np.eye(4)
        for _ in range(int(rng.integers(2, 6))):
            which = rng.integers(3)
            if which == 0:
                s = beamsplitter(rng.uniform(0.05, 0.95), 0, 1, 2).S @ s
            elif which == 1:
                s = squeezer(rng.uniform(-1.2, 1.2), int(rng.integers(2)), 2).S @ s
            else:
                s = phase_rotation(rng.uniform(0, 2 * np.pi), int(rng.integers(2)), 2).S @ s
        worst_comp = max(worst_comp, np.linalg.norm(s @ delta @ s.T - delta))
    ok = worst_diag < 1e-10 and worst_symp < 1e-10 and worst_comp < 1e-10
    _report(
        "criterion 10 (symplectic property suite)",
        ok,
        f"worst diagonalization residual {worst_diag:.2e}, worst S Delta S^T deviation "
        f"{max(worst_symp, worst_comp):.2e} (tol 1e-10)",
    )
