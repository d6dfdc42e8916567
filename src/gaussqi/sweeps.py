"""Parameter sweeps, figure-data reproduction, expansion verification, and
the limit-order study, with deterministic CSV/JSON output.

Quantities handled by sweeps:
    chernoff            exponent xi = -log Q_{s*}
    q_half              Bhattacharyya point Q_{1/2}
    s_star              minimizing s
    fidelity            F(rho0, rho1) (single-mode transmitters)
    ratio_vs_coherent   xi / xi(coherent) at the same grid point
    ratio_vs_vacuum     Q_{s*} / Q_{s*}(vacuum) at the same grid point
"""

from __future__ import annotations

import csv
import json
import operator
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import highprec
# chernoff stays importable from here: the benchmark's tracer tests read
# gaussqi.sweeps.chernoff.
from .divergence import _Factors, chernoff, chernoff_many, fidelity_many  # noqa: F401
from .symplectic import symplectic_eigenvalues
from .target import _check_target, pair_stack
from .transmitters import _check_kind, _check_nonnegative

QUANTITIES = (
    "chernoff",
    "q_half",
    "s_star",
    "fidelity",
    "ratio_vs_coherent",
    "ratio_vs_vacuum",
)

# The SweepRow fields in column order; the JSON records use the same keys.
CSV_HEADER = ("transmitter", "model", "n_s", "n_b", "kappa", "quantity", "value", "s_star", "flags")

FORMATS = ("csv", "json")

# Documented reproduction grids: the advantage-map summary statistic is
# grid-dependent, hence the wide acceptance window [2.1, 2.4] around the
# quoted 2.23.
MAP_NS_GRID = tuple(np.logspace(-3, 1, 41))
MAP_NB_GRID = tuple(np.logspace(-3, 2, 41))
MAP_KAPPA = 1e-2


@dataclass(frozen=True)
class SweepRow:
    transmitter: str
    model: str
    n_s: float
    n_b: float
    kappa: float
    quantity: str
    value: float
    s_star: float | None = None
    flags: tuple = ()


@dataclass(frozen=True)
class SweepPlan:
    """Grid specification for run_sweep.

    Grids are explicit tuples; the CLI layer parses range expressions into
    them.  A vacuum transmitter ignores the n_s grid (single point at 0).
    The grids are validated here, once, by the checks TransmitterSpec and
    TargetConfig make on a single point.
    """

    transmitters: tuple = ("coherent",)
    quantities: tuple = ("chernoff",)
    n_s_grid: tuple = (1.0,)
    n_b_grid: tuple = (1.0,)
    kappa_grid: tuple = (1e-2,)
    model: str = "agnostic"

    def __post_init__(self):
        for kind in self.transmitters:
            _check_kind(kind)
        for q in self.quantities:
            if q not in QUANTITIES:
                raise ValueError(f"unknown quantity {q!r}")
        for name, grid in (
            ("n_s", self.n_s_grid),
            ("n_b", self.n_b_grid),
            ("kappa", self.kappa_grid),
        ):
            if np.asarray(grid, dtype=float).size == 0:
                raise ValueError(f"{name} grid must be non-empty")
        if set(self.transmitters) - {"vacuum"}:
            _check_nonnegative("n_signal", self.n_s_grid)
        _check_target(self.kappa_grid, self.n_b_grid, self.model)


def _plan_points(plan: SweepPlan):
    """(kind, n_s, n_b, kappa) of the plan's grid points, in row order."""
    for kind in plan.transmitters:
        n_s_values = (0.0,) if kind == "vacuum" else plan.n_s_grid
        for n_s in n_s_values:
            for n_b in plan.n_b_grid:
                for kappa in plan.kappa_grid:
                    yield kind, float(n_s), float(n_b), float(kappa)


def _plan_stacks(plan: SweepPlan) -> dict:
    """(ChernoffResult, fidelity, degenerate) per (kind, n_s, n_b, kappa) the rows read.

    The points of each transmitter kind, the coherent and vacuum reference
    points included, form one pair_stack.  The result is None unless a row
    reads an exponent, the fidelity None unless one reads it of a one-mode probe.
    """
    points: dict = {}
    for kind, n_s, n_b, kappa in _plan_points(plan):
        points.setdefault(kind, {})[(n_s, n_b, kappa)] = None
        if "ratio_vs_coherent" in plan.quantities:
            points.setdefault("coherent", {})[(n_s, n_b, kappa)] = None
        if "ratio_vs_vacuum" in plan.quantities:
            points.setdefault("vacuum", {})[(0.0, n_b, kappa)] = None
    needs_exponent = any(q != "fidelity" for q in plan.quantities)
    values = {}
    for kind, keys in points.items():
        n_s, n_b, kappa = np.array(list(keys), dtype=float).T
        mean0, cov0, mean1, cov1, degenerate = pair_stack(kind, n_s, n_b, kappa, plan.model)
        results = fids = [None] * len(keys)
        if needs_exponent:
            results = chernoff_many(mean0, cov0, mean1, cov1, degenerate)
        if "fidelity" in plan.quantities and cov0.shape[-1] == 2:
            fids = fidelity_many(mean0, cov0, mean1, cov1).tolist()
        for key, point in zip(keys, zip(results, fids, degenerate.tolist())):
            values[(kind,) + key] = point
    return values


def _evaluate(values: dict, kind: str, n_s: float, n_b: float,
              kappa: float, model: str, quantity: str) -> SweepRow:
    res, fid, degenerate = values[(kind, n_s, n_b, kappa)]
    base = dict(transmitter=kind, model=model, n_s=n_s, n_b=n_b, kappa=kappa, quantity=quantity)
    if quantity == "fidelity":
        flags = ("degenerate",) * degenerate + ("unsupported",) * (fid is None)
        return SweepRow(value=float("nan") if fid is None else fid, flags=flags, **base)
    base.update(s_star=res.s_star, flags=res.flags)
    direct = {"chernoff": res.xi, "q_half": res.q_half, "s_star": res.s_star}
    if quantity in direct:
        return SweepRow(value=direct[quantity], **base)
    if quantity == "ratio_vs_coherent":
        ref = values[("coherent", n_s, n_b, kappa)][0]
        value = res.xi / ref.xi if res.xi != 0.0 and ref.xi != 0.0 else None
    else:
        ref, _, ref_degenerate = values[("vacuum", 0.0, n_b, kappa)]
        # Q_{s*} ratio through the exponent difference, stable when both
        # overlaps sit within rounding of 1.
        value = None if ref_degenerate else float(np.exp(ref.xi - res.xi))
    if value is None:
        return SweepRow(value=float("nan"), **{**base, "flags": res.flags + ("degenerate",)})
    return SweepRow(value=value, **base)


def run_sweep(plan: SweepPlan) -> list[SweepRow]:
    """Evaluate the plan, one row per grid point per quantity.

    Rows follow the lexicographic order of (transmitter, n_s, n_b, kappa,
    quantity) as listed in the plan, so identical plans produce identical
    tables.  Degenerate configurations yield flagged rows, not errors.
    Every quantity is read from one pair_stack per transmitter kind; a
    point's values do not depend on the other points of its stack.
    """
    values = _plan_stacks(plan)
    return [
        _evaluate(values, kind, n_s, n_b, kappa, plan.model, quantity)
        for kind, n_s, n_b, kappa in _plan_points(plan)
        for quantity in plan.quantities
    ]


def _format_value(x) -> str:
    if x is None:
        return ""
    return "%.17g" % float(x)


def emit(rows: list[SweepRow], path, out_format: str = "csv") -> None:
    """Write rows as CSV (17 significant digits) or JSON.

    `path` may be a filesystem path or an open text stream.
    """
    if out_format not in FORMATS:
        raise ValueError(f"unknown format {out_format!r}; expected one of {FORMATS}")
    owns = not hasattr(path, "write")
    stream = open(path, "w", newline="") if owns else path
    try:
        if out_format == "csv":
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            for row in rows:
                writer.writerow(
                    [
                        row.transmitter,
                        row.model,
                        _format_value(row.n_s),
                        _format_value(row.n_b),
                        _format_value(row.kappa),
                        row.quantity,
                        _format_value(row.value),
                        _format_value(row.s_star),
                        ";".join(row.flags),
                    ]
                )
        else:
            records = [{key: getattr(row, key) for key in CSV_HEADER} for row in rows]
            json.dump(records, stream, indent=1)
            stream.write("\n")
    finally:
        if owns:
            stream.close()


# --------------------------------------------------------------------------
# Figure-data reproduction


def _fig_fidelity_curves() -> tuple[list[SweepRow], dict]:
    kappa, n_b = 1e-4, 20.0
    # maximiser of F(reflected smsv, background) as kappa -> 0
    marker = n_b**2 / (2 * n_b + 1)
    grid = np.linspace(0.05, 30.0, 600)
    rows = run_sweep(SweepPlan(transmitters=("vacuum", "smsv"), quantities=("fidelity",),
                               n_s_grid=tuple(grid), n_b_grid=(n_b,), kappa_grid=(kappa,)))
    f_vac = rows[0].value
    f_smsv = np.array([r.value for r in rows[1:]])

    peak = float(grid[np.argmax(f_smsv)])
    peak_dev = abs(peak - marker) / marker
    above = f_smsv > f_vac
    crossings = int(np.count_nonzero(np.diff(above.astype(int))))
    interval = (
        (float(grid[above][0]), float(grid[above][-1])) if above.any() else None
    )
    summary = {
        "figure": "fidelity-curves",
        "kappa": kappa,
        "n_b": n_b,
        "peak_n_s": peak,
        "analytic_marker": marker,
        "peak_rel_dev": peak_dev,
        "peak_within_5pct": bool(peak_dev <= 0.05),
        "crossover_interval": interval,
        "interval_contiguous": bool(above.any() and crossings <= 1),
        "passed": bool(peak_dev <= 0.05 and above.any() and crossings <= 1),
    }
    return rows, summary


def _fig_smsv_ratio() -> tuple[list[SweepRow], dict]:
    n_b, kappa = 200.0, 1e-3
    grid = np.logspace(-2, 3, 51)
    plan = SweepPlan(
        transmitters=("smsv",),
        quantities=("ratio_vs_vacuum", "q_half", "fidelity"),
        n_s_grid=tuple(grid),
        n_b_grid=(n_b,),
        kappa_grid=(kappa,),
    )
    vacuum = SweepPlan(transmitters=("vacuum",), quantities=("fidelity",),
                       n_b_grid=(n_b,), kappa_grid=(kappa,))
    rows = run_sweep(plan) + run_sweep(vacuum)
    f_vac = rows[-1].value

    ratio = np.array([r.value for r in rows if r.quantity == "ratio_vs_vacuum"])
    fids = np.array([r.value for r in rows if r.quantity == "fidelity" and r.transmitter == "smsv"])
    hurt = ratio > 1.0
    concomitant = bool(np.all(fids[hurt] > f_vac)) if hurt.any() else False
    summary = {
        "figure": "smsv-ratio",
        "n_b": n_b,
        "kappa": kappa,
        "region_exists": bool(hurt.any()),
        "region_n_s": (
            (float(grid[hurt][0]), float(grid[hurt][-1])) if hurt.any() else None
        ),
        "max_ratio": float(ratio.max()),
        "fidelity_concomitant": concomitant,
        "passed": bool(hurt.any() and concomitant),
    }
    return rows, summary


def _fig_s_map(kind: str) -> tuple[list[SweepRow], dict]:
    plan = SweepPlan(
        transmitters=(kind,),
        quantities=("s_star",),
        n_s_grid=MAP_NS_GRID,
        n_b_grid=MAP_NB_GRID,
        kappa_grid=(MAP_KAPPA,),
    )
    rows = run_sweep(plan)
    values = np.array([r.value for r in rows])
    interior = bool(np.all((values > 0.0) & (values < 1.0)))
    summary = {
        "figure": f"s-map-{kind}",
        "kappa": MAP_KAPPA,
        "s_star_min": float(values.min()),
        "s_star_max": float(values.max()),
        "all_interior": interior,
        "passed": interior,
    }
    return rows, summary


def _fig_advantage_map() -> tuple[list[SweepRow], dict]:
    plan = SweepPlan(
        transmitters=("tmss",),
        quantities=("ratio_vs_coherent",),
        n_s_grid=MAP_NS_GRID,
        n_b_grid=MAP_NB_GRID,
        kappa_grid=(MAP_KAPPA,),
    )
    rows = run_sweep(plan)
    values = np.array([r.value for r in rows])
    best = int(np.argmax(values))
    max_ratio = float(values[best])
    summary = {
        "figure": "advantage-map",
        "kappa": MAP_KAPPA,
        "max_ratio": max_ratio,
        "max_ratio_db": float(10.0 * np.log10(max_ratio)),
        "argmax_n_s": rows[best].n_s,
        "argmax_n_b": rows[best].n_b,
        "max_in_window": bool(2.1 <= max_ratio <= 2.4),
        "all_below_4": bool(values.max() < 4.0),
        "passed": bool(2.1 <= max_ratio <= 2.4 and values.max() < 4.0),
    }
    return rows, summary


_FIGURE_IMPLS = {
    "fidelity-curves": _fig_fidelity_curves,
    "smsv-ratio": _fig_smsv_ratio,
    "s-map-coherent": partial(_fig_s_map, "coherent"),
    "s-map-tmss": partial(_fig_s_map, "tmss"),
    "advantage-map": _fig_advantage_map,
}
FIGURES = tuple(_FIGURE_IMPLS)


def reproduce_figure(which: str) -> tuple[list[SweepRow], dict]:
    """Emit the data grid behind one of the package's reference figures.

    fidelity-curves: fidelity of the reflected squeezed probe against the
        bare background over signal intensity, with the vacuum-probe level
        and the analytic peak marker N_B^2/(2 N_B + 1), the maximiser of the
        curve as kappa -> 0; its large-N_B form is (2 N_B - 1)/4.
    smsv-ratio: Q_{s*} penalty of squeezed light relative to no
        illumination at high occupation, with the matching fidelity
        ordering.
    s-map-coherent / s-map-tmss: minimizing s over the intensity/occupation
        map.
    advantage-map: exponent ratio of the entangled transmitter over the
        coherent one; its grid maximum and the strict < 4 bound.

    Returns (rows, summary); the summary carries pass/fail flags for the
    quantitative claims attached to the figure.
    """
    if which not in _FIGURE_IMPLS:
        raise ValueError(f"unknown figure {which!r}; expected one of {FIGURES}")
    return _FIGURE_IMPLS[which]()


# --------------------------------------------------------------------------
# Expansion-residual verification


@dataclass(frozen=True)
class ExpansionCheck:
    """Result of the residual-order verification of one asymptotic
    simplification.

    The exact quantity is compared against its truncated model on a
    decreasing parameter sequence; the fitted log-log slope must exceed
    expected_order - 0.1.  Checks with value-window semantics (limit-order)
    store the windows in `details` and leave both orders None.
    """

    name: str
    parameters: dict
    sequence: tuple
    residuals: tuple
    fitted_order: float | None
    expected_order: float | None
    details: dict
    passed: bool


def _fit_order(xs, rs) -> float:
    return float(np.polyfit(np.log(xs), np.log(rs), 1)[0])


def _order_check(name, parameters, xs, residuals, expected, details=None,
                 also=True) -> ExpansionCheck:
    """Fit the residual order along `xs` and judge it against `expected`;
    `also` is a further condition the check must meet to pass."""
    order = _fit_order(xs, residuals)
    passed = bool(order > expected - 0.1 and also)
    return ExpansionCheck(name, parameters, tuple(xs), tuple(residuals), order, expected,
                          details or {}, passed)


def _lambda_sum(s: float, n_b: float, kappa: float) -> float:
    """Lambda_s(2N_B+1) + Lambda_{1-s}(2(1-k)N_B+1), which both Lambda-sum checks expand."""
    return float(_Factors(2 * n_b + 1).lam(s) + _Factors(2 * (1 - kappa) * n_b + 1).lam(1 - s))


def _check_bright_lambda_sum(name: str) -> ExpansionCheck:
    # Lambda_s(2N_B+1) + Lambda_{1-s}(2(1-k)N_B+1) -> (2N_B(1-ks)+1)/(s(1-s))
    # with O(1/N_B) residual, uniformly over the tested s.
    kappa = 1e-3
    n_bs = np.array([50.0, 100.0, 200.0])
    s_values = (0.3, 0.5, 0.7)
    resid = []
    for n_b in n_bs:
        worst = 0.0
        for s in s_values:
            exact = _lambda_sum(s, n_b, kappa)
            model = (2 * n_b * (1 - kappa * s) + 1) / (s * (1 - s))
            worst = max(worst, abs(exact - model))
        resid.append(worst)
    return _order_check(name, {"kappa": kappa, "s_values": s_values}, 1.0 / n_bs, resid, 1.0)


def _check_dim_lambda_sum(name: str) -> ExpansionCheck:
    # Small-N_B limit 2 + 2(N_B^s + N_B^{1-s}).  The stated O(N_B) residual
    # holds at s = 1/2; away from it the true remainder is the larger
    # O(N_B^{2 min(s, 1-s)}), so the expected order is per-s.
    kappa = 1e-4
    n_bs = np.array([1e-2, 1e-3, 1e-4])
    per_s = {}
    for s in (0.5, 0.3, 0.7):
        resid = []
        for n_b in n_bs:
            exact = _lambda_sum(s, n_b, kappa)
            model = 2 + 2 * (n_b**s + n_b ** (1 - s))
            resid.append(abs(exact - model))
        expected = min(1.0, 2 * s, 2 * (1 - s))
        per_s[s] = {"fitted": _fit_order(n_bs, resid), "expected": expected,
                    "residuals": tuple(resid)}
    every_s = all(r["fitted"] > r["expected"] - 0.1 for r in per_s.values())
    return _order_check(name, {"kappa": kappa}, n_bs, per_s[0.5]["residuals"], 1.0,
                        details={"per_s": per_s}, also=every_s)


def _check_coherent_affinity(name: str, n_b, n_s, model, expected) -> ExpansionCheck:
    # -log Q_{1/2} for the coherent pair against model(kappa, n_s, n_b).
    kappas = np.logspace(-4, -2, 4)
    resid = []
    for kappa in kappas:
        exact = -float(highprec.log_q_half("coherent", n_s, n_b, kappa))
        resid.append(abs(exact - model(kappa, n_s, n_b)))
    return _order_check(name, {"n_b": n_b, "n_s": n_s}, kappas, resid, expected)


def _check_smsv_vs_vacuum(name: str, n_b, n_s, kappas, model, key, compare) -> ExpansionCheck:
    # 1 - Q_{1/2} for squeezed light against model(kappa, n_s, n_b), whose
    # residual is o(k^2); details[key] records whether compare(smsv deficit,
    # vacuum deficit) holds at every kappa.
    resid = []
    holds = True
    for kappa in kappas:
        exact = highprec.q_half_deficit("smsv", n_s, n_b, kappa)
        resid.append(abs(exact - model(kappa, n_s, n_b)))
        vac = highprec.q_half_deficit("vacuum", 0.0, n_b, kappa)
        holds = holds and compare(exact, vac)
    return _order_check(name, {"n_b": n_b, "n_s": n_s}, kappas, resid, 2.0,
                        details={key: holds}, also=holds)


def _check_tmss_eigenvalues(name: str) -> ExpansionCheck:
    # Doubled symplectic eigenvalues of the two-mode received state:
    # gamma_1 = (1+2N_B) - 2N_B(1+N_B)k/(1+N_S+N_B) + o(k), same shape for
    # gamma_2 with N_S <-> N_B; the o(k) remainder is quadratic.
    n_b, n_s = 5.0, 2.0
    kappas = np.logspace(-5, -2, 4)
    resid1, resid2 = [], []
    for kappa in kappas:
        cov1 = pair_stack("tmss", n_s, n_b, kappa)[3]
        gammas = 2.0 * np.sort(symplectic_eigenvalues(cov1))[::-1]
        model1 = (1 + 2 * n_b) - 2 * n_b * (1 + n_b) * kappa / (1 + n_s + n_b)
        model2 = (1 + 2 * n_s) - 2 * n_s * (1 + n_s) * kappa / (1 + n_s + n_b)
        resid1.append(abs(gammas[0] - model1))
        resid2.append(abs(gammas[1] - model2))
    order2 = _fit_order(kappas, resid2)
    return _order_check(name, {"n_b": n_b, "n_s": n_s}, kappas, resid1, 2.0,
                        details={"gamma2_fitted_order": order2}, also=order2 > 2.0 - 0.1)


def _check_tmss_affinity(name: str) -> ExpansionCheck:
    # 1 - Q_{1/2} for the entangled transmitter against the two-order model
    # (N_S - 2 N_S^{3/2} + 3 N_S^2) k / N_B + (N_B-1) k^2/(8 N_B)
    # + (5N_S/4 - 3 N_S^{3/2} + 9 N_S^2) k^2 / N_B.  At small N_S and large
    # N_B the neglected terms are O(k^3).
    n_b, n_s = 1e4, 1e-3
    kappas = np.logspace(-4, -2, 4)
    resid = []
    for kappa in kappas:
        exact = highprec.q_half_deficit("tmss", n_s, n_b, kappa)
        model = (
            (n_s - 2 * n_s**1.5 + 3 * n_s**2) * kappa / n_b
            + (n_b - 1) * kappa**2 / (8 * n_b)
            + (1.25 * n_s - 3 * n_s**1.5 + 9 * n_s**2) * kappa**2 / n_b
        )
        resid.append(abs(exact - model))
    return _order_check(name, {"n_b": n_b, "n_s": n_s}, kappas, resid, 3.0)


def _check_limit_order(name: str) -> ExpansionCheck:
    # Order-of-limits sensitivity of the entangled-over-coherent exponent
    # ratio.  kappa -> 0 first approaches (but never reaches) 4; n_s -> 0
    # first gives no advantage; the rescaled-background model is continuous
    # with limit 4.
    n_b = 1e4
    kappa_first = [
        (1e-4, k) for k in (1e-6, 1e-8, 1e-10, 1e-11)
    ]
    ratios_kf = [highprec.exponent_ratio(n_s, n_b, k) for n_s, k in kappa_first]
    ns_first = [(n, 1e-3) for n in (1e-6, 1e-8, 1e-10)]
    ratios_nf = [highprec.exponent_ratio(n_s, n_b, k) for n_s, k in ns_first]
    legacy = highprec.exponent_ratio(1e-4, n_b, 1e-6, model="legacy")
    all_ratios = ratios_kf + ratios_nf + [legacy]
    ok = (
        3.8 <= ratios_kf[2] <= 4.0
        and all(r < 4.0 for r in all_ratios)
        and abs(ratios_nf[-1] - 1.0) <= 0.02
        and 3.9 <= legacy <= 4.0
    )
    return ExpansionCheck(
        name=name,
        parameters={"n_b": n_b},
        sequence=tuple(k for _, k in kappa_first),
        residuals=tuple(abs(r - 4.0) for r in ratios_kf),
        fitted_order=None,
        expected_order=None,
        details={
            "kappa_first": list(zip([p[1] for p in kappa_first], ratios_kf)),
            "ns_first": list(zip([p[0] for p in ns_first], ratios_nf)),
            "legacy_ratio": legacy,
        },
        passed=bool(ok),
    )


_CHECK_IMPLS = {
    "bright-lambda-sum": _check_bright_lambda_sum,
    # Bright-background model k^2(N_B-1)/(8N_B) + k N_S / (2((2-k)N_B+1));
    # residual of higher order.
    "bright-affinity": partial(
        _check_coherent_affinity, n_b=100.0, n_s=1.0, expected=2.0,
        model=lambda k, n_s, n_b: k**2 * (n_b - 1) / (8 * n_b) + k * n_s / (2 * ((2 - k) * n_b + 1)),
    ),
    "dim-lambda-sum": _check_dim_lambda_sum,
    # Small-N_B model N_B k^2/8 + k N_S/(1+2 sqrt(N_B)).  Its own error
    # terms (O(N_B) and O(k sqrt(N_B)) inside the denominator) enter at
    # first order in kappa, so the residual order is 1, not 2.
    "dim-affinity": partial(
        _check_coherent_affinity, n_b=1e-3, n_s=1.0, expected=1.0,
        model=lambda k, n_s, n_b: n_b * k**2 / 8 + k * n_s / (1 + 2 * np.sqrt(n_b)),
    ),
    # 1 - Q_{1/2} = k^2 (N_B - 1 - 2 N_S)/(8 N_B) + o(k^2) for weak squeezed
    # light in a bright background; the deficit is smaller than the vacuum
    # transmitter's, which is the squeezing-hurts statement.
    "smsv-weak-signal": partial(
        _check_smsv_vs_vacuum, n_b=100.0, n_s=1.0, kappas=np.logspace(-4, -2, 4),
        model=lambda k, n_s, n_b: k**2 * (n_b - 1 - 2 * n_s) / (8 * n_b),
        key="worse_than_vacuum", compare=operator.lt,
    ),
    # Strong-signal regime N_S > N_B: the extra -k^2 N_S(N_S-N_B)/(4N_B^2)
    # term makes squeezed light beat the vacuum deficit.
    "smsv-strong-signal": partial(
        _check_smsv_vs_vacuum, n_b=50.0, n_s=100.0, kappas=np.logspace(-5, -3, 4),
        model=lambda k, n_s, n_b: k**2 * (n_b - 1) / (8 * n_b) + k**2 * n_s * (n_s - n_b) / (4 * n_b**2),
        key="better_than_vacuum", compare=operator.gt,
    ),
    "tmss-eigenvalues": _check_tmss_eigenvalues,
    "tmss-affinity": _check_tmss_affinity,
    "limit-order": _check_limit_order,
}
CHECKS = tuple(_CHECK_IMPLS)


def verify_expansion(name: str) -> ExpansionCheck:
    """Run the named expansion check (one of CHECKS) and return its result.

    Failures set passed=False; nothing raises, so a sweep over all checks
    always reports a complete table.
    """
    if name not in _CHECK_IMPLS:
        raise ValueError(f"unknown check {name!r}; expected one of {CHECKS}")
    return _CHECK_IMPLS[name](name)


def limit_order_study(model: str = "agnostic") -> list[SweepRow]:
    """Tabulate the exponent ratio along both limit orderings.

    Rows carry quantity "exponent_ratio" with a path flag: "kappa-first"
    holds the signal intensity at 1e-4 while the reflectivity drops;
    "ns-first" holds the reflectivity at 1e-3 while the intensity drops.
    """
    n_b = 1e4
    rows = []
    kappa_path = (1e-4, 1e-6, 1e-8, 1e-10) if model == "agnostic" else (1e-4, 1e-5, 1e-6)
    for kappa in kappa_path:
        ratio = highprec.exponent_ratio(1e-4, n_b, kappa, model=model)
        rows.append(
            SweepRow("tmss", model, 1e-4, n_b, kappa, "exponent_ratio", ratio,
                     flags=("kappa-first",))
        )
    for n_s in (1e-6, 1e-8, 1e-10):
        ratio = highprec.exponent_ratio(n_s, n_b, 1e-3, model=model)
        rows.append(
            SweepRow("tmss", model, n_s, n_b, 1e-3, "exponent_ratio", ratio,
                     flags=("ns-first",))
        )
    return rows
