import dataclasses
import math

import numpy as np
import pytest

import gaussqi.sweeps
from gaussqi.cli import main
from gaussqi.divergence import fidelity
from gaussqi.symplectic import GaussianState
from gaussqi.sweeps import (
    CHECKS,
    SweepPlan,
    SweepRow,
    emit,
    limit_order_study,
    parse_csv,
    reproduce_figure,
    rows_to_csv,
    run_sweep,
    verify_expansion,
)
from gaussqi.target import TargetConfig, make_pair
from gaussqi.transmitters import TransmitterSpec


def small_plan(**overrides):
    base = dict(
        transmitters=("coherent", "vacuum"),
        quantities=("chernoff", "q_half"),
        n_s_grid=(0.5,),
        n_b_grid=(1.0, 2.0),
        kappa_grid=(0.1,),
        model="agnostic",
    )
    base.update(overrides)
    return SweepPlan(**base)


def test_plan_validation():
    with pytest.raises(ValueError):
        small_plan(transmitters=("laser",))
    with pytest.raises(ValueError):
        small_plan(quantities=("entropy",))
    with pytest.raises(ValueError):
        small_plan(model="other")
    with pytest.raises(ValueError):
        small_plan(n_b_grid=())


def test_run_sweep_shape_and_determinism():
    plan = small_plan()
    rows = run_sweep(plan)
    # vacuum collapses the n_s grid to a single zero-intensity point
    assert len(rows) == (1 + 1) * 2 * 1 * 2
    again = rows_to_csv(run_sweep(plan))
    assert rows_to_csv(rows) == again


def test_vacuum_rows_have_zero_intensity():
    rows = run_sweep(small_plan(n_s_grid=(0.5, 1.0)))
    for row in rows:
        if row.transmitter == "vacuum":
            assert row.n_s == 0.0


def test_degenerate_rows_flagged():
    rows = run_sweep(small_plan(model="legacy", transmitters=("vacuum",)))
    assert rows
    for row in rows:
        assert "degenerate" in row.flags


def test_ratio_quantities():
    rows = run_sweep(
        small_plan(
            transmitters=("tmss",),
            quantities=("ratio_vs_coherent",),
            n_s_grid=(1.0,),
            n_b_grid=(20.0,),
            kappa_grid=(1e-2,),
        )
    )
    assert len(rows) == 1
    assert rows[0].value > 1.0

    rows = run_sweep(
        small_plan(
            transmitters=("smsv",),
            quantities=("ratio_vs_vacuum",),
            n_s_grid=(1.0,),
            n_b_grid=(200.0,),
            kappa_grid=(1e-3,),
        )
    )
    assert rows[0].value > 1.0  # squeezing hurts at high occupation


def test_vacuum_sweep_detects_everywhere():
    # detection without illumination: nonzero exponent at every grid point
    rows = run_sweep(
        small_plan(
            transmitters=("vacuum",),
            quantities=("chernoff",),
            n_b_grid=(0.5, 2.0, 20.0),
            kappa_grid=(0.05, 0.3),
        )
    )
    assert all(r.value > 0.0 for r in rows)
    assert all("degenerate" not in r.flags for r in rows)


def test_fidelity_quantity_tmss_flagged():
    rows = run_sweep(
        small_plan(transmitters=("tmss",), quantities=("fidelity",), n_s_grid=(1.0,))
    )
    for row in rows:
        assert math.isnan(row.value)
        assert "unsupported" in row.flags


def test_fidelity_only_plan_runs_no_chernoff_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("chernoff_many called for a fidelity-only plan")

    monkeypatch.setattr(gaussqi.sweeps, "chernoff_many", refuse)
    rows = run_sweep(small_plan(transmitters=("vacuum", "coherent", "smsv", "tmss"),
                                quantities=("fidelity",)))
    assert len(rows) == (1 + 3) * 2
    assert all(row.s_star is None for row in rows)


def test_run_sweep_builds_no_state_or_spec(monkeypatch):
    # the plan is validated once; the rows come from moment stacks alone
    def refuse(self):
        raise AssertionError(f"{type(self).__name__} built during run_sweep")

    plan = small_plan(transmitters=("vacuum", "coherent", "smsv", "tmss"),
                      quantities=gaussqi.sweeps.QUANTITIES)
    for cls in (GaussianState, TransmitterSpec, TargetConfig):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    assert len(run_sweep(plan)) == (1 + 3) * 2 * len(gaussqi.sweeps.QUANTITIES)


@pytest.mark.parametrize("model", ["agnostic", "legacy"])
def test_sweep_fidelity_equals_scalar_fidelity(model):
    plan = small_plan(transmitters=("vacuum", "coherent", "smsv"), quantities=("fidelity",),
                      n_s_grid=(1e-3, 0.7, 40.0), n_b_grid=(0.0, 3.0, 200.0),
                      kappa_grid=(1e-4, 0.3), model=model)
    rows = run_sweep(plan)
    assert len(rows) == (1 + 3 + 3) * 3 * 2
    for row in rows:
        pair = make_pair(TransmitterSpec(row.transmitter, row.n_s),
                         TargetConfig(kappa=row.kappa, n_b=row.n_b, model=model))
        assert row.value == fidelity(pair.rho0, pair.rho1)
        assert row.flags == (("degenerate",) if pair.degenerate else ())


def test_legacy_vacuum_fidelity_row_flagged_degenerate():
    rows = run_sweep(small_plan(transmitters=("vacuum",), quantities=("fidelity",),
                                model="legacy"))
    assert rows
    for row in rows:
        assert row.flags == ("degenerate",)
        assert row.value == pytest.approx(1.0, abs=1e-12)


def test_fidelity_rows_carry_no_minimiser_flags():
    # at N_B = 0 the coherent pair is flat in s and the tmss minimum sits at
    # the bracket edge; the fidelity rows used no search
    rows = run_sweep(small_plan(transmitters=("coherent", "tmss"),
                                quantities=("chernoff", "fidelity"),
                                n_s_grid=(1.0,), n_b_grid=(0.0,), kappa_grid=(0.2,)))
    flags = {(row.transmitter, row.quantity): row.flags for row in rows}
    assert flags == {
        ("coherent", "chernoff"): ("flat",),
        ("coherent", "fidelity"): (),
        ("tmss", "chernoff"): ("edge",),
        ("tmss", "fidelity"): ("unsupported",),
    }


INVALID_GRIDS = [
    (dict(n_s_grid=(0.5, -1.0)), "n_signal must be a finite non-negative number, got -1.0"),
    (dict(n_b_grid=(1.0, -2.0)), "n_b must be a finite non-negative number, got -2.0"),
    (dict(kappa_grid=(0.1, 1.0)), "kappa must lie in (0, 1), got 1.0"),
    (dict(kappa_grid=(-0.1,)), "kappa must lie in (0, 1), got -0.1"),
    (dict(kappa_grid=(0.0, 0.1)), "kappa must lie in (0, 1), got 0.0"),
]
INVALID_GRID_IDS = ["n_s", "n_b", "kappa-1", "kappa-neg", "kappa-0"]


@pytest.mark.parametrize("grids, message", INVALID_GRIDS, ids=INVALID_GRID_IDS)
def test_plan_rejects_invalid_grid_values(grids, message):
    with pytest.raises(ValueError) as info:
        small_plan(**grids)
    assert str(info.value) == message


@pytest.mark.parametrize("grids, message", INVALID_GRIDS, ids=INVALID_GRID_IDS)
def test_sweep_command_rejects_invalid_grid_values(tmp_path, capsys, grids, message):
    (field, grid), = grids.items()
    key = {"n_s_grid": "grid_ns", "n_b_grid": "grid_nb", "kappa_grid": "grid_kappa"}[field]
    plan = tmp_path / "plan.txt"
    plan.write_text(f"transmitter = coherent\n{key} = {','.join(map(repr, grid))}\n")
    assert main(["sweep", str(plan)]) == 1
    assert message in capsys.readouterr().err


def test_vacuum_plan_ignores_the_n_s_grid():
    rows = run_sweep(small_plan(transmitters=("vacuum",), n_s_grid=(-1.0,)))
    assert rows and all(row.n_s == 0.0 for row in rows)


def test_emit_round_trip(tmp_path):
    rows = run_sweep(small_plan())
    path = tmp_path / "out.csv"
    emit(rows, str(path), "csv")
    text = path.read_text()
    parsed = parse_csv(text)
    assert len(parsed) == len(rows)
    for a, b in zip(parsed, rows):
        assert a.transmitter == b.transmitter
        assert a.value == b.value  # bit-exact at 17 significant digits
        assert a.s_star == b.s_star
        assert a.flags == b.flags


def test_emit_empty_and_json(tmp_path):
    path = tmp_path / "empty.csv"
    emit([], str(path), "csv")
    assert path.read_text() == "transmitter,model,n_s,n_b,kappa,quantity,value,s_star,flags\n"
    jpath = tmp_path / "rows.json"
    emit(run_sweep(small_plan()), str(jpath), "json")
    import json

    records = json.loads(jpath.read_text())
    assert records and set(records[0]) == {
        "transmitter", "model", "n_s", "n_b", "kappa", "quantity", "value", "s_star", "flags",
    }


def test_verify_expansion_names():
    with pytest.raises(ValueError):
        verify_expansion("eq-unknown")
    check = verify_expansion("bright-lambda-sum")
    assert check.passed
    assert check.fitted_order > 0.9
    assert len(check.residuals) == len(check.sequence)
    with pytest.raises(dataclasses.FrozenInstanceError):
        check.passed = False


# Fitted residual orders as `gaussqi verify all` prints them; limit-order
# judges value windows instead of an order.
FITTED_ORDERS = {
    "bright-lambda-sum": "0.995",
    "bright-affinity": "2.448",
    "dim-lambda-sum": "1.010",
    "dim-affinity": "0.982",
    "smsv-weak-signal": "2.588",
    "smsv-strong-signal": "2.058",
    "tmss-eigenvalues": "2.001",
    "tmss-affinity": "3.005",
    "limit-order": None,
}


@pytest.mark.parametrize("name", CHECKS)
def test_every_expansion_check_passes(name):
    check = verify_expansion(name)
    assert check.name == name
    assert check.passed
    assert len(check.residuals) == len(check.sequence)
    if FITTED_ORDERS[name] is not None:
        assert f"{check.fitted_order:.3f}" == FITTED_ORDERS[name]
        assert check.fitted_order > check.expected_order - 0.1
        # the further conditions some checks fold into `passed`
        details = check.details
        assert details.get("worse_than_vacuum", True) and details.get("better_than_vacuum", True)
        assert details.get("gamma2_fitted_order", 2.0) > 2.0 - 0.1
        assert all(r["fitted"] > r["expected"] - 0.1 for r in details.get("per_s", {}).values())
        return
    assert check.fitted_order is None and check.expected_order is None
    kappas, ratios_kf = zip(*check.details["kappa_first"])
    n_ss, ratios_nf = zip(*check.details["ns_first"])
    legacy = check.details["legacy_ratio"]
    assert kappas == check.sequence == (1e-6, 1e-8, 1e-10, 1e-11)
    assert n_ss == (1e-6, 1e-8, 1e-10)
    assert 3.8 <= ratios_kf[2] <= 4.0
    assert all(r < 4.0 for r in ratios_kf + ratios_nf + (legacy,))
    assert abs(ratios_nf[-1] - 1.0) <= 0.02
    assert 3.9 <= legacy <= 4.0


def test_limit_order_study_rows():
    rows = limit_order_study("legacy")
    kf = [r for r in rows if "kappa-first" in r.flags]
    assert 3.9 <= kf[-1].value <= 4.0
    rows = limit_order_study("agnostic")
    assert all(r.value < 4.0 for r in rows)
    nf = [r for r in rows if "ns-first" in r.flags]
    assert abs(nf[-1].value - 1.0) <= 0.02
    with pytest.raises(ValueError):
        limit_order_study("other")


def test_reproduce_figure_unknown():
    with pytest.raises(ValueError):
        reproduce_figure("nope")


def test_smsv_ratio_figure_summary():
    rows, summary = reproduce_figure("smsv-ratio")
    assert summary["region_exists"]
    assert summary["fidelity_concomitant"]
    assert summary["passed"]
    assert any(r.quantity == "q_half" for r in rows)
