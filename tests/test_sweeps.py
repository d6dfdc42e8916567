import dataclasses
import math

import numpy as np
import pytest

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
