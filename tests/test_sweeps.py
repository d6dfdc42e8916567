import collections
import csv
import dataclasses
import importlib.util
import io
import json
import math
import os

import numpy as np
import pytest

import gaussqi.divergence
import gaussqi.sweeps
import gaussqi.target
from gaussqi.cli import main, read_plan
from gaussqi.divergence import (
    FLAT_SPAN,
    _standard_parameters,
    _StandardGeometry,
    chernoff,
    fidelity,
)
from gaussqi.symplectic import GaussianState
from gaussqi.sweeps import (
    CHECKS,
    CSV_HEADER,
    FORMATS,
    MAP_KAPPA,
    MAP_NB_GRID,
    MAP_NS_GRID,
    SweepPlan,
    SweepRow,
    emit,
    limit_order_study,
    reproduce_figure,
    run_sweep,
    verify_expansion,
    write_sweep,
)
from gaussqi.target import (
    TargetConfig,
    _degenerate,
    _stack,
    make_pair,
    pair_parameters,
    pair_stack,
)
from gaussqi.transmitters import KINDS, TransmitterSpec
from sweep_csv import parse_csv


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
    first, again = io.StringIO(), io.StringIO()
    emit(rows, first)
    emit(run_sweep(plan), again)
    assert first.getvalue() == again.getvalue()


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


def test_ratio_of_noise_level_exponents_is_nan():
    # (N_S, N_B, kappa): the tmss exponent rounds to exactly 0; both
    # exponents are a few eps; a coherent pair at N_B = 0 is flat in s but
    # carries the exact exponent kappa N_S, so its ratio stays a number
    points = {(1e-4, 0.0, 1e-12): "zero", (1e-8, 0.0, 1e-8): "eps", (1.0, 0.0, 1e-6): "real"}
    rows = run_sweep(
        small_plan(
            transmitters=("coherent", "tmss"),
            quantities=("chernoff", "ratio_vs_coherent"),
            n_s_grid=(1e-8, 1e-4, 1.0),
            n_b_grid=(0.0,),
            kappa_grid=(1e-12, 1e-8, 1e-6),
        )
    )
    by_key = {(r.transmitter, r.quantity, r.n_s, r.kappa): r for r in rows}
    for (n_s, _, kappa), case in points.items():
        tmss = by_key[("tmss", "chernoff", n_s, kappa)]
        coherent = by_key[("coherent", "chernoff", n_s, kappa)]
        ratio = by_key[("tmss", "ratio_vs_coherent", n_s, kappa)]
        assert "flat" in coherent.flags
        if case == "real":
            assert ratio.value == pytest.approx(tmss.value / coherent.value, rel=1e-15)
            assert ratio.flags == tmss.flags == ()
            continue
        if case == "zero":
            assert tmss.value == 0.0 < coherent.value < FLAT_SPAN
        else:
            assert 0.0 < tmss.value < FLAT_SPAN and 0.0 < coherent.value < FLAT_SPAN
        # both read the same: nan, the pair's flat flag kept, degenerate added
        assert math.isnan(ratio.value)
        assert ratio.flags == ("flat", "degenerate")


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
        raise AssertionError("Chernoff search run for a fidelity-only plan")

    monkeypatch.setattr(gaussqi.sweeps, "_chernoff_search", refuse)
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
def test_run_sweep_exponents_take_no_matrix_routine(monkeypatch, model):
    # Every exponent comes from the closed-form standard geometry, and every
    # fidelity from its closed form in (a, b), with no LAPACK routine per pair.
    def refuse(*args, **kwargs):
        raise AssertionError("matrix routine called during run_sweep")

    for name in ("cholesky", "det", "eigh", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    plan = small_plan(transmitters=("vacuum", "coherent", "smsv", "tmss"),
                      quantities=gaussqi.sweeps.QUANTITIES, n_b_grid=(0.0, 2.0), model=model)
    assert len(run_sweep(plan)) == (1 + 3) * 2 * 6


def _wide_plan(model, tmp_path):
    """tools/outdiff.py's wide plan: every kind and quantity on grids from 0 to 1e6."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "outdiff.py")
    spec = importlib.util.spec_from_file_location("outdiff", path)
    outdiff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(outdiff)
    plan_file = tmp_path / f"{model}.txt"
    plan_file.write_text(outdiff.WIDE_PLAN + f"model = {model}\n")
    return read_plan(str(plan_file))[0]


@pytest.mark.parametrize("model", ["agnostic", "legacy"])
def test_chunk_boundaries_change_no_byte(model, tmp_path, monkeypatch):
    # The wide plan written 7 grid points at a time, so that chunks end inside
    # every kind's mesh and across kinds, against the plan as one chunk.
    plan = _wide_plan(model, tmp_path)

    def outputs():
        texts = []
        for out_format in FORMATS:
            stream = io.StringIO()
            write_sweep(plan, stream, out_format)
            texts.append(stream.getvalue())
        return texts, run_sweep(plan)

    monkeypatch.setattr(gaussqi.sweeps, "CHUNK_POINTS", 10**6)
    whole_texts, whole_rows = outputs()
    monkeypatch.setattr(gaussqi.sweeps, "CHUNK_POINTS", 7)
    (csv_text, json_text), rows = outputs()
    assert [csv_text, json_text] == whole_texts
    # Compared by repr, where nan equals nan.
    assert list(map(repr, rows)) == list(map(repr, whole_rows))
    # The CSV reads back as the rows, every grid value on its own axis.
    assert list(map(repr, parse_csv(csv_text))) == list(map(repr, rows))
    # Each ratio reads its reference at its own point, the vacuum's at its (n_b, kappa).
    xi = {(r.transmitter, r.n_s, r.n_b, r.kappa): r.value for r in rows if r.quantity == "chernoff"}
    checked = collections.Counter()
    for r in rows:
        if r.quantity.startswith("ratio") and not math.isnan(r.value):
            own = xi[r.transmitter, r.n_s, r.n_b, r.kappa]
            if r.quantity == "ratio_vs_coherent":
                ref = "vacuum" if r.transmitter == "vacuum" else "coherent"
                assert r.value == own / xi[ref, r.n_s, r.n_b, r.kappa]
            else:
                assert math.isclose(r.value, math.exp(xi["vacuum", 0.0, r.n_b, r.kappa] - own),
                                    rel_tol=1e-12)
            checked[r.quantity] += 1
    assert checked["ratio_vs_coherent"] > 500
    # A legacy vacuum pair is degenerate, so its ratios are all nan.
    if model == "agnostic":
        assert checked["ratio_vs_vacuum"] > 500


def test_writer_writes_what_csv_writer_and_json_dump_wrote():
    # The column writer against the per-row writers it replaced, on a
    # sweep's rows and on rows whose text fields need CSV quoting or JSON
    # escapes and whose numbers are ints, None or not finite.
    rows = run_sweep(small_plan(quantities=gaussqi.sweeps.QUANTITIES)) + [
        SweepRow("a,b", 'say "x"', 1, 2.5, 0.1, "line\nbreak", None, None, ("p;q", "r,s")),
        SweepRow("tmss", "é", -0.0, float("inf"), 1e-300, "q", float("nan"), 0.5, ("flat",)),
    ]
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([row.transmitter, row.model,
                         *("" if x is None else "%.17g" % float(x)
                           for x in (row.n_s, row.n_b, row.kappa)),
                         row.quantity,
                         *("" if x is None else "%.17g" % float(x) for x in (row.value, row.s_star)),
                         ";".join(row.flags)])
    written = io.StringIO()
    emit(rows, written, "csv")
    assert written.getvalue() == expected.getvalue()
    written = io.StringIO()
    emit(rows, written, "json")
    records = [{key: getattr(row, key) for key in CSV_HEADER} for row in rows]
    assert written.getvalue() == json.dumps(records, indent=1) + "\n"


@pytest.mark.parametrize("number", [int, np.float32, np.float64])
def test_plan_grids_are_written_as_run_sweep_reads_them(number):
    # The plan stores its grids as Python floats, so write_sweep writes
    # the grid values run_sweep's rows hold: an int grid as 1.0, not 1, and
    # a float32 grid where JSON could not write it.  kappa lies in (0, 1), so
    # it has no int grid.
    plan = small_plan(transmitters=("vacuum", "coherent", "tmss"),
                      quantities=gaussqi.sweeps.QUANTITIES,
                      n_s_grid=tuple(map(number, (1, 4))), n_b_grid=tuple(map(number, (0, 2))),
                      kappa_grid=(0.1 if number is int else number(0.1), 0.5))
    assert all(type(x) is float for x in plan.n_s_grid + plan.n_b_grid + plan.kappa_grid)
    for out_format in FORMATS:
        streamed, emitted = io.StringIO(), io.StringIO()
        write_sweep(plan, streamed, out_format)
        emit(run_sweep(plan), emitted, out_format)
        assert streamed.getvalue() == emitted.getvalue()
    assert '"n_s": 1.0,' in streamed.getvalue()


@pytest.mark.parametrize("model", ["agnostic", "legacy"])
def test_geometry_from_parameters_equals_the_dense_boundary(model, tmp_path):
    # The sweep's parameters (pair_parameters, stacked) and the ones the
    # public boundary reads back off pair_stack's moments agree bit for bit
    # on the wide grid, and so do their geometries and degenerate masks.
    plan = _wide_plan(model, tmp_path)
    for kind in KINDS:
        n_s_grid = (0.0,) if kind == "vacuum" else plan.n_s_grid
        mesh = [g.ravel() for g in np.meshgrid(n_s_grid, plan.n_b_grid, plan.kappa_grid,
                                               indexing="ij")]
        parameters = [_stack(mesh[0].shape, p) for p in pair_parameters(kind, *mesh, model)]
        dense = pair_stack(kind, *mesh, model)
        built = _StandardGeometry.from_parameters(*parameters)
        read = _standard_parameters(*dense)
        for field, other in zip(parameters, read, strict=True):
            assert field.dtype == other.dtype and field.shape == other.shape
            assert field.tobytes() == other.tobytes(), kind
        for field, other in zip(built, _StandardGeometry.from_parameters(*read), strict=True):
            assert field.dtype == other.dtype and field.shape == other.shape
            assert field.tobytes() == other.tobytes(), kind
        assert np.array_equal(_degenerate(*parameters), _degenerate(*read))


@pytest.mark.parametrize("model", ["agnostic", "legacy"])
def test_exponent_plan_writes_no_dense_stack(model, tmp_path, monkeypatch):
    # Every quantity, fidelity included, reads the stacked parameters: no
    # dense moment stack is written and no state is built.
    def refuse(*args, **kwargs):
        raise AssertionError("dense moments written during run_sweep")

    assert not hasattr(gaussqi.sweeps, "pair_stack")
    for module in (gaussqi.target, gaussqi.divergence):
        monkeypatch.setattr(module, "_dense", refuse)
    monkeypatch.setattr(gaussqi.target, "pair_stack", refuse)
    monkeypatch.setattr(gaussqi.divergence, "_standard_parameters", refuse)
    plan = _wide_plan(model, tmp_path)
    rows = run_sweep(plan)
    assert {row.quantity for row in rows} == set(gaussqi.sweeps.QUANTITIES)


@pytest.mark.parametrize("model", ["agnostic", "legacy"])
def test_one_pair_and_one_point_sweep_agree_at_large_backgrounds(model):
    # Both read the same float64 parameters.  The one-pair path used to
    # write dense states first, whose eigenvalue check refused tmss from
    # N_B = 1e18 on ("covariance not positive definite").
    for kind in KINDS:
        n_s = 0.0 if kind == "vacuum" else 1.0
        for n_b in (1e12, 1e16, 1e18, 1e20):
            res = chernoff(make_pair(TransmitterSpec(kind, n_s), TargetConfig(0.1, n_b, model)))
            (row,) = run_sweep(SweepPlan(transmitters=(kind,), n_s_grid=(n_s,), n_b_grid=(n_b,),
                                         kappa_grid=(0.1,), model=model))
            assert (row.value, row.s_star, row.flags) == (res.xi, res.s_star, res.flags)
            # Agnostic pairs see the target; legacy ones at this N_B are noise.
            assert res.flags in ({()} if model == "agnostic" else {("flat",), ("degenerate",)})


# N_S = 1e308 is finite, but the moments it gives are not: sqrt(2 N_S) of the
# coherent mean, e^{2r} of smsv, and sqrt(N_S (N_S + 1)) of tmss overflow.
@pytest.mark.parametrize("kind, message", [
    ("coherent", "overlap: means must be finite"),
    ("smsv", "overlap: covariance must be finite"),
    ("tmss", "overlap: covariance must be finite"),
])
def test_sweep_rejects_moments_that_overflow_from_finite_inputs(kind, message):
    plan = small_plan(transmitters=(kind,), quantities=("chernoff",), n_s_grid=(1e308,))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=message):
        run_sweep(plan)


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
    # an unknown format is refused before the file is opened
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        emit([], str(tmp_path / "rows.xml"), "xml")
    assert not (tmp_path / "rows.xml").exists()
    jpath = tmp_path / "rows.json"
    emit(run_sweep(small_plan()), str(jpath), "json")
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


@pytest.mark.parametrize("kind", ["coherent", "tmss"])
def test_s_map_figure_summary(kind):
    rows, summary = reproduce_figure(f"s-map-{kind}")
    values = np.array([row.value for row in rows])
    assert len(rows) == len(MAP_NS_GRID) * len(MAP_NB_GRID) == 1681
    assert {(row.transmitter, row.quantity, row.kappa) for row in rows} == {
        (kind, "s_star", MAP_KAPPA)}
    assert ((0.0 < values) & (values < 1.0)).all()
    assert (summary["s_star_min"], summary["s_star_max"]) == (values.min(), values.max())
    assert summary["all_interior"] and summary["passed"]


def test_smsv_ratio_figure_summary():
    rows, summary = reproduce_figure("smsv-ratio")
    assert summary["region_exists"]
    assert summary["fidelity_concomitant"]
    assert summary["passed"]
    assert any(r.quantity == "q_half" for r in rows)
