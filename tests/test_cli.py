import dataclasses
import json

import numpy as np
import pytest

from gaussqi.cli import _CliError, main, parse_grid, read_plan
from gaussqi.sweeps import CHECKS
from sweep_csv import parse_csv


def test_parse_grid_forms():
    assert parse_grid("0.1,0.2,0.5") == (0.1, 0.2, 0.5)
    log = parse_grid("log:1e-3:10:5")
    assert len(log) == 5
    assert log[0] == pytest.approx(1e-3)
    assert log[-1] == pytest.approx(10.0)
    lin = parse_grid("lin:0:1:3")
    assert lin == (0.0, 0.5, 1.0)
    with pytest.raises(_CliError, match="grid 'log:1:10:0' needs at least one point"):
        parse_grid("log:1:10:0")
    with pytest.raises(_CliError, match="cannot parse grid '0.1,x'"):
        parse_grid("0.1,x")


def test_chernoff_command(capsys):
    code = main(
        [
            "chernoff", "--transmitter", "coherent", "--ns", "1", "--nb", "100",
            "--kappa", "1e-2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "s_star" in out and "xi" in out


def test_chernoff_invalid_input(capsys):
    assert main(["chernoff", "--transmitter", "coherent", "--ns", "1",
                 "--nb", "-3", "--kappa", "0.1"]) == 1
    # kappa = 0 leaves no target-present state: invalid input, not a row
    assert main(["chernoff", "--transmitter", "coherent", "--ns", "1",
                 "--nb", "1", "--kappa", "0"]) == 1
    assert capsys.readouterr().err.endswith("error: kappa must lie in (0, 1), got 0.0\n")
    # --ns used to be dropped for the vacuum transmitter, computing n_s = 0
    assert main(["chernoff", "--transmitter", "vacuum", "--ns", "5",
                 "--nb", "1", "--kappa", "0.1"]) == 1
    assert capsys.readouterr() == ("", "error: vacuum transmitter requires n_signal = 0\n")


@pytest.mark.parametrize("tol", ["0.9", "nan"])
def test_chernoff_command_rejects_bad_tolerance(capsys, tol):
    argv = ["chernoff", "--transmitter", "coherent", "--ns", "1", "--nb", "100",
            "--kappa", "1e-2", "--tol", tol]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "s_tol must lie in" in captured.err


def test_sweep_plan_file(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text(
        "# demo plan\n"
        "transmitter = coherent\n"
        "quantity = chernoff\n"
        "ns = 0.5\n"
        "nb = 1.0,2.0\n"
        "kappa = 0.1\n"
    )
    out = tmp_path / "rows.csv"
    assert main(["sweep", str(plan), "--out", str(out)]) == 0
    rows = parse_csv(out.read_text())
    assert len(rows) == 2
    assert all(r.transmitter == "coherent" for r in rows)


def test_sweep_determinism(tmp_path):
    plan = tmp_path / "plan.txt"
    plan.write_text(
        "transmitter = smsv,vacuum\nquantity = q_half\n"
        "grid_ns = log:1e-2:1:3\nnb = 5.0\nkappa = 0.2\n"
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", str(plan), "--out", str(a)]) == 0
    assert main(["sweep", str(plan), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_plan_parse_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("transmitter coherent\n")
    assert main(["sweep", str(bad)]) == 1
    missing = tmp_path / "missing.txt"
    assert main(["sweep", str(missing)]) == 1
    badgrid = tmp_path / "badgrid.txt"
    badgrid.write_text("grid_ns = log:-1:10:5\n")
    assert main(["sweep", str(badgrid)]) == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("ns = 0.5\nkapa = 0.3\n",
         "unknown key 'kapa'; expected one of transmitter, transmitters, quantity, "
         "quantities, ns, grid_ns, nb, grid_nb, kappa, grid_kappa, model, out, format"),
        ("ns = 0.5\ngrid_ns = 1,2\n", ":2: 'grid_ns' sets 'ns' a second time"),
        ("model = agnostic\nmodel = legacy\n", ":2: 'model' sets 'model' a second time"),
    ],
    ids=["misspelt", "alias-repeat", "repeat"],
)
def test_plan_rejects_unknown_and_repeated_keys(tmp_path, capsys, text, message):
    # a plan setting that is not applied must not run at the default value
    plan = tmp_path / "plan.txt"
    plan.write_text(text)
    assert main(["sweep", str(plan)]) == 1
    assert message in capsys.readouterr().err


def test_plan_rejects_empty_name_list(tmp_path, capsys):
    # an empty list used to run a sweep of nothing, exit 0
    plan = tmp_path / "plan.txt"
    plan.write_text("ns = 0.5\ntransmitter =\n")
    assert main(["sweep", str(plan)]) == 1
    assert "plan.txt:2: 'transmitter' lists no values" in capsys.readouterr().err


def test_plan_rejects_malformed_range(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text("nb = log:1:10\n")
    assert main(["sweep", str(plan)]) == 1
    err = capsys.readouterr().err
    assert "plan.txt:1: 'nb': cannot parse grid 'log:1:10'; expected log:lo:hi:n" in err


def test_chernoff_command_never_prints_negative_xi(capsys):
    # a flat pair whose log Q_{1/2} rounds to just above 0 printed -1.8e-15
    argv = ["chernoff", "--transmitter", "smsv", "--ns", "1e-4", "--nb", "1e4",
            "--kappa", "1e-4", "--model", "legacy"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "xi       = 0\n" in out
    assert "flags    = flat\n" in out


def test_plan_rejects_unknown_format_before_any_point(tmp_path, capsys, monkeypatch):
    def refuse(plan):
        raise AssertionError("a plan with a bad format must not be evaluated")

    monkeypatch.setattr("gaussqi.cli.run_sweep", refuse)
    plan = tmp_path / "plan.txt"
    plan.write_text("ns = 0.5\nformat = xml\n")
    assert main(["sweep", str(plan)]) == 1
    assert "plan.txt:2: 'format': unknown format 'xml'" in capsys.readouterr().err


def test_chernoff_command_prints_edge_flag(capsys):
    argv = ["chernoff", "--transmitter", "tmss", "--ns", "1", "--nb", "0", "--kappa", "0.1"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "s_star   = 0.999999\n" in out
    assert "flags    = edge\n" in out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_chernoff_command_writes_the_printed_values(tmp_path, capsys, fmt):
    # --out holds a chernoff and a q_half row of the edge point above, each
    # with the printed value (17 digits), s* (12 digits) and flags.
    out = tmp_path / f"point.{fmt}"
    argv = ["chernoff", "--transmitter", "tmss", "--ns", "1", "--nb", "0", "--kappa", "0.1",
            "--out", str(out), "--format", fmt]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    printed = dict(map(str.strip, line.split("=")) for line in lines)
    text = out.read_text()
    records = ([dataclasses.asdict(row) for row in parse_csv(text)] if fmt == "csv"
               else json.loads(text))
    point = dict(transmitter="tmss", model="agnostic", n_s=1.0, n_b=0.0, kappa=0.1)
    assert [record["quantity"] for record in records] == ["chernoff", "q_half"]
    for record, key in zip(records, ("xi", "q_half")):
        assert {name: record[name] for name in point} == point
        assert record["value"] == float(printed[key])
        assert record["s_star"] == pytest.approx(float(printed["s_star"]), abs=1e-12)
        assert tuple(record["flags"]) == (printed["flags"],) == ("edge",)


def test_verify_command_exit_codes(capsys):
    assert main(["verify", "tmss-eigenvalues"]) == 0
    assert "[pass]" in capsys.readouterr().out
    assert main(["verify", "not-a-check"]) == 1


def test_verify_all(capsys):
    assert main(["verify", "all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"[pass] {name}" for name in CHECKS]


def test_limits_command(tmp_path, capsys):
    out = tmp_path / "limits.csv"
    assert main(["limits", "legacy", "--out", str(out)]) == 0
    rows = parse_csv(out.read_text())
    assert any("kappa-first" in r.flags for r in rows)


def test_figure_command_exit_codes(tmp_path, capsys, monkeypatch):
    out = tmp_path / "fig.csv"
    # the figures' quantitative claims hold -> exit 0
    assert main(["figure", "smsv-ratio", "--out", str(out)]) == 0
    assert parse_csv(out.read_text())
    assert "passed = True" in capsys.readouterr().out
    assert main(["figure", "fidelity-curves"]) == 0
    assert "passed = True" in capsys.readouterr().out
    # a figure whose claims fail verification -> exit 2
    monkeypatch.setattr(
        "gaussqi.cli.reproduce_figure",
        lambda name: ([], {"figure": name, "passed": False}),
    )
    assert main(["figure", "fidelity-curves"]) == 2
    assert "passed = False" in capsys.readouterr().out


def test_figure_rejects_grid_flags(capsys):
    # figure grids are fixed; a grid flag is a usage error, not silently ignored
    assert main(["figure", "smsv-ratio", "--grid-ns", "1"]) == 1
    assert "--grid-ns" in capsys.readouterr().err


def test_read_plan_defaults(tmp_path):
    plan = tmp_path / "p.txt"
    plan.write_text("nb = 3.0\n")
    parsed, out_path, out_format = read_plan(str(plan))
    assert parsed.transmitters == ("coherent",)
    assert parsed.n_b_grid == (3.0,)
    assert out_path is None
    assert out_format == "csv"


@pytest.mark.parametrize("n_b", ["1e18", "1e20"])
def test_chernoff_command_takes_tmss_at_a_large_background(n_b, capsys):
    # The pair's dense states would fail their eigenvalue check here; the
    # command reads the pair's parameters, as a sweep of the point does.
    code = main(["chernoff", "--transmitter", "tmss", "--ns", "1", "--nb", n_b, "--kappa", "0.1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "xi       = 0.0013873908966672843" in out and "flags" not in out
