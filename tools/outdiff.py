"""Output diff of two gaussqi source trees.

    python3 tools/outdiff.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository (each with src/gaussqi
and demos/).  Both run one fixed list of commands under `python -W error`,
each command in a fresh temporary directory with BLAS pinned to one thread:

- `gaussqi figure NAME` for all five figures, as CSV and as JSON;
- `gaussqi verify all` and `gaussqi limits agnostic|legacy`;
- `gaussqi chernoff` at the single points of CHERNOFF_POINTS in both
  models: one unflagged, one at the bracket edge, one flat and one
  degenerate, so that the printed s_star, q_star, xi and flags are diffed;
- the one-pair API table (API_TABLE): `q_s_general` at s = 0.1, 0.5 and
  0.9, `bhattacharyya_error_bound` at 1 and 10**6 copies and every field
  of `chernoff_many`'s result, n_evals included, printed with repr, for
  every kind in both models at the parameters of CHERNOFF_POINTS;
- the Fock table (FOCK_TABLE): `q_s_fock` at s = 0.3, 0.5 and 0.7,
  `fidelity_fock` and both operators' `trace_deficit`, printed with repr,
  for every kind in both models at the `fock-gate` anchor (N_S = 0.5,
  kappa = 0.3, N_B = 0.5), at the cutoff `choose_cutoff` picks (tmss at
  24, as in `fock-gate`);
- the domain-edge table (EDGE_TABLE): `gaussqi chernoff` and a one-point
  `gaussqi sweep` of `chernoff`, run in-process through `cli.main` with
  JSON output, for every kind in both models at N_S = 1 (0 for vacuum),
  kappa = 0.1 and N_B = 1e12, 1e16, 1e18 and 1e20, printing xi, s_star
  and the flags with repr, or the exit code and the error line;
- demos 01-05;
- `gaussqi sweep` on the wide plan (WIDE_PLAN: every kind and quantity on
  grids from 0 and 1e-12 to 1e6) in both models.

For each command it prints the exit codes, whether stdout, stderr and every
output file are byte-identical, the lines of stdout that differ, and for
every CSV or JSON output of sweep rows the largest change per numeric
column and every row whose flags changed, with its value, its pair's
exponent xi (where the output has the pair's chernoff row) and s_star on
both sides.  It uses the standard library only.  Exit status: 0 when every
command exits with the same code on both trees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

FIGURES = ("fidelity-curves", "smsv-ratio", "s-map-coherent", "s-map-tmss", "advantage-map")
DEMOS = (
    "01_states_and_targets.py",
    "02_detection_without_illumination.py",
    "03_squeezing_can_hurt.py",
    "04_entanglement_advantage_limits.py",
    "05_fock_oracle_crosscheck.py",
)
WIDE_PLAN = (
    "transmitters = vacuum, coherent, smsv, tmss\n"
    "quantities = chernoff, q_half, s_star, fidelity, ratio_vs_coherent, ratio_vs_vacuum\n"
    "grid_ns = 0, 1e-8, 1e-4, 1e-2, 1, 100, 1e4\n"
    "grid_nb = 0, 1e-8, 1e-4, 1e-2, 1, 100, 1e4, 1e6\n"
    "grid_kappa = 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 0.3, 0.9, 0.999999\n"
)
# (label, chernoff arguments): the flags each point has in both models.
CHERNOFF_POINTS = (
    ("unflagged", ["--transmitter", "tmss", "--ns", "1", "--nb", "20", "--kappa", "0.01"]),
    ("edge", ["--transmitter", "tmss", "--ns", "1", "--nb", "0", "--kappa", "0.1"]),
    ("flat", ["--transmitter", "smsv", "--ns", "1e-3", "--nb", "0", "--kappa", "1.05e-10"]),
    ("degenerate", ["--transmitter", "vacuum", "--nb", "1", "--kappa", "1e-14"]),
)
# The one-pair API table, run with `python -c` after a line that sets POINTS
# to the (N_S, N_B, kappa) of CHERNOFF_POINTS.
API_TABLE = """
import dataclasses
from gaussqi.divergence import bhattacharyya_error_bound, chernoff_many, q_s_general
from gaussqi.target import TargetConfig, make_pair
from gaussqi.transmitters import TransmitterSpec
for model in ("agnostic", "legacy"):
    for n_s, n_b, kappa in POINTS:
        for kind in ("vacuum", "coherent", "smsv", "tmss"):
            spec = TransmitterSpec(kind, 0.0 if kind == "vacuum" else n_s)
            pair = make_pair(spec, TargetConfig(kappa, n_b, model))
            r0, r1 = pair.rho0, pair.rho1
            (res,) = chernoff_many(r0.mean[None], r0.cov[None], r1.mean[None], r1.cov[None])
            values = [q_s_general(r0, r1, s) for s in (0.1, 0.5, 0.9)]
            values += [bhattacharyya_error_bound(pair, n) for n in (1, 10**6)]
            values += [getattr(res, field.name) for field in dataclasses.fields(res)]
            print(model, kind, spec.n_signal, n_b, kappa, *map(repr, values))
"""
# The Fock table, run with `python -c`.
FOCK_TABLE = """
from gaussqi.fock_oracle import choose_cutoff, fidelity_fock, hypothesis_pair_fock, q_s_fock
from gaussqi.target import TargetConfig
from gaussqi.transmitters import TransmitterSpec
for model in ("agnostic", "legacy"):
    cfg = TargetConfig(kappa=0.3, n_b=0.5, model=model)
    for kind in ("vacuum", "coherent", "smsv", "tmss"):
        spec = TransmitterSpec(kind, 0.0 if kind == "vacuum" else 0.5)
        d = 24 if kind == "tmss" else choose_cutoff(spec, cfg, tol=1e-8)
        rho0, rho1 = hypothesis_pair_fock(spec, cfg, d)
        values = [q_s_fock(rho0, rho1, s) for s in (0.3, 0.5, 0.7)]
        values += [fidelity_fock(rho0, rho1), rho0.trace_deficit, rho1.trace_deficit]
        print(model, kind, d, *map(repr, values))
"""
# The domain-edge table, run with `python -c`: one line per command, so the
# two routes to one point sit next to each other.
EDGE_TABLE = """
import contextlib, io, json, os, tempfile
from gaussqi.cli import main
with tempfile.TemporaryDirectory() as work:
    plan, out = os.path.join(work, "plan.txt"), os.path.join(work, "out.json")
    for model in ("agnostic", "legacy"):
        for kind in ("vacuum", "coherent", "smsv", "tmss"):
            n_s = "0" if kind == "vacuum" else "1"
            for n_b in ("1e12", "1e16", "1e18", "1e20"):
                with open(plan, "w") as fh:
                    fh.write(f"transmitter = {kind}\\nns = {n_s}\\nnb = {n_b}\\n"
                             f"kappa = 0.1\\nmodel = {model}\\n")
                point = ["--transmitter", kind, "--ns", n_s, "--nb", n_b, "--kappa", "0.1",
                         "--model", model]
                for route, argv in (("chernoff", ["chernoff", *point]), ("sweep", ["sweep", plan])):
                    err = io.StringIO()
                    with contextlib.redirect_stdout(io.StringIO()):
                        with contextlib.redirect_stderr(err):
                            code = main(argv + ["--out", out, "--format", "json"])
                    head = f"{model} {kind} {n_b} {route}:"
                    if code:
                        print(head, "exit", code, err.getvalue().strip().splitlines()[-1])
                        continue
                    with open(out) as fh:
                        (row,) = [r for r in json.load(fh) if r["quantity"] == "chernoff"]
                    flags = tuple(row["flags"])
                    print(head, repr(row["value"]), repr(row["s_star"]), repr(flags))
"""
# Columns that identify a sweep row, and the numeric ones compared.
KEY = ("transmitter", "model", "n_s", "n_b", "kappa", "quantity")
NUMERIC = ("value", "s_star")
MAX_DIFF_LINES = 20
TIMEOUT_S = 900


def commands():
    """(name, argv after the interpreter, plan text or None, output files)."""
    cli = ["-m", "gaussqi.cli"]
    out = []
    for name in FIGURES:
        out.append((f"figure {name} csv", cli + ["figure", name, "--out", "out.csv"], None, ["out.csv"]))
        out.append((f"figure {name} json",
                    cli + ["figure", name, "--out", "out.json", "--format", "json"], None, ["out.json"]))
    out.append(("verify all", cli + ["verify", "all"], None, []))
    for model in ("agnostic", "legacy"):
        out.append((f"limits {model}", cli + ["limits", model, "--out", "out.csv"], None, ["out.csv"]))
        for label, args in CHERNOFF_POINTS:
            out.append((f"chernoff {model} {label}", cli + ["chernoff", "--model", model] + args,
                        None, []))
    points = []
    for _, args in CHERNOFF_POINTS:
        given = dict(zip(args[::2], args[1::2]))
        points.append(tuple(float(given.get(k, 0.0)) for k in ("--ns", "--nb", "--kappa")))
    out.append(("api table", ["-c", f"POINTS = {tuple(points)!r}\n" + API_TABLE], None, []))
    out.append(("fock table", ["-c", FOCK_TABLE], None, []))
    out.append(("domain-edge table", ["-c", EDGE_TABLE], None, []))
    for demo in DEMOS:
        out.append((f"demo {demo}", [os.path.join("{tree}", "demos", demo)], None, []))
    for model in ("agnostic", "legacy"):
        plan = WIDE_PLAN + f"model = {model}\n"
        out.append((f"sweep wide {model}", cli + ["sweep", "plan.txt", "--out", "out.csv"], plan,
                    ["out.csv"]))
    return out


def run(tree: str, argv, plan, files) -> dict:
    """Run one command against `tree`; return its exit code, streams and output files."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(tree, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory(prefix="outdiff-") as work:
        if plan is not None:
            with open(os.path.join(work, "plan.txt"), "w") as fh:
                fh.write(plan)
        cmd = [sys.executable, "-W", "error"] + [a.replace("{tree}", tree) for a in argv]
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
        outputs = dict.fromkeys(files)
        for name in files:
            if os.path.exists(os.path.join(work, name)):
                with open(os.path.join(work, name)) as fh:
                    outputs[name] = fh.read()
    return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "files": outputs}


def _rows(name: str, text: str):
    """Sweep rows of a CSV or JSON output as dicts of strings, or None if it holds none."""
    if name.endswith(".json"):
        records = json.loads(text)
        if not (isinstance(records, list) and all(isinstance(r, dict) for r in records)):
            return None
        return [{k: ";".join(v) if isinstance(v, list) else "" if v is None else str(v)
                 for k, v in r.items()} for r in records]
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows if rows and set(KEY) <= set(rows[0]) else None


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _label(row) -> str:
    return " ".join(f"{k}={row[k]}" for k in KEY)


def compare_rows(old, new) -> list[str]:
    """Largest change per numeric column, and every row whose flags changed."""
    if len(old) != len(new) or any(_label(a) != _label(b) for a, b in zip(old, new)):
        return [f"    rows differ in number or order: {len(old)} -> {len(new)}"]
    lines = []
    for col in NUMERIC:
        changed, not_finite, worst_abs, worst_rel, where = 0, 0, 0.0, 0.0, None
        for a, b in zip(old, new):
            if a[col] == b[col]:
                continue
            changed += 1
            x, y = _number(a[col]), _number(b[col])
            if not (math.isfinite(x) and math.isfinite(y)):
                not_finite += 1
                continue
            rel = abs(y - x) / max(abs(x), abs(y)) if x or y else 0.0
            if rel > worst_rel or (rel == worst_rel and abs(y - x) > worst_abs):
                where = a
            worst_abs, worst_rel = max(worst_abs, abs(y - x)), max(worst_rel, rel)
        if not changed:
            lines.append(f"    {col}: unchanged on all {len(old)} rows")
            continue
        line = f"    {col}: {changed} of {len(old)} rows changed"
        if where is not None:
            line += (f", largest finite change {worst_abs:.3g} absolute and {worst_rel:.3g} "
                     f"relative (the relative one at {_label(where)})")
        if not_finite:
            line += f"; {not_finite} to or from a non-number"
        lines.append(line)
    flips = [(a, b) for a, b in zip(old, new) if a["flags"] != b["flags"]]
    lines.append(f"    flags changed on {len(flips)} rows")
    # The pair's exponent, from its chernoff row where the output has one.
    pair_of = lambda row: tuple(row[k] for k in KEY[:-1])  # noqa: E731
    xi = [{pair_of(r): r["value"] for r in rows if r["quantity"] == "chernoff"}
          for rows in (old, new)]
    for a, b in flips:
        pair = pair_of(a)
        exponent = (f", xi {xi[0][pair]} -> {xi[1][pair]}"
                    if a["quantity"] != "chernoff" and pair in xi[0] else "")
        lines.append(f"      {_label(a)}: flags {a['flags'] or '-'} -> {b['flags'] or '-'}, "
                     f"value {a['value']} -> {b['value']}{exponent}, s_star {a['s_star'] or '-'} "
                     f"-> {b['s_star'] or '-'}")
    return lines


def compare(name: str, old: dict, new: dict) -> tuple[bool, list[str]]:
    """Report lines for one command, and whether its exit codes agree."""
    same_code = old["code"] == new["code"]
    lines = [f"{name}: exit {old['code']} -> {new['code']}" + ("" if same_code else "  CHANGED")]
    for stream in ("stdout", "stderr"):
        if old[stream] == new[stream]:
            lines.append(f"  {stream}: identical")
            continue
        diff = [d for d in difflib.unified_diff(old[stream].splitlines(), new[stream].splitlines(),
                                                lineterm="", n=0) if d[:1] in "+-"
                and not d.startswith(("+++", "---"))]
        lines.append(f"  {stream}: {len(diff)} lines differ")
        lines += [f"    {d}" for d in diff[:MAX_DIFF_LINES]]
        if len(diff) > MAX_DIFF_LINES:
            lines.append(f"    ... {len(diff) - MAX_DIFF_LINES} more")
    for fname, text in old["files"].items():
        other = new["files"][fname]
        if text == other:
            lines.append(f"  {fname}: identical" + (" (missing on both)" if text is None else ""))
            continue
        if text is None or other is None:
            lines.append(f"  {fname}: written by only one tree")
            continue
        lines.append(f"  {fname}: differs")
        rows = _rows(fname, text), _rows(fname, other)
        if None in rows:
            lines.append("    not sweep rows; compare by hand")
        else:
            lines += compare_rows(*rows)
    return same_code, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="source tree of the parent commit")
    parser.add_argument("change", help="source tree of the change")
    args = parser.parse_args(argv)
    trees = [os.path.abspath(t) for t in (args.parent, args.change)]
    for tree in trees:
        if not os.path.isdir(os.path.join(tree, "src", "gaussqi")):
            parser.error(f"{tree} has no src/gaussqi")
    all_same = True
    for name, cmd, plan, files in commands():
        old, new = (run(tree, cmd, plan, files) for tree in trees)
        same, lines = compare(name, old, new)
        all_same &= same
        print("\n".join(lines), flush=True)
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
