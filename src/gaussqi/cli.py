"""Command-line front end.

Subcommands:
    chernoff   single-point exponent evaluation
    sweep      run a plan file (flat key = value text)
    figure     reproduce a named reference-figure data set
    verify     run an expansion-residual check (or "all")
    limits     limit-order study for one target model

Exit codes: 0 success, 1 invalid input, 2 failed verification check.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

import numpy as np

from .divergence import S_TOL, chernoff
from .sweeps import (
    CHECKS,
    FIGURES,
    FORMATS,
    SweepPlan,
    SweepRow,
    emit,
    limit_order_study,
    reproduce_figure,
    run_sweep,
    verify_expansion,
)
from .target import MODELS, TargetConfig, make_pair
from .transmitters import KINDS, TransmitterSpec


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the CLI contract wants 1.
    def error(self, message):
        raise _CliError(message)


def parse_grid(text: str) -> tuple:
    """Parse a grid expression.

    Accepted forms: "0.1,0.2,0.5" (explicit list), "log:1e-3:10:41"
    (log-spaced inclusive range), "lin:0:30:601" (linear range).
    Scientific notation is accepted everywhere.
    """
    text = text.strip()
    if text.startswith("log:") or text.startswith("lin:"):
        kind, *ends = text.split(":")
        try:
            lo, hi, num = ends
            lo, hi, num = float(lo), float(hi), int(num)
        except ValueError:
            raise _CliError(f"cannot parse grid {text!r}; expected {kind}:lo:hi:n") from None
        if num < 1:
            raise _CliError(f"grid {text!r} needs at least one point")
        if kind == "log":
            if lo <= 0 or hi <= 0:
                raise _CliError(f"log grid {text!r} needs positive endpoints")
            return tuple(np.logspace(np.log10(lo), np.log10(hi), num))
        return tuple(np.linspace(lo, hi, num))
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise _CliError(f"cannot parse grid {text!r}: {exc}") from exc


# Plan-file key -> the setting it gives; aliases name the same setting.
_PLAN_KEYS = {
    "transmitter": "transmitters", "transmitters": "transmitters",
    "quantity": "quantities", "quantities": "quantities",
    "ns": "ns", "grid_ns": "ns",
    "nb": "nb", "grid_nb": "nb",
    "kappa": "kappa", "grid_kappa": "kappa",
    "model": "model", "out": "out", "format": "format",
}


def read_plan(path: str, out_override=None, format_override=None):
    """Read a flat key = value plan file into (plan, out_path, out_format).

    Keys: transmitter(s), quantity/quantities, ns or grid_ns, nb or
    grid_nb, kappa or grid_kappa, model, out, format.  An unknown key, or
    a setting given twice (under either of its names), is an error.  Lines
    starting with '#' are comments.  out_path is None when neither the
    plan nor the override names one (the rows go to stdout).
    """
    fields: dict = {}
    where: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise _CliError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            if key not in _PLAN_KEYS:
                raise _CliError(f"{path}:{lineno}: unknown key {key!r}; expected one of "
                                f"{', '.join(_PLAN_KEYS)}")
            if _PLAN_KEYS[key] in fields:
                raise _CliError(f"{path}:{lineno}: {key!r} sets "
                                f"{_PLAN_KEYS[key]!r} a second time")
            fields[_PLAN_KEYS[key]] = value.strip()
            where[_PLAN_KEYS[key]] = f"{path}:{lineno}: {key!r}"

    def names(key, default):
        if key not in fields:
            return default
        values = tuple(v.strip() for v in fields[key].split(",") if v.strip())
        if not values:
            raise _CliError(f"{where[key]} lists no values")
        return values

    def grid(key, default):
        if key not in fields:
            return default
        try:
            return parse_grid(fields[key])
        except _CliError as exc:
            raise _CliError(f"{where[key]}: {exc}") from None

    out_format = format_override or fields.get("format", "csv")
    if out_format not in FORMATS:
        raise _CliError(f"{where['format']}: unknown format {out_format!r}; "
                        f"expected one of {FORMATS}")
    try:
        plan = SweepPlan(
            transmitters=names("transmitters", ("coherent",)),
            quantities=names("quantities", ("chernoff",)),
            n_s_grid=grid("ns", (1.0,)),
            n_b_grid=grid("nb", (1.0,)),
            kappa_grid=grid("kappa", (1e-2,)),
            model=fields.get("model", "agnostic"),
        )
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    return plan, out_override or fields.get("out"), out_format


def _cmd_chernoff(args) -> int:
    spec = TransmitterSpec(args.transmitter, args.ns)
    cfg = TargetConfig(kappa=args.kappa, n_b=args.nb, model=args.model)
    pair = make_pair(spec, cfg)
    res = chernoff(pair, s_tol=args.tol)
    print(f"transmitter={args.transmitter} model={args.model} "
          f"n_s={spec.n_signal:g} n_b={args.nb:g} kappa={args.kappa:g}")
    print(f"s_star   = {res.s_star:.12g}")
    print(f"q_star   = {res.q_star:.17g}")
    print(f"xi       = {res.xi:.17g}")
    print(f"q_half   = {res.q_half:.17g}")
    if res.flags:
        print(f"flags    = {';'.join(res.flags)}")
    if args.out:
        rows = [
            SweepRow(args.transmitter, args.model, spec.n_signal, args.nb,
                     args.kappa, "chernoff", res.xi, res.s_star, tuple(res.flags)),
            SweepRow(args.transmitter, args.model, spec.n_signal, args.nb,
                     args.kappa, "q_half", res.q_half, res.s_star, tuple(res.flags)),
        ]
        emit(rows, args.out, args.format)
    return 0


def _cmd_sweep(args) -> int:
    plan, out_path, out_format = read_plan(args.plan, out_override=args.out,
                                           format_override=args.format)
    rows = run_sweep(plan)
    emit(rows, out_path or sys.stdout, out_format)
    return 0


def _cmd_figure(args) -> int:
    rows, summary = reproduce_figure(args.name)
    if args.out:
        emit(rows, args.out, args.format)
    for key, value in summary.items():
        print(f"{key} = {value}")
    return 0 if summary["passed"] else 2


def _cmd_verify(args) -> int:
    names = list(CHECKS) if args.check == "all" else [args.check]
    if any(n not in CHECKS for n in names):
        raise _CliError(f"unknown check {args.check!r}; expected one of {CHECKS} or 'all'")
    failed = False
    for name in names:
        check = verify_expansion(name)
        status = "pass" if check.passed else "FAIL"
        if check.fitted_order is not None:
            print(f"[{status}] {name}: fitted order {check.fitted_order:.3f} "
                  f"(expected > {check.expected_order - 0.1:.2f})")
        else:
            print(f"[{status}] {name}: {check.details}")
        failed = failed or not check.passed
    return 2 if failed else 0


def _cmd_limits(args) -> int:
    rows = limit_order_study(args.model)
    emit(rows, args.out or sys.stdout, args.format)
    for row in rows:
        path = row.flags[0] if row.flags else ""
        print(f"{row.model} {path:12s} n_s={row.n_s:g} kappa={row.kappa:g} "
              f"ratio={row.value:.6f}", file=sys.stderr)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="gaussqi", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chernoff", help="exponent at a single parameter point")
    p.add_argument("--transmitter", choices=KINDS, required=True)
    p.add_argument("--ns", type=float, default=0.0, help="signal intensity N_S")
    p.add_argument("--nb", type=float, required=True, help="background occupation N_B")
    p.add_argument("--kappa", type=float, required=True, help="reflectivity")
    p.add_argument("--model", choices=MODELS, default="agnostic")
    p.add_argument("--tol", type=float, default=S_TOL, help="absolute s tolerance")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.set_defaults(func=_cmd_chernoff)

    p = sub.add_parser("sweep", help="run a plan file")
    p.add_argument("plan", help="flat key = value plan file")
    p.add_argument("--out", default=None, help="override the plan's output path")
    p.add_argument("--format", choices=FORMATS, default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("figure", help="reproduce a reference-figure data set")
    p.add_argument("name", choices=FIGURES)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("verify", help="run an expansion-residual check")
    p.add_argument("check", help=f"one of {', '.join(CHECKS)}, or 'all'")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("limits", help="limit-order study for one model")
    p.add_argument("model", choices=MODELS)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.set_defaults(func=_cmd_limits)
    return parser


@cache
def _parser() -> _Parser:
    # Built on first use, once per process; parse_args leaves it unchanged.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (_CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
