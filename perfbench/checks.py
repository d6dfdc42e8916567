"""Per-item correctness checks.

Each checker returns None for a correct item or a one-line reason for a
failed one.  They use only the standard library, so they stay independent
of the code under test.
"""

from __future__ import annotations

import csv
import io
import math

# The Gaussian-vs-Fock gate of acceptance criterion 1.
FOCK_TOL = 1e-6
# The float64-vs-mpmath bar of ROADMAP direction 2.
MP_REL_TOL = 1e-8

ADVANTAGE_HEADER = ("transmitter", "model", "n_s", "n_b", "kappa",
                    "quantity", "value", "s_star", "flags")


def check_advantage_csv(text: str, n_s_grid, n_b_grid, kappa: float) -> list:
    """One reason (or None) per expected row of a tmss ratio_vs_coherent sweep.

    A row must sit at its grid point in plan order, carry a finite ratio
    strictly between 0 and 4, and have no maxiter flag.  Rows missing from
    the file fail; extra rows make every row fail.
    """
    expected = [(ns, nb) for ns in n_s_grid for nb in n_b_grid]
    reader = csv.reader(io.StringIO(text))
    header = tuple(next(reader, ()))
    if header != ADVANTAGE_HEADER:
        return [f"unexpected CSV header {header}"] * len(expected)
    records = list(reader)
    if len(records) > len(expected):
        return [f"{len(records)} rows for a {len(expected)}-point grid"] * len(expected)
    reasons = []
    for k, (ns, nb) in enumerate(expected):
        if k >= len(records):
            reasons.append("row missing")
            continue
        reasons.append(_check_advantage_row(records[k], ns, nb, kappa))
    return reasons


def _check_advantage_row(rec, ns: float, nb: float, kappa: float):
    if len(rec) != len(ADVANTAGE_HEADER):
        return f"row has {len(rec)} fields"
    kind, model, r_ns, r_nb, r_kappa, quantity, value, _, flags = rec
    if (kind, model, quantity) != ("tmss", "agnostic", "ratio_vs_coherent"):
        return f"unexpected row kind {(kind, model, quantity)}"
    try:
        point = (float(r_ns), float(r_nb), float(r_kappa))
        ratio = float(value) if value else math.nan
    except ValueError:
        return f"unparsable row {rec}"
    if point != (ns, nb, kappa):
        return f"row at {point}, expected {(ns, nb, kappa)}"
    if not math.isfinite(ratio) or not 0.0 < ratio < 4.0:
        return f"ratio {value!r} outside (0, 4) at N_S={ns!r}, N_B={nb!r}"
    if "maxiter" in flags.split(";"):
        return f"maxiter flag at N_S={ns!r}, N_B={nb!r}"
    return None


def check_fock_item(values) -> str | None:
    """values: (s, q_fock, q_gaussian, log_q_mpmath) for each s of the item.

    The Fock oracle must match the float64 Gaussian Q_s to FOCK_TOL, and the
    Gaussian Q_s must match exp(log Q_s) from mpmath to MP_REL_TOL relative
    (compared as logarithms).
    """
    for s, q_fock, q_gauss, log_q_mp in values:
        diff = abs(q_fock - q_gauss)
        if not diff < FOCK_TOL:
            return f"|Fock - Gaussian| = {diff:.3e} at s={s}"
        log_q_mp = float(log_q_mp)
        if not (q_gauss > 0 and abs(math.log(q_gauss) - log_q_mp) <= MP_REL_TOL):
            return f"Gaussian Q_s = {q_gauss!r} vs mpmath exp({log_q_mp!r}) at s={s}"
    return None
