"""Parameter sweeps, figure-data reproduction, expansion verification, and
the limit-order study, with deterministic CSV/JSON output.

Quantities handled by sweeps:
    chernoff            exponent xi = -log Q_{s*}
    q_half              Bhattacharyya point Q_{1/2}
    s_star              minimizing s
    fidelity            F(rho0, rho1) (single-mode transmitters)
    ratio_vs_coherent   xi / xi(coherent) at the same grid point (nan, flagged
                        degenerate, when either is below FLAT_SPAN)
    ratio_vs_vacuum     Q_{s*} / Q_{s*}(vacuum) at the same grid point
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import os
import stat
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, partial
from typing import NamedTuple

import numpy as np

# `highprec`, and with it mpmath, is imported inside the checks and the
# limit study that evaluate it, so a sweep or a figure does not load it.
# chernoff stays importable from here: the benchmark's tracer tests read
# gaussqi.sweeps.chernoff.
from .divergence import (  # noqa: F401
    FLAT_SPAN,
    _chernoff_search,
    _factors,
    _StandardGeometry,
    chernoff,
    fidelity_many,
)
from .symplectic import symplectic_eigenvalues
from .target import TargetConfig, _check_target, _degenerate, _parameter_stack, make_pair
from .transmitters import _check_kind, _check_nonnegative, tmss

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

# Grid points per chunk.  A sweep evaluates, holds and writes one chunk at a
# time, so its memory does not grow with the plan.
CHUNK_POINTS = 4096

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


class _Block(NamedTuple):
    """Rows of one kind at consecutive grid points, as columns.

    Point p of the block is (grids[0][i], grids[1][j], grids[2][k]) with
    (i, j, k) its entries of the three lists in `index`; `columns` holds one
    (values, s_star, flags) per quantity, each a sequence in point order.
    A point's rows are its quantities, in order.
    """

    kind: str
    model: str
    grids: tuple
    index: list
    quantities: tuple
    columns: list


def _quantity_columns(quantity, kind, points, vacuum_points, stacks):
    """(values, s_star, flags) of one quantity at a kind's mesh points, each a list in point order.

    `stacks` maps every kind the chunk evaluated to (the sorted mesh points
    it holds, their parameters, degenerate mask and Chernoff columns).  A
    ratio reads its reference at the same point, the vacuum one at
    `vacuum_points`, the points of its own mesh at the same (n_b, kappa).
    """
    def at(kind, points):
        """The kind's (parameters, degenerate mask, Chernoff columns) at its mesh `points`."""
        mesh, parameters, degenerate, results = stacks[kind]
        if mesh is points:
            return parameters, degenerate, results
        rows = np.searchsorted(mesh, points)
        return [p[rows] for p in parameters], degenerate[rows], [c[rows] for c in results]

    parameters, degenerate, results = at(kind, points)
    if quantity == "fidelity":
        supported = parameters[0].shape[-1] == 2
        flags = [("degenerate",) * flag + ("unsupported",) * (not supported)
                 for flag in degenerate.tolist()]
        values = fidelity_many(*parameters) if supported else np.full(len(flags), np.nan)
        return values.tolist(), [None] * len(flags), flags
    s_star, xi, q_half, flags, _ = results
    direct = {"chernoff": xi, "q_half": q_half, "s_star": s_star}
    if quantity in direct:
        return direct[quantity].tolist(), s_star.tolist(), flags.tolist()
    if quantity == "ratio_vs_coherent":
        ref = at(kind if kind == "vacuum" else "coherent", points)[2][1]
        # An exponent below FLAT_SPAN, exactly 0 or a few eps, is rounding
        # noise either way.  Flat alone is no test: a coherent pair at N_B = 0
        # is flat in s with the exact exponent kappa N_S.
        noise = np.minimum(xi, ref) < FLAT_SPAN
        with np.errstate(divide="ignore", invalid="ignore"):
            values = xi / ref
    else:
        _, noise, (_, ref, *_) = at("vacuum", vacuum_points)
        # Q_{s*} ratio through the exponent difference, stable when both
        # overlaps sit within rounding of 1.
        values = np.exp(ref - xi)
    flags = [f + ("degenerate",) if bad else f for f, bad in zip(flags.tolist(), noise.tolist())]
    return np.where(noise, np.nan, values).tolist(), s_star.tolist(), flags


def _chunks(plan: SweepPlan):
    """The plan's rows, CHUNK_POINTS grid points at a time: one list of `_Block`s per chunk.

    A kind's points are the mesh of its (n_s, n_b, kappa) grids (a vacuum
    at n_s = 0 alone), numbered in row order, and the plan's kinds lay
    theirs end to end; each chunk takes the next CHUNK_POINTS of them.
    Every kind the chunk's rows read, the coherent and vacuum references
    included, is one `pair_parameters` over the points it needs there,
    stacked in float64.  If a row reads an exponent, the kinds' geometries
    join into one, of either mode count, and one Chernoff search runs on it.
    """
    def grids(kind):
        """The kind's (n_s, n_b, kappa) grids: a vacuum reads n_s = 0 alone."""
        return ((0.0,) if kind == "vacuum" else plan.n_s_grid, plan.n_b_grid, plan.kappa_grid)

    def index(kind, points):
        """The grid indices (i_s, i_b, i_k) of the kind's mesh points."""
        return np.unravel_index(points, tuple(map(len, grids(kind))))

    n_s, n_b, kappa = (np.asarray(grid, dtype=float)
                       for grid in (plan.n_s_grid, plan.n_b_grid, plan.kappa_grid))

    def values(kind, points):
        """The kind's (n_s, n_b, kappa) at its mesh points."""
        i_s, i_b, i_k = index(kind, points)
        return 0.0 if kind == "vacuum" else n_s[i_s], n_b[i_b], kappa[i_k]

    vacuum_size = len(plan.n_b_grid) * len(plan.kappa_grid)
    ends = list(itertools.accumulate(math.prod(map(len, grids(kind))) for kind in plan.transmitters))
    spans = list(zip(plan.transmitters, [0, *ends], ends))
    total = ends[-1] if ends else 0
    for start in range(0, total, CHUNK_POINTS):
        end = min(start + CHUNK_POINTS, total)
        segments = []
        needed = {}
        for kind, lo, hi in spans:
            if lo < end and start < hi:
                points = np.arange(max(start, lo) - lo, min(end, hi) - lo)
                vacuum_points = None
                needed.setdefault(kind, []).append(points)
                if "ratio_vs_coherent" in plan.quantities and kind != "vacuum":
                    needed.setdefault("coherent", []).append(points)
                if "ratio_vs_vacuum" in plan.quantities:
                    vacuum_points = points % vacuum_size
                    needed.setdefault("vacuum", []).append(np.unique(vacuum_points))
                segments.append((kind, points, vacuum_points))
        # Each part is sorted and unique already; a lone part is the stack's mesh itself.
        mesh = {kind: parts[0] if len(parts) == 1 else np.unique(np.concatenate(parts))
                for kind, parts in needed.items()}
        pairs = {kind: _parameter_stack(kind, *values(kind, points), plan.model)
                 for kind, points in mesh.items()}
        degenerate = {kind: _degenerate(*stacked) for kind, stacked in pairs.items()}
        results = dict.fromkeys(mesh, ())
        if any(q != "fidelity" for q in plan.quantities):
            geom = _StandardGeometry.concatenate(
                [_StandardGeometry.from_parameters(*stacked) for stacked in pairs.values()])
            columns = _chernoff_search(geom, np.concatenate(list(degenerate.values())))
            bounds = [0, *itertools.accumulate(map(len, mesh.values()))]
            results = {kind: [column[lo:hi] for column in columns]
                       for kind, lo, hi in zip(mesh, bounds, bounds[1:])}
        stacks = {kind: (mesh[kind], pairs[kind], degenerate[kind], results[kind])
                  for kind in mesh}
        yield [_Block(kind, plan.model, grids(kind), [i.tolist() for i in index(kind, points)],
                      plan.quantities,
                      [_quantity_columns(q, kind, points, vacuum_points, stacks)
                       for q in plan.quantities])
               for kind, points, vacuum_points in segments]


def run_sweep(plan: SweepPlan) -> list[SweepRow]:
    """Evaluate the plan, one row per grid point per quantity.

    Rows follow the lexicographic order of (transmitter, n_s, n_b, kappa,
    quantity) as listed in the plan, so identical plans produce identical
    tables.  Degenerate configurations yield flagged rows, not errors.

    The rows are `write_sweep`'s, made into `SweepRow`s: the plan is
    evaluated CHUNK_POINTS grid points at a time (`_chunks`), and no
    quantity writes a dense moment stack.  A vacuum row's coherent reference
    is its own pair: coherent at N_S = 0 has the same moments.  A point's
    values do not depend on the other points of its stack or search, so they
    do not depend on the chunk either.
    """
    rows = []
    for chunk in _chunks(plan):
        for kind, model, grids, index, quantities, columns in chunk:
            for p, (i, j, k) in enumerate(zip(*index)):
                point = float(grids[0][i]), float(grids[1][j]), float(grids[2][k])
                for quantity, (values, s_star, flags) in zip(quantities, columns):
                    rows.append(SweepRow(kind, model, *point, quantity,
                                         values[p], s_star[p], flags[p]))
    return rows


def _csv_numbers(column) -> list[str]:
    """Each number of `column` to 17 significant digits, None as an empty field."""
    return ["" if x is None else "%.17g" % x for x in column]


def _json_numbers(column) -> list[str]:
    """Each number (or None) of `column` as json.dump writes it."""
    return list(map(json.dumps, column))


def _csv_field(text: str) -> str:
    """`text` as csv.writer quotes a field: only if it holds a comma, a quote or a line break."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _json_flags(flags) -> str:
    """A flags tuple as json.dump(..., indent=1) writes it inside a record."""
    return "[\n   " + ",\n   ".join(map(json.dumps, flags)) + "\n  ]" if flags else "[]"


class _Style(NamedTuple):
    """An output format: how it writes a column of numbers (None included), a
    name and a flags tuple; the text before each of a row's nine fields and
    after the last; and the text before, between and after the rows, or in
    their place when there are none."""

    numbers: Callable
    name: Callable
    flags: Callable
    glue: tuple
    first: str
    between: str
    last: str
    empty: str


_HEADER_LINE = ",".join(CSV_HEADER) + "\n"
_STYLES = {
    "csv": _Style(_csv_numbers, _csv_field, lambda flags: _csv_field(";".join(flags)),
                  ("", *(",",) * 8, ""), _HEADER_LINE, "\n", "\n", _HEADER_LINE),
    # The layout of json.dump(records, indent=1).
    "json": _Style(_json_numbers, json.dumps, _json_flags,
                   (*(f'{"," if i else " {"}\n  "{key}": ' for i, key in enumerate(CSV_HEADER)),
                    "\n }"),
                   "[\n", ",\n", "\n]\n", "[]\n"),
}


def _block_rows(block: _Block, style: _Style, grids: dict, flag_text) -> list[str]:
    """One string per row of the block, in row order.

    `grids` holds each grid written so far with its texts, by id: a grid is
    known by identity, since 0.0 == -0.0 and 1 == 1.0, and is held so that
    no other object takes its id.  `flag_text` gives a flags tuple's text.
    """
    for grid in block.grids:
        if id(grid) not in grids:
            grids[id(grid)] = grid, style.numbers(grid)
    n_s, n_b, kappa = (grids[id(grid)][1] for grid in block.grids)
    g = style.glue
    head = f"{g[0]}{style.name(block.kind)}{g[1]}{style.name(block.model)}{g[2]}"
    points = [f"{head}{n_s[i]}{g[3]}{n_b[j]}{g[4]}{kappa[k]}" for i, j, k in zip(*block.index)]
    by_quantity = []
    for quantity, (values, s_star, flags) in zip(block.quantities, block.columns):
        mid = f"{g[5]}{style.name(quantity)}{g[6]}"
        by_quantity.append([
            f"{point}{mid}{value}{g[7]}{s}{g[8]}{flag}{g[9]}"
            for point, value, s, flag in zip(points, style.numbers(values), style.numbers(s_star),
                                              map(flag_text, flags))])
    return [row for rows in zip(*by_quantity) for row in rows]


def _write(chunks, path, out_format: str) -> None:
    """Write the rows of `chunks` (lists of `_Block`s) as CSV or JSON, one write per chunk.

    `path` may be a filesystem path or an open text stream.  Each grid
    value and each distinct flags tuple is formatted once.  If a chunk
    fails, the regular file this opened at `path` is removed, so no partial
    table stays behind; a stream keeps the chunks written before.
    """
    if out_format not in FORMATS:
        raise ValueError(f"unknown format {out_format!r}; expected one of {FORMATS}")
    if not hasattr(path, "write"):
        # The file is opened only after the first chunk is evaluated: a plan
        # that fails there leaves any file at `path` as it was, and a small
        # sweep measured faster in this order.
        chunks = iter(chunks)
        first = list(itertools.islice(chunks, 1))
        with open(path, "w", newline="") as stream:
            try:
                return _write(itertools.chain(first, chunks), stream, out_format)
            except BaseException:
                stream.close()
                if stat.S_ISREG(os.lstat(path).st_mode):
                    os.remove(path)
                raise
    style = _STYLES[out_format]
    grids, flag_text = {}, cache(style.flags)
    lead = None
    for chunk in chunks:
        rows = [row for block in chunk for row in _block_rows(block, style, grids, flag_text)]
        if rows:
            # What goes before the chunk rides on its first row: one write.
            rows[0] = (style.first if lead is None else lead) + rows[0]
            path.write(style.between.join(rows))
            lead = style.between
    path.write(style.empty if lead is None else style.last)


def write_sweep(plan: SweepPlan, path, out_format: str = "csv") -> None:
    """Evaluate the plan and write `run_sweep`'s rows as `emit` does, chunk by chunk.

    Memory does not grow with the plan: one chunk of CHUNK_POINTS grid
    points is evaluated, written and dropped before the next.
    """
    _write(_chunks(plan), path, out_format)


def emit(rows: list[SweepRow], path, out_format: str = "csv") -> None:
    """Write rows as CSV (17 significant digits) or JSON.

    `path` may be a filesystem path or an open text stream.  Consecutive
    rows of one transmitter, model and quantity go to the writer as one block.
    """
    key = operator.attrgetter("transmitter", "model", "quantity")
    blocks = []
    for (kind, model, quantity), run in itertools.groupby(rows, key):
        n_s, n_b, kappa, values, s_star, flags = zip(
            *((r.n_s, r.n_b, r.kappa, r.value, r.s_star, r.flags) for r in run))
        index = range(len(values))
        blocks.append(_Block(kind, model, (n_s, n_b, kappa), [index] * 3, (quantity,),
                             [(values, s_star, flags)]))
    _write([blocks], path, out_format)


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
    lam_0 = _factors(2 * n_b + 1, s)[1][0]
    return float(lam_0 + _factors(2 * (1 - kappa) * n_b + 1, 1 - s)[1][0])


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
    from . import highprec
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
    from . import highprec
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
        cov1 = make_pair(tmss(n_s), TargetConfig(kappa, n_b)).rho1.cov
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
    from . import highprec
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
    from . import highprec
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
    from . import highprec
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
