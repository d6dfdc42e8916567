"""Mutant catalogue: one-line text mutants of the source, each run against Tier-1.

    python3 tools/mutants.py [--list] [INDEX ...]

Each CATALOGUE entry (file, old, new, note) names a file relative to the
repository root and a text `old` that occurs exactly once in it.  For each
selected entry (all when no INDEX is given) the repository is copied to a
temporary directory, `old` is replaced by `new` there, and the Tier-1 suite
runs on the copy with `-x` and BLAS pinned to one thread, all of it but
tests/test_mutants.py, which checks the catalogue.  A failing run kills
the mutant; the first failing test is printed.  A mutant that
survives is either a gap in the suite or equivalent on the tested domain;
its note says which, where that is known.  `--list` prints the catalogue
and checks that every entry still matches exactly once, without running
anything.  Standard library only.  Exit status: 0 when every entry matches
exactly once, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out")
TIMEOUT_S = 600


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    note: str


DIVERGENCE = "src/gaussqi/divergence.py"
FOCK = "src/gaussqi/fock_oracle.py"
HIGHPREC = "src/gaussqi/highprec.py"
SWEEPS = "src/gaussqi/sweeps.py"
SYMPLECTIC = "src/gaussqi/symplectic.py"
TARGET = "src/gaussqi/target.py"
TRANSMITTERS = "src/gaussqi/transmitters.py"
CATALOGUE = (
    Mutant(FOCK, "HERMITICITY_TOL = 1e-12", "HERMITICITY_TOL = 1e-5",
           "Hermiticity check 10^7 looser: a 1e-6 asymmetry passes"),
    Mutant(FOCK, "HERMITICITY_TOL = 1e-12", "HERMITICITY_TOL = 1e-16",
           "Hermiticity check at the rounding of the blocks themselves"),
    Mutant(FOCK, "NEGATIVITY_TOL = 1e-10", "NEGATIVITY_TOL = 1e-8",
           "a -1e-9 eigenvalue is accepted as a zero"),
    Mutant(FOCK, "NEGATIVITY_TOL = 1e-10", "NEGATIVITY_TOL = 1e-12",
           "a -1e-11 eigenvalue is rejected"),
    Mutant(FOCK, "0.0) * 1e-14", "0.0) * 1e-11",
           "_eigen's zero cut 1000x higher: small true eigenvalues are dropped"),
    Mutant(FOCK, "0.0) * 1e-14", "0.0) * 1e-17",
           "_eigen's zero cut below rounding: pure-state noise is raised to powers"),
    Mutant(FOCK, "\nMAX_CUTOFF = 128\n", "\nMAX_CUTOFF = 64\n",
           "ceiling halved: choose_cutoff no longer tries its documented ceiling last"),
    Mutant(FOCK, "\nMAX_CUTOFF = 128\n", "\nMAX_CUTOFF = 256\n",
           "ceiling doubled: choose_cutoff no longer tries its documented ceiling last"),
    Mutant(FOCK, "int(np.ceil(1.25 * d))", "int(np.ceil(1.5 * d))",
           "choose_cutoff grows by 1.5: criterion 1's anchor cutoffs move"),
    Mutant(FOCK, "np.array([1.0, 1.0, -1.0, -1.0])[np.arange", "np.array([1.0, 1.0, 1.0, 1.0])[np.arange",
           "sign table without the i^2 = -1 entries: K is no longer unitary"),
    Mutant(FOCK, "np.array([1.0, 1.0, -1.0, -1.0])[np.arange", "np.array([1.0, -1.0, -1.0, 1.0])[np.arange",
           "sign table of exp(+theta G): rho1 is the same (the thermal environment "
           "is phase-invariant), only the kernel test against expm sees it"),
    Mutant(FOCK, "[:, None] % 2 != (cols % 2)", "[:, None] % 2 == (cols % 2)",
           "C and S swapped: each entry read from the product that vanishes there"),
    Mutant(FOCK, "(2 * d - 1) * pos[n]", "(2 * d - 1) * np.minimum(pos[n], inputs.size - 1)",
           "padding columns written on the last input's row, not the spare row"),
    Mutant(FOCK, "groups, size, stacks = _target_plan(d, state.dim, support)",
           "groups, size, stacks = apply_target_fock.__dict__.setdefault("
           "d, _target_plan(d, state.dim, support))",
           "plan looked up by the cutoff alone: a second support at one cutoff "
           "reuses the first one's plan"),
    Mutant(FOCK, "if d > 2 * MAX_CUTOFF:", "if d * d > 70000:",
           "the old joint cap d^2 <= 70000: a direct pair at 2 * MAX_CUTOFF + 1 is built"),
    Mutant(FOCK, "np.outer(_geometric_weights(cfg.n_b, cutoff), memory)",
           "np.outer(memory, _geometric_weights(cfg.n_b, cutoff))",
           "the two-mode rho0's factors swapped: the memory's weights on the transmitted mode"),
    Mutant(FOCK, "        if any(np.iscomplexobj(m) for _, m in blocks):\n"
           "            raise ValueError(\"FockOperator blocks must be real\")\n", "",
           "a complex block is cast to float64, its imaginary part dropped with numpy's "
           "ComplexWarning, not refused"),
    Mutant(SWEEPS, "noise = np.minimum(xi, ref) < FLAT_SPAN",
           "noise = np.minimum(xi, ref) <= 0.0",
           "ratio_vs_coherent of few-eps exponents written as a number again"),
    Mutant(SWEEPS, "vacuum_size = len(plan.n_b_grid) * len(plan.kappa_grid)",
           "vacuum_size = len(plan.n_b_grid)",
           "the vacuum reference indexed with the wrong modulus: ratio_vs_vacuum reads its "
           "reference at the wrong (n_b, kappa)"),
    Mutant(SWEEPS, "at(kind if kind == \"vacuum\" else \"coherent\", points)",
           "at(\"coherent\", points)",
           "a vacuum row's coherent reference read off the coherent stack's first points"),
    Mutant(TARGET, "(variances1 - variances0).max(axis=-1) <= 1e-13 * scale",
           "(variances1 - variances0).max(axis=-1) <= 1e-11 * scale",
           "degenerate covariances 100x looser"),
    Mutant(TARGET, "(mean1 - mean0).max(axis=-1) <= 1e-13 * scale",
           "(mean1 - mean0).max(axis=-1) <= 1e-11 * scale",
           "degenerate means 100x looser: legacy coherent at N_S = 5e-24, whose "
           "means differ by 1e-12, is taken for degenerate"),
    Mutant(HIGHPREC, "anti[j][i] = -anti[i][j]", "anti[j][i] = anti[i][j]",
           "K mirrored as symmetric: the symplectic eigenvalues are wrong"),
    Mutant(HIGHPREC, "tol, rotated = mp.eps**2, True", "tol, rotated = mp.eps, True",
           "Jacobi stops at |a_pq| ~ 1e-30 of the diagonal: eigenvectors good to 1e-30 only"),
    Mutant(HIGHPREC, "for e in evals[::2]:", "for e in evals[1::2]:",
           "the other copy of each 1/nu^2; equivalent: the two agree to rounding"),
    Mutant(HIGHPREC, "for e in evals[::2]:", "for e in evals[: len(evals) // 2]:",
           "pairs taken as the lower half of the spectrum: tmss reads one mode twice"),
    Mutant(HIGHPREC, "2 * mp.fsum(log_hi)", "mp.fsum(log_hi)",
           "log(2 nu + 1) counted once per mode, not once per eigenvector"),
    Mutant(HIGHPREC, "row[2 * k : 2 * k + 2]", "row[2 * k : 2 * k + 1]",
           "P_k from one column of its pair: a rank-one projector"),
    Mutant(DIVERGENCE, "FLAT_SPAN = 1e-13", "FLAT_SPAN = 1e-12",
           "flat threshold 10x higher"),
    Mutant(DIVERGENCE, "< 2.0 * FLAT_SPAN)", "< 0.5 * FLAT_SPAN)",
           "flat pre-filter 4x narrower: weak smsv at N_B = 0 loses its flat flag"),
    Mutant(DIVERGENCE, "noise = 2.0 * np.finfo(float).eps * (a + m) ** 2",
           "noise = 0.5 * np.finfo(float).eps * (a + m) ** 2",
           "pure-mode band of the closed form 4x narrower: tmss at N_B = 0 and kappa > 0.5 "
           "keeps a pure nu 2.2e-16 above 1/2"),
    Mutant(DIVERGENCE, "h = 0.5 * (weights", "h = (weights",
           "one-mode h without its 1/2: det Sigma gets 2 (t0^2/t1^2 + t1^2/t0^2) L0 L1"),
    Mutant(DIVERGENCE, "np.full(size, float(n))", "np.full(size, 2.0)",
           "one-mode weight w = 2: log det Sigma and the norm counted twice"),
    Mutant(DIVERGENCE, "x = np.ones((size, 4))", "x = np.full((size, 4), 1.0 + 1e-9)",
           "one-mode padding slots off x = 1: each adds log G and its derivatives"),
    Mutant(DIVERGENCE, "searching = searching & signed & ~closed",
           "searching = searching & (signed & ~closed).any()",
           "pairs leave the search only all at once: closed pairs are stepped on"),
    Mutant(DIVERGENCE, "rows = np.flatnonzero(mask)", "rows = np.flatnonzero(mask | live)",
           "every pass of the search evaluates every live pair, not only those it counts"),
    Mutant(SYMPLECTIC, "PHYSICALITY_TOL = 1e-10", "PHYSICALITY_TOL = 1e-6",
           "physicality 10^4 looser: a covariance 1e-8 below the vacuum passes"),
    Mutant(SYMPLECTIC, "SYMMETRY_TOL = 1e-12", "SYMMETRY_TOL = 1e-8",
           "symmetry 10^4 looser: a 1e-10 relative asymmetry passes"),
    Mutant(SYMPLECTIC, "MIN_COV_EIGENVALUE = 1e-14", "MIN_COV_EIGENVALUE = 1e-10",
           "positivity floor 10^4 higher: a pure state squeezed to a 1e-12 variance is rejected"),
    Mutant(HIGHPREC, "_PURE_BAND = mp.mpf(10) ** (10 - DPS)",
           "_PURE_BAND = mp.mpf(10) ** (30 - DPS)",
           "mpmath pure-mode band 1e20x wider; survives, equivalent on the tested domain: "
           "no tested state has a 2 nu - 1 between rounding and 1e-30"),
    Mutant(DIVERGENCE, "_S_EDGE = 1e-6", "_S_EDGE = 1e-5",
           "bracket ends 10x further from 0 and 1: an edge pair reports s* = 1 - 1e-5"),
    Mutant(DIVERGENCE, "S_TOL = 1e-7", "S_TOL = 1e-6",
           "default final bracket 10x wider: the searches take fewer evaluations"),
    Mutant(DIVERGENCE, "mean1 if n == 1 else mean0", "mean1",
           "the boundary writes back each state's own means: a two-mode pair with "
           "unequal means is accepted"),
    Mutant(TRANSMITTERS, "[0.0, a, 0.0, neg]", "[0.0, a, 0.0, c]",
           "the writer puts +c at [1][3]: every tmss pair's p-p correlation has the wrong sign"),
    Mutant(DIVERGENCE, "    if log_q_half >= 0.0:\n        return 0.5\n", "",
           "no Bhattacharyya guard: a pair whose log Q_1/2 rounds above 0 bounds the "
           "error above 1/2"),
    Mutant(DIVERGENCE, "if not np.isfinite(joined).all():", "if False:",
           "a sweep's parameters are not checked: moments that overflowed from a finite "
           "N_S reach the closed form"),
    Mutant(DIVERGENCE, "MAX_ITER = 200", "MAX_ITER = 30",
           "search budget 30 steps; survives, equivalent on the tested domain: on a seeded "
           "24,000-pair set (4 kinds x 2 models, kappa 1e-12 to 0.999999, N_S 1e-8 to 1e4, "
           "N_B 0 or 1e-8 to 1e6) no pair takes more than 28 steps"),
    Mutant(HIGHPREC, "DPS = 60", "DPS = 30",
           "mpmath at 30 digits: log Q_s misses its pinned 50-digit values"),
    Mutant(DIVERGENCE, "half = log_q_half < log_q_star\n", "half = log_q_half < log_q_star + 1e-15\n",
           "the Bhattacharyya fallback taken 1e-15 early: a pair reports log Q_1/2 above the "
           "lowest value its search saw"),
    Mutant(DIVERGENCE, "half = log_q_half < log_q_star\n", "half = log_q_half < log_q_star - 1e-15\n",
           "the Bhattacharyya fallback taken 1e-15 late: a search point above log Q_1/2 is "
           "reported"),
    Mutant(DIVERGENCE, "np.where(gap == 0.0, 1.0, log_ratio)", "log_ratio",
           "no finite stand-in for L at pure modes: inf * 0 makes every derivative there nan"),
    Mutant(DIVERGENCE, "len(rows) == len(self.modes)", "False",
           "take copies the full stack instead of returning it; survives, equivalent: the "
           "same numbers, one extra copy per full-stack pass"),
    Mutant(TARGET, "_standard_form(self.mean1, self.variances1)",
           "_standard_form(self.mean0, self.variances0)",
           "the pair's rho1 written from rho0's parameters"),
    Mutant(TARGET, "rho0 = cached_property(", "rho0 = property(",
           "rho0 written afresh on every read: q_s_general's geometry cache, keyed on the "
           "states, misses on every call"),
    Mutant(TARGET, "rho1 = cached_property(", "rho1 = property(",
           "rho1 written afresh on every read"),
    Mutant(DIVERGENCE, "d[:, 0] ** 2 / total_a + d[:, 1] ** 2 / total_b",
           "d[:, 0] ** 2 / total_b + d[:, 1] ** 2 / total_a",
           "fidelity's two sector sums swapped: a displacement in q is weighed by the p "
           "variances; make_pair's displaced probes are isotropic, so only a squeezed "
           "displaced state shows it"),
    Mutant(HIGHPREC, "mp.extraprec(max(0, -mp.mag(y)))", "mp.extraprec(0)",
           "1 - e^y without its extra bits, so it cancels: log_q_half 1.6% off at "
           "N_B = 1e58, ZeroDivisionError from 1e62 on"),
    Mutant(SYMPLECTIC, "0.5 * cov + 0.5 * cov_t", "0.5 * (cov + cov_t)",
           "symmetrised after the sum, which overflows past 8.99e307"),
    Mutant(DIVERGENCE, "(mean == np.concatenate((mean0, mean1))).all(axis=-1)\n"
           "                    & (dense == cov).all(axis=(-2, -1))",
           "np.ones(len(cov), dtype=bool)",
           "the reader's write-back not compared: a rotated state is read as its diagonal"),
    Mutant(SWEEPS, "end = min(start + CHUNK_POINTS, total)",
           "end = min(start + CHUNK_POINTS + 1, total)",
           "chunk end off by one: the first point of each next chunk is written twice"),
    Mutant(SWEEPS, "plan.model), n_s, n_b, kappa,", "plan.model), n_s, kappa, kappa,",
           "a grid on the wrong axis: a row's n_b field taken from the kappa grid"),
    Mutant(SWEEPS, 'lead = ","', 'lead = ", "',
           "JSON chunks joined by \", \" where json.dump writes \",\": still valid JSON, "
           "but a multi-chunk sweep's bytes differ from one chunk's"),
    Mutant(SWEEPS, '"%.17g" % x', '"%.16g" % x',
           "CSV numbers to 16 significant digits: not every float reads back as itself"),
)


def matches(mutant: Mutant, root: str = ROOT) -> int:
    """How often the mutant's `old` text occurs in its file under `root`."""
    with open(os.path.join(root, mutant.file)) as fh:
        return fh.read().count(mutant.old)


def run(mutant: Mutant) -> tuple[str, str]:
    """Tier-1 on a mutated copy: ("killed" | "survived" | "timeout", first failure)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as work:
        tree = os.path.join(work, "tree")
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        path = os.path.join(tree, mutant.file)
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text.replace(mutant.old, mutant.new, 1))
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        env["PYTHONPATH"] = os.path.join(tree, "src")
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        # the catalogue's own test fails on any mutated copy, so it is left out
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
        try:
            proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout", f"no result within {TIMEOUT_S} s"
    if proc.returncode == 0:
        return "survived", ""
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return "killed", failed[0] if failed else proc.stdout.strip().splitlines()[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="print the catalogue only")
    parser.add_argument("index", nargs="*", type=int, help="catalogue entries to run")
    args = parser.parse_args(argv)
    picked = args.index or range(len(CATALOGUE))
    ok = True
    for k in picked:
        mutant = CATALOGUE[k]
        count = matches(mutant)
        ok &= count == 1
        head = f"[{k}] {mutant.file}: {mutant.old!r} -> {mutant.new!r} ({mutant.note})"
        if count != 1 or args.list:
            print(head + ("" if count == 1 else f"  MATCHES {count} PLACES"), flush=True)
            continue
        start = time.monotonic()
        verdict, detail = run(mutant)
        print(f"{head}\n    {verdict} in {time.monotonic() - start:.0f} s"
              + (f": {detail}" if detail else ""), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
