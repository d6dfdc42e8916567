"""Run the demos end to end as scripts, and import the package in a fresh
interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = [
    "01_states_and_targets.py",
    "02_detection_without_illumination.py",
    "03_squeezing_can_hurt.py",
    "04_entanglement_advantage_limits.py",
    "05_fock_oracle_crosscheck.py",
]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs(name, tmp_path):
    env = _env()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_scipy(tmp_path):
    # scipy is needed only by random_symplectic, which imports it when it
    # runs; the second routes are imported only by those who check against
    # them, and the Fock oracle runs on numpy alone.  mpmath comes with
    # highprec, which only the verify checks and the limit study load.
    code = (
        "import sys, gaussqi, gaussqi.cli\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')\n"
        "                or m in ('gaussqi.reference', 'gaussqi.fock_oracle',\n"
        "                         'gaussqi.highprec'))\n"
        "if loaded: sys.exit(', '.join(loaded))\n"
        "from gaussqi.fock_oracle import choose_cutoff, hypothesis_pair_fock, q_s_fock\n"
        "spec, cfg = gaussqi.tmss(0.3), gaussqi.TargetConfig(kappa=0.2, n_b=0.3)\n"
        "q_s_fock(*hypothesis_pair_fock(spec, cfg, 10), 0.5)\n"
        "choose_cutoff(gaussqi.coherent(0.3), cfg)\n"
        "sys.exit(', '.join(m for m in sys.modules if m.split('.')[0] == 'scipy') or None)"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
