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
    # scipy is needed only by the Fock oracle's beamsplitter and by
    # random_symplectic, which import it when they run.
    code = (
        "import sys, gaussqi, gaussqi.cli\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "sys.exit(', '.join(loaded) or None)"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
