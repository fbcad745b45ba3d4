"""Every demo runs to completion and prints its headline result."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# demo -> one line its output must contain
KEY_LINES = {
    "grim_trigger_values.py": "V(row 1, trigger 2) = 1",
    "machine_game_rationality.py": "grim rational vs certain row-1 opponent? False",
    "predictive_exploiter_audit.py": "sum of delta_i = 0.050000 <= 0.05",
    "switching_vs_commit.py": "estimated commit time tau = 301, gamma_hat = 0.0",
}


def test_every_demo_has_a_key_line():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(KEY_LINES)


@pytest.mark.parametrize("demo", sorted(KEY_LINES))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert KEY_LINES[demo] in proc.stdout.splitlines()
