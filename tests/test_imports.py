"""A market round imports no scipy: only storage_policy.offline_optimal's
b3 baseline loads it, lazily."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import carbomarket

SCRIPT = """
import sys

import carbomarket
from carbomarket.cli_io import EXIT_OK, main

for command in ("clear", "allocate", "cef"):
    assert main([command, "--case", "replica30", "--period", "17"]) == EXIT_OK, command
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
if loaded:
    sys.exit(f"scipy modules loaded: {loaded}")
"""


def test_import_and_single_period_commands_load_no_scipy():
    src = str(Path(carbomarket.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
