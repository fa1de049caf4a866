"""A market round imports no scipy: only storage_policy.offline_optimal's
b3 baseline loads it, lazily. Loading a case imports no importlib.metadata:
only writing a report bundle reads package versions."""

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


LOAD_SCRIPT = """
import sys

before = set(sys.modules)
import carbomarket

carbomarket.load_case("replica30")
loaded = sorted(m for m in set(sys.modules) - before
                if m == "importlib.metadata" or m.startswith("importlib.metadata."))
if loaded:
    sys.exit(f"loading a case imported {loaded}")
"""


def _run_fresh(script: str) -> subprocess.CompletedProcess:
    src = str(Path(carbomarket.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)


def test_import_and_single_period_commands_load_no_scipy():
    proc = _run_fresh(SCRIPT)
    assert proc.returncode == 0, proc.stderr


def test_import_and_case_load_leave_importlib_metadata_unloaded():
    proc = _run_fresh(LOAD_SCRIPT)
    assert proc.returncode == 0, proc.stderr
