"""A market round imports no scipy: only storage_policy.offline_optimal's
b3 baseline loads it, lazily. Loading a case imports no importlib.metadata:
only writing a report bundle reads package versions. Importing the package
imports no importlib.resources: only a bundled case name looks it up."""

from __future__ import annotations

import os
import site
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

def new_since(before, package):
    return sorted(m for m in set(sys.modules) - before
                  if m == package or m.startswith(package + "."))

before = set(sys.modules)
import carbomarket

imported = new_since(before, "importlib.resources")
if imported:
    sys.exit(f"importing carbomarket imported {imported}")
carbomarket.load_case("replica30")
loaded = new_since(before, "importlib.metadata")
if loaded:
    sys.exit(f"loading a case imported {loaded}")
"""


def _run_fresh(script: str, no_site: bool = False) -> subprocess.CompletedProcess:
    """``script`` in a new interpreter with this ``src/`` first on the path.
    ``no_site`` starts it with ``-S`` and puts the site-packages on the path
    itself, so that no site ``.pth`` file imports modules before the script
    looks."""
    paths = [str(Path(carbomarket.__file__).resolve().parents[1])]
    paths += site.getsitepackages() if no_site else []
    paths += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    flags = ["-S"] if no_site else []
    return subprocess.run([sys.executable, *flags, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_and_single_period_commands_load_no_scipy():
    proc = _run_fresh(SCRIPT)
    assert proc.returncode == 0, proc.stderr


def test_import_and_case_load_leave_importlib_metadata_unloaded():
    proc = _run_fresh(LOAD_SCRIPT, no_site=True)
    assert proc.returncode == 0, proc.stderr
