"""The package's public namespace and its import cost."""

import os
import subprocess
import sys
from pathlib import Path

import reillylab


def test_public_names_resolve():
    missing = [name for name in reillylab.__all__
               if not hasattr(reillylab, name)]
    assert missing == []


def test_cli_import_leaves_scipy_unloaded():
    # `reillylab balance` needs no scipy; its process should not pay for
    # importing it
    src = str(Path(reillylab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, reillylab.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
