"""The package imports on exactly what ``pyproject.toml`` declares: nothing.

CI installs only pytest and hypothesis, so a stray third-party import in
any ``repro`` module breaks ``import repro`` there.  The check runs in a
subprocess with numpy blocked (``sys.modules["numpy"] = None`` makes any
``import numpy`` raise), and walks every submodule so lazily imported ones
are covered too.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import sys
sys.modules["numpy"] = None
import pkgutil
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if not module.name.endswith("__main__"):
        __import__(module.name)
print("ok")
"""


def test_every_module_imports_without_numpy():
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    result = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
