"""Start-up cost guard: no runtime module imports scipy at module level.

Importing scipy costs every process (CLI supervisor, worker agent,
``report``) about 0.7 s and 66 MB before it does any work, and pool
workers and lease children inherit the bloated image.  Only section
5.2's chi-squared test needs scipy, and it imports it on first use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Every process entry point the program starts.
ENTRY_MODULES = (
    "repro.engine",
    "repro.engine.worker",
    "repro.experiments.__main__",
    "repro.obs.report",
)


def test_entry_points_do_not_import_scipy():
    probe = (
        "import importlib, json, sys\n"
        f"for name in {ENTRY_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == []
