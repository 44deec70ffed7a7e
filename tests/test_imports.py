"""Import cost: only the stationary solver loads scipy.integrate and
scipy.optimize, and it loads them on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import json, sys
lazy = ["scipy.integrate", "scipy.optimize"]
import chdbc.cli
before = [m for m in lazy if m in sys.modules]
rc = chdbc.cli.main(["stationary", "--potential", "logarithmic", "--K", "1.0",
                     "--outdir", sys.argv[1]])
after = [m for m in lazy if m in sys.modules]
print(json.dumps({"before": before, "rc": rc, "after": after}))
"""


def test_stationary_alone_loads_integrate_and_optimize(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path / "st")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    *printed, last = proc.stdout.splitlines()
    out = json.loads(last)
    assert out["before"] == []  # import chdbc.cli leaves them unloaded
    assert out["rc"] == 0
    assert "classification: Classical" in printed
    assert out["after"] == ["scipy.integrate", "scipy.optimize"]
