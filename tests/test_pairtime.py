"""tools/pairtime.py times two checkouts side by side in one process."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_round_of_ribbon_plan_against_itself():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pairtime.py"), str(ROOT),
         str(ROOT), "--workload", "ribbon_plan", "--rounds", "1", "--json"],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert out["workload"] == "ribbon_plan" and out["rounds"] == 1
    assert out["ops_per_round"] == 12
    for name in ("ops_per_s", "op_p50_ms", "op_p90_ms"):
        assert out[name]["a_median"] > 0 and out[name]["b_median"] > 0
        assert out[name]["b_wins"] in ("0/1", "1/1")
    assert len(out["a_rounds"]) == len(out["b_rounds"]) == 1
