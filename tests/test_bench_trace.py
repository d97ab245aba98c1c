"""The traced benchmark runs clean on the library.

The tracer wraps every public function of the layer modules, and its
per-layer metrics read an ``abelian.*`` call's first argument as a matrix;
a public helper with another signature makes the traced run fail.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_script_replay_runs_clean():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         "script_replay", "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    # The run's report keeps every span with its parent's index.  Memo hits
    # in run_script skip kernel calls, but both kernel chains must remain.
    report = json.loads((ROOT / ".bench_out" /
                         "script_replay-seed1-trace1.json").read_text())
    spans = report["spans"]
    edges = {(spans[s[3]][0], s[0]) for s in spans if s[3] >= 0}
    for chain in (("diagram.signature", "abelian.symmetric_signature"),
                  ("abelian.cokernel", "abelian.smith_invariants")):
        assert chain in edges, chain


def test_traced_tree_unroll_runs_clean():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         "tree_unroll", "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    # Every SignedTree is validated on construction: by the parser and by
    # truncate, through the module-level validate_tree.
    report = json.loads((ROOT / ".bench_out" /
                         "tree_unroll-seed1-trace1.json").read_text())
    spans = report["spans"]
    edges = {(spans[s[3]][0], s[0]) for s in spans if s[3] >= 0}
    for chain in (("textio.parse_tree", "trees.validate_tree"),
                  ("trees.truncate", "trees.validate_tree")):
        assert chain in edges, chain
