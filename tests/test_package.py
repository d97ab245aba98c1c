"""The package surface: exported names and the pure-stdlib runtime."""

import subprocess
import sys
import types
from pathlib import Path

import ribboncalc

LOADED = ("import sys; sys.path.insert(0, sys.argv[1]); "
          "before = set(sys.modules); import ribboncalc; "
          "print('\\n'.join(sorted(set(sys.modules) - before)))")


def test_import_loads_only_stdlib_modules():
    root = str(Path(ribboncalc.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-I", "-B", "-c", LOADED, root],
                          capture_output=True, text=True, check=True)
    loaded = {name.split(".")[0] for name in proc.stdout.split()}
    assert "ribboncalc" in loaded
    assert sorted(loaded - {"ribboncalc"} - sys.stdlib_module_names) == []


def test_all_lists_public_names_not_submodules():
    assert len(set(ribboncalc.__all__)) == len(ribboncalc.__all__)
    for name in ribboncalc.__all__:
        assert not isinstance(getattr(ribboncalc, name), types.ModuleType)
    assert {"KirbyDiagram", "run_script", "verify_plan"} <= set(
        ribboncalc.__all__)
