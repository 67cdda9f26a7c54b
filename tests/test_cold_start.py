"""numpy is loaded only for the simplex integral.

Each case runs in a fresh interpreter, since this process may already
hold numpy, and reports whether numpy is in ``sys.modules`` at its end.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import forest_cycles

SRC = str(Path(forest_cycles.__file__).resolve().parent.parent)


def _numpy_loaded_after(body: str) -> bool:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{body}\nprint('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {"True": True, "False": False}[proc.stdout.splitlines()[-1]]


def _cli(argv, code=0) -> str:
    return f"from forest_cycles.cli import main\nassert main({argv!r}) == {code}"


EXACT_COMMANDS = [
    ["tau", "--m", "3"],
    ["phi", "--m", "3"],
    ["verify", "d2", "--count", "4"],
    ["verify", "leibniz", "--count", "4"],
    ["verify", "del2", "--m", "3"],
    ["verify", "chain-map", "--m", "3"],
    ["verify", "cancellation", "--m", "3"],
    ["verify", "admissibility", "--m", "3"],
    ["verify", "bounding"],
    ["eval", "series", "--x", "0.5"],
]


def test_package_import_leaves_numpy_unloaded():
    assert not _numpy_loaded_after("import forest_cycles")


@pytest.mark.parametrize("argv", EXACT_COMMANDS, ids=" ".join)
def test_exact_command_leaves_numpy_unloaded(argv):
    assert not _numpy_loaded_after(_cli(argv))


def test_refused_integral_leaves_numpy_unloaded():
    assert not _numpy_loaded_after(_cli(["eval", "integral", "--x", "0.5,0.25"], 2))


@pytest.mark.parametrize("body", [
    "from forest_cycles.numerics import simplex_integral\nsimplex_integral([2.0])",
    _cli(["verify", "numeric"]),
], ids=["simplex_integral", "verify numeric"])
def test_simplex_integral_loads_numpy(body):
    assert _numpy_loaded_after(body)
