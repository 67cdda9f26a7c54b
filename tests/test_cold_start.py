"""The package loads what it needs when it needs it.

numpy is loaded only for the simplex integral, ``importlib.resources``
and ``json`` only to load a fixture or by the CLI, ``serialize`` only by
the CLI; neither ``dataclasses`` nor ``inspect`` is ever loaded.  Each
case runs in a fresh interpreter, since this process may already hold
these modules, and reports which of ``WATCHED`` are in ``sys.modules``
at its end.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import forest_cycles

SRC = str(Path(forest_cycles.__file__).resolve().parent.parent)
WATCHED = ("numpy", "dataclasses", "inspect", "importlib.resources", "json",
           "forest_cycles.serialize")
NEVER = {"dataclasses", "inspect"}
IO = {"json", "forest_cycles.serialize"}


@functools.lru_cache(maxsize=None)
def _loaded_after(body: str, *flags: str) -> frozenset:
    """The modules of ``WATCHED`` loaded after ``body``, run by an
    interpreter given ``flags``; a body is run once per test session."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    report = f"print('loaded', *[m for m in {WATCHED!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, *flags, "-c", f"import sys\n{body}\n{report}"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return frozenset(proc.stdout.splitlines()[-1].split()[1:])


def _numpy_loaded_after(body: str) -> bool:
    return "numpy" in _loaded_after(body)


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


def test_package_import_leaves_dataclasses_and_inspect_unloaded():
    assert not _loaded_after("import forest_cycles") & NEVER


@pytest.mark.parametrize("argv", EXACT_COMMANDS, ids=" ".join)
def test_exact_command_leaves_dataclasses_and_inspect_unloaded(argv):
    assert not _loaded_after(_cli(argv)) & NEVER


def test_bare_package_import_leaves_importlib_resources_unloaded():
    # -S: without site, which may import importlib.resources first
    assert "importlib.resources" not in _loaded_after("import forest_cycles", "-S")
    assert "importlib.resources" in _loaded_after(
        "from forest_cycles import load_fixture\nload_fixture('double_log')", "-S")


def test_package_import_leaves_json_and_serialize_unloaded():
    assert not _loaded_after("import forest_cycles") & IO


def test_fixture_load_from_a_cold_import_bounds_its_target():
    loaded = _loaded_after("from forest_cycles import load_fixture, verify_bounding\n"
                           "chain, target, _ = load_fixture('triple_log')\n"
                           "assert verify_bounding(chain, target).passed")
    # the file gives only metadata: the chain and target are built, not parsed
    assert "json" in loaded and "forest_cycles.serialize" not in loaded


def test_tracer_installs_after_the_bare_package_import():
    # bench/tracing.py reads each module it wraps from sys.modules, so the
    # package import must load every one of them
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    _loaded_after(f"sys.path.insert(0, {bench!r})\nimport forest_cycles\nimport tracing\n"
                  "tracer = tracing.Tracer()\ntracer.install()\nassert tracer._swapped\n"
                  "tracer.remove()")
