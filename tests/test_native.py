"""Engine selection without the generated-C ``native`` backend.

The routing and simulation engine registries are ``compiled`` and
``reference`` (plus ``numpy`` for simulation).  ``native`` is no longer
an engine: a stale ``REPRO_ROUTING_ENGINE=native`` or
``REPRO_SIM_ENGINE=native`` must surface the same structured
``ConfigError`` naming the valid choices as any other invalid value —
never a silent fallback — and a leftover ``<store>/native/`` artifact
directory must be ignored, untouched, by ``repro cache stats``/``gc``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.errors import ReproError
from repro.eval.harness import simulate_kernel
from repro.mapping.routecore import set_routing_engine
from repro.sim import set_simulation_engine

ENV = {"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}

_SIM_ENV_PROBE = """
from repro.errors import ConfigError
from repro.sim.engine import resolve_engine
try:
    resolve_engine(None)
except ConfigError as error:
    print(f"ConfigError: {error}")
"""

_ROUTE_ENV_PROBE = """
from repro.errors import ConfigError
from repro.mapping import routecore
try:
    routecore.active_engine()
except ConfigError as error:
    print(f"ConfigError: {error}")
"""

ENV_PROBES = [
    ("REPRO_SIM_ENGINE", _SIM_ENV_PROBE),
    ("REPRO_ROUTING_ENGINE", _ROUTE_ENV_PROBE),
]


def _probe_env(var, probe, value):
    env = dict(os.environ, **ENV)
    env[var] = value
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert out.startswith("ConfigError:")
    assert f"{var}={value!r}" in out
    assert "compiled" in out and "reference" in out
    if var == "REPRO_SIM_ENGINE":
        assert "numpy" in out
    return out


# ---------------------------------------------------------------------------
# Environment validation: one structured error, not a deep traceback
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("var,probe", ENV_PROBES)
def test_invalid_engine_env_is_structured_error(var, probe):
    out = _probe_env(var, probe, "warp-drive")
    assert "native" not in out


@pytest.mark.parametrize("var,probe", ENV_PROBES)
def test_stale_native_engine_env_is_structured_error(var, probe):
    _probe_env(var, probe, "native")


def test_native_engine_knob_round_trip():
    """The runtime setters refuse ``native`` and keep the active engine;
    a valid selection round-trips through the returned previous value."""
    for setter, valid in ((set_simulation_engine, "numpy"),
                          (set_routing_engine, "reference")):
        previous = setter(valid)
        try:
            with pytest.raises(ValueError, match="unknown .* engine"):
                setter("native")
            assert setter(valid) == valid       # still the valid choice
        finally:
            assert setter(previous) == valid


def test_harness_rejects_unknown_engine():
    for engine in ("warp", "native"):
        with pytest.raises(ReproError, match="unknown simulation engine"):
            simulate_kernel("dwconv", "plaid", engine=engine)


# ---------------------------------------------------------------------------
# CLI surfaces
# ---------------------------------------------------------------------------
def test_cli_engines_lists_and_marks_active(capsys):
    assert cli_main(["engines"]) == 0
    out = capsys.readouterr().out
    assert "routing engines" in out and "simulation engines" in out
    assert "* compiled" in out and "numpy" in out and "reference" in out
    assert "native" not in out


def test_cache_stats_and_gc_cover_native(tmp_path, capsys):
    """A leftover ``native/`` artifact directory is neither counted nor
    pruned: stats and gc see only the store's own entries."""
    store = tmp_path / "store"
    native = store / "native"
    native.mkdir(parents=True)
    names = ["route-v1-aabbccdd00112233.c", "route-v1-aabbccdd00112233.so",
             "route-v1-aa.lock", ".tmp-sim-v1-bb-99.so"]
    for name in names:
        (native / name).write_text("artifact")

    from repro.eval.distributed import gc_store, inventory

    inv = inventory(store)
    assert inv.entries == 0 and inv.temp_files == 0
    assert inv.total_bytes == 0

    report = gc_store(store)
    assert report.removed == 0 and report.kept == 0
    assert sorted(p.name for p in native.iterdir()) == sorted(names)

    assert cli_main(["cache", "stats", str(store)]) == 0
    assert "native" not in capsys.readouterr().out.replace(str(store), "")
    assert cli_main(["cache", "gc", str(store)]) == 0
    assert "removed 0" in capsys.readouterr().out
    assert sorted(p.name for p in native.iterdir()) == sorted(names)
