"""Import footprint: each package loads only the submodules whose names
are used (``repro._lazy``), and each optional plane loads only where it
is switched on. The module sets are read in fresh interpreters."""

import importlib
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.hw",
    "repro.core",
    "repro.workloads",
    "repro.orchestration",
    "repro.server",
    "repro.obs",
    "repro.faults",
    "repro.cluster",
    "repro.experiments",
    "repro.analysis",
    "repro.serve",
]


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env=env,
    )


def loaded_after(code: str) -> set:
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    result = run_fresh(
        "-c",
        code + "\nimport sys\n"
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'repro'))",
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return set(result.stdout.split())


def within(modules: set, *roots: str) -> set:
    return {m for m in modules for r in roots if m == r or m.startswith(r + ".")}


def test_fault_free_server_loads_no_optional_plane():
    loaded = loaded_after(
        "from repro.server import SimulatedServer\n"
        "from repro.workloads import social_network_services\n"
        "server = SimulatedServer('accelflow', seed=0)\n"
        "spec = social_network_services()[0]\n"
        "server.env.run(until=server.submit(server.make_request(spec)))\n"
    )
    assert "repro.server.machine" in loaded
    assert not within(
        loaded,
        "repro.experiments",
        "repro.cluster",
        "repro.analysis",
        "repro.serve",
        "repro.faults.plane",
        "repro.faults.recovery",
        "repro.faults.campaign",
        "repro.sim.fluid",
        "repro.hw.placement",
    )
    assert within(loaded, "repro.obs") <= {
        "repro.obs", "repro.obs.config", "repro.obs.telemetry",
    }
    # make_orchestrator imports only the architecture it builds.
    assert within(loaded, "repro.orchestration") == {
        "repro.orchestration",
        "repro.orchestration.accelflow",
        "repro.orchestration.base",
    }


def test_campaign_scenarios_load_no_campaign_runner():
    # perfbench's chaos-fleet set-up reads SCENARIOS and nothing else.
    loaded = loaded_after("from repro.faults.campaign import SCENARIOS")
    assert not within(loaded, "repro.server", "repro.obs")


def test_one_experiment_loads_no_other():
    loaded = loaded_after("import repro.experiments.fig14_throughput")
    assert within(loaded, "repro.experiments") == {
        "repro.experiments",
        "repro.experiments.cache",
        "repro.experiments.common",
        "repro.experiments.fig14_throughput",
        "repro.experiments.parallel",
    }
    assert not within(loaded, "repro.cluster")


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError):
        getattr(module, "no_such_export")


def test_star_imports_in_a_fresh_interpreter():
    names = sorted(
        {name for p in PACKAGES for name in importlib.import_module(p).__all__}
    )
    code = "\n".join(f"from {package} import *" for package in PACKAGES)
    code += f"\nassert not [n for n in {names!r} if n not in globals()]"
    assert loaded_after(code) >= set(PACKAGES)


def test_dashboard_runs_as_main_without_a_double_import():
    result = run_fresh(
        "-W", "error::RuntimeWarning", "-m", "repro.obs.dashboard", "--help"
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "found in sys.modules" not in result.stderr


def test_duplicate_experiment_id_raises_on_first_access():
    result = run_fresh(
        "-c",
        "import repro.experiments as e\n"
        "e._SOURCES += e._SOURCES[:1]\n"
        "e.EXPERIMENTS\n",
    )
    assert result.returncode != 0
    assert "duplicate experiment id" in result.stderr
