"""Package surfaces are lazy: a process loads only the code it runs.

Package ``__init__`` modules import no submodule; each public name is
imported on first access (:mod:`repro._lazy`).  So the campaign engine
and the sweep executor load no presets, server or dashboards, the
read-only ``repro campaign status`` loads no simulator, and every name
a package lists in ``__all__`` still resolves.
"""

import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Modules neither the campaign engine nor the executor may load.
NOT_AT_IMPORT = ("http.server", "repro.campaign.server",
                 "repro.campaign.status", "repro.harness.presets",
                 "repro.harness.aggregate", "repro.obs.campaign",
                 "repro.verify", "repro.trace")

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg)


def loaded_modules(code: str, then: str = "") -> list:
    """Names of the modules a fresh interpreter holds after ``code``;
    with ``then``, only those that running ``then`` afterwards adds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    held = "set(sys.modules)" if then else "set()"
    script = (f"{code}\nimport json, sys\nheld = {held}\n{then}\n"
              "print(json.dumps(sorted(set(sys.modules) - held)))")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def offending(modules, prefixes):
    return [name for name in modules
            if any(name == p or name.startswith(p + ".") for p in prefixes)]


@pytest.mark.parametrize("module", ["repro.campaign.engine",
                                    "repro.harness.executor"])
def test_engine_and_executor_load_no_presets_server_or_dashboards(module):
    assert offending(loaded_modules(f"import {module}"), NOT_AT_IMPORT) == []


def test_campaign_status_loads_no_simulator(tmp_path):
    from repro.campaign import Campaign
    from repro.harness.spec import Sweep

    sweep = Sweep("demo")
    sweep.add("window", runahead="none", sled=8, config_base="small")
    Campaign.create(tmp_path / "camp", [sweep])
    modules = loaded_modules(
        "import contextlib, io\n"
        "from repro.__main__ import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['campaign', 'status', {str(tmp_path / 'camp')!r}])"
        " == 0\n")
    assert offending(modules, ("repro.pipeline",)) == []


def test_running_a_trial_imports_nothing():
    """What a trial runs is loaded by the time its trial is built, so no
    timed trial and no forked campaign worker pays for an import."""
    modules = loaded_modules(
        "from repro.harness.runner import run_trial\n"
        "from repro.harness.spec import Trial\n"
        "trials = [Trial('verify', {'target': 'gen:spec:3'}),\n"
        "          Trial('extract', {'secret': 'A', 'cores': 2,\n"
        "                            'trials': 1}),\n"
        "          Trial('window', {'sled': 8, 'config_base': 'small'})]\n",
        then="for trial in trials:\n    run_trial(trial)\n")
    assert modules == []


def test_a_package_import_loads_no_submodule():
    modules = loaded_modules("import " + ", ".join(PACKAGES))
    assert [name for name in modules if name.startswith("repro.")
            and name not in PACKAGES and name != "repro._lazy"] == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves(package):
    module = importlib.import_module(package)
    assert module.__all__
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    assert set(module.__all__) <= set(dir(module))


def test_unknown_name_raises_attribute_error():
    import repro.harness
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        repro.harness.nonesuch
    with pytest.raises(ImportError):
        from repro.harness import nonesuch  # noqa: F401
