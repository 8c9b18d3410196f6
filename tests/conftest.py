import importlib.util

import pytest

from commitfsm import bft, engine, render
from reference import raw_machine


@pytest.fixture(scope="session")
def params4():
    return bft.BftParameters.for_replication_factor(4)


@pytest.fixture(scope="session")
def raw4():
    return raw_machine(4)


@pytest.fixture(scope="session")
def pruned4(raw4):
    return engine.prune_unreachable(raw4)


@pytest.fixture(scope="session")
def final4():
    return bft.generate(4)


@pytest.fixture(scope="session")
def final7():
    return bft.generate(7)


def import_generated(machine, directory, module_name="commit_machine", **kwargs):
    """Render a machine as source, write it under `directory` and import it."""
    path = directory / f"{module_name}.py"
    path.write_text(render.render_source(machine, module_name=module_name, **kwargs))
    spec = importlib.util.spec_from_file_location(module_name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def generated4(final4, tmp_path_factory):
    return import_generated(final4, tmp_path_factory.mktemp("gen"))
