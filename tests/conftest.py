"""Test-session options.

``--router reference`` runs the whole session with every production
``route_edge`` call routed by the interpreted oracle
(:func:`mrrg_helpers.reference_router`); the identity suites must pass
unedited under both routers.
"""

import pytest

from mrrg_helpers import reference_router


def pytest_addoption(parser):
    parser.addoption("--router", choices=("compiled", "reference"),
                     default="compiled",
                     help="router behind route_edge for the whole session "
                          "(default: compiled)")


@pytest.fixture(scope="session", autouse=True)
def _session_router(request):
    if request.config.getoption("--router") == "reference":
        with reference_router():
            yield
    else:
        yield
