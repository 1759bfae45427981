import pytest

from mtspkit import load_bundled


def pytest_addoption(parser):
    parser.addoption(
        "--long",
        action="store_true",
        default=False,
        help="run the long-running reproduction suite",
    )


@pytest.fixture(scope="session")
def long_enabled(request):
    if not request.config.getoption("--long"):
        pytest.skip("pass --long to run the long reproduction suite")
    return True


@pytest.fixture(scope="session")
def garn9():
    return load_bundled("garn9")


@pytest.fixture(scope="session")
def eil51():
    return load_bundled("eil51")
