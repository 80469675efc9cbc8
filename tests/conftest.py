"""Session options shared by every suite."""

from repro.delaunay import cavity


def pytest_addoption(parser):
    parser.addoption(
        "--insert-strategy", choices=cavity.available_strategies(),
        default=None,
        help="run the session with this cavity-engine insertion strategy "
        "as the default (CI drives the Delaunay suites through 'batch' "
        "this way; generate_mesh inserts no points in bulk)")


def pytest_configure(config):
    name = config.getoption("--insert-strategy")
    if name is not None:
        # get_strategy(None) reads the constant at call time, and pool
        # workers fork from this process, so every default-strategy
        # call of the session follows.
        cavity.DEFAULT_STRATEGY = name
