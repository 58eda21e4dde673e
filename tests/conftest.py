"""Shared fixtures: tiny synthetic workloads so the suite stays fast.

Also home of the ``--backend`` test option: tests that take the
``sim_backend`` fixture run once per registered simulation backend
(:mod:`repro.backends`), and CI's backend-parity matrix legs narrow the
parameterization with e.g. ``pytest --backend reference``.
"""

from __future__ import annotations

import pytest

from repro.workloads import get_profile, generate_trace, synthesize_program
from repro.workloads.profiles import WorkloadProfile


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--backend",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict the sim_backend fixture to these simulation backends; "
             "repeatable (default: every backend in "
             "repro.backends.BACKEND_REGISTRY)",
    )


def pytest_generate_tests(metafunc: pytest.Metafunc) -> None:
    if "sim_backend" in metafunc.fixturenames:
        from repro.backends import backend_names, get_backend

        selected = metafunc.config.getoption("backend") or backend_names()
        for name in selected:
            get_backend(name)  # unknown names fail collection
        metafunc.parametrize("sim_backend", selected)


@pytest.fixture(scope="session")
def tiny_profile() -> WorkloadProfile:
    """A heavily scaled-down OLTP profile for unit/integration tests."""
    return get_profile("oltp_db2").scaled(0.08)


@pytest.fixture(scope="session")
def tiny_program(tiny_profile):
    return synthesize_program(tiny_profile)


@pytest.fixture(scope="session")
def tiny_trace(tiny_program):
    return generate_trace(tiny_program, 30_000, seed=3)


@pytest.fixture(scope="session")
def small_program():
    """A slightly larger workload for integration-style checks."""
    profile = get_profile("web_frontend").scaled(0.3)
    return synthesize_program(profile)


@pytest.fixture(scope="session")
def small_trace(small_program):
    return generate_trace(small_program, 150_000, seed=5)
