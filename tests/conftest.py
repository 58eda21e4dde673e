"""Shared fixtures: tiny synthetic workloads so the suite stays fast."""

from __future__ import annotations

import pytest

from repro.workloads import get_profile, generate_trace, synthesize_program
from repro.workloads.profiles import WorkloadProfile


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
