from __future__ import annotations

import numpy as np
import pytest

from polyres.generate import SearchConfig, generate_plan
from polyres.problems import get


def unit_normal_instance(system, rng):
    return {s: float(rng.standard_normal()) for s in system.slots()}


@pytest.fixture(scope="session")
def univariate_linear_plan():
    return generate_plan(get("univariate_linear").system, SearchConfig(seed=1)).plan


@pytest.fixture(scope="session")
def univariate_quadratic_plan():
    return generate_plan(get("univariate_quadratic").system, SearchConfig(seed=1)).plan


@pytest.fixture(scope="session")
def two_conics_outcome():
    return generate_plan(get("two_conics").system, SearchConfig(seed=1, variants=("v1",)))


@pytest.fixture(scope="session")
def two_conics_plan(two_conics_outcome):
    return two_conics_outcome.plan


@pytest.fixture(scope="session")
def two_conics_plan_v2():
    return generate_plan(get("two_conics").system, SearchConfig(seed=1, variants=("v2",))).plan


@pytest.fixture(scope="session")
def three_quadrics_outcome():
    return generate_plan(get("three_quadrics").system, SearchConfig(seed=1, variants=("v1",)))


@pytest.fixture(scope="session")
def three_quadrics_plan(three_quadrics_outcome):
    return three_quadrics_outcome.plan


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
