"""Shared test configuration: a deterministic hypothesis profile and a
once-per-session warm-up of the arc engine's certified tables and witness
library, so the first test that touches the engine does not pay (or time)
either build."""

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session", autouse=True)
def _warm_engine():
    from lanternbook.engine import get_model

    get_model().ensure_library()
