import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
        )
    yield ray
    ray.shutdown()


@pytest.fixture
def reference_fixtures():
    """The reference test-pages directory; skips the test when absent."""
    from smartreader_ray.sources import FIXTURE_DIR

    if not os.path.isdir(FIXTURE_DIR):
        pytest.skip(f"reference fixtures absent: {FIXTURE_DIR}")
    return FIXTURE_DIR
