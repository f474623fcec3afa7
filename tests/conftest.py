import pytest
from hypothesis import settings

from manna.instgen import fixtures

# Every property test draws the same examples on every run, with no time
# limit per example; each test sets only its own ``max_examples``.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def named_fixtures():
    return fixtures()
