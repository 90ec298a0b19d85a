import pytest

import mksurf.quadforms


@pytest.fixture(autouse=True)
def clear_quadforms_memos():
    """Each test starts with both quadforms memos empty, so no test reads a
    profile or a factorization that an earlier one left, perhaps under a
    monkeypatched kernel."""
    mksurf.quadforms._factors.cache_clear()
    mksurf.quadforms.hasse_profile.cache_clear()
