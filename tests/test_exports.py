"""Every name a package exports resolves."""

import pytest

import restate
import restate.model


@pytest.mark.parametrize("package", [restate, restate.model],
                         ids=lambda p: p.__name__)
def test_all_names_resolve(package):
    missing = [n for n in package.__all__ if not hasattr(package, n)]
    assert missing == []
