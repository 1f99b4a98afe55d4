"""The package's export list matches what the package defines."""

import ionread


def test_all_names_resolve_once():
    assert len(ionread.__all__) == len(set(ionread.__all__))
    missing = [name for name in ionread.__all__ if not hasattr(ionread, name)]
    assert missing == []
