"""The package's public names: ``__all__`` lists each once, and each resolves."""

import storagecodes


def test_all_lists_each_public_name_once_and_each_resolves():
    names = storagecodes.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    assert [n for n in names if not hasattr(storagecodes, n)] == []
