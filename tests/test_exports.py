"""The package's public names."""

import dtalloc


def test_all_names_resolve_without_duplicates():
    names = dtalloc.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(dtalloc, name)]
    assert missing == []
