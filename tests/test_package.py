"""The package's public namespace."""

import reillylab


def test_public_names_resolve():
    missing = [name for name in reillylab.__all__
               if not hasattr(reillylab, name)]
    assert missing == []
