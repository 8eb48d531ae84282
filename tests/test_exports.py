"""The package's public surface: every exported name resolves."""

import fdilab


def test_star_import_and_every_exported_name_resolves():
    namespace = {}
    exec("from fdilab import *", namespace)
    missing = [name for name in fdilab.__all__ if not hasattr(fdilab, name)]
    assert missing == []
    assert set(fdilab.__all__) <= set(namespace)
    assert len(set(fdilab.__all__)) == len(fdilab.__all__)
