"""The package's public names: every name in ``__all__`` resolves, and a star
import binds exactly those names."""

import omnirate


def test_every_public_name_resolves():
    assert len(set(omnirate.__all__)) == len(omnirate.__all__)
    assert [name for name in omnirate.__all__ if not hasattr(omnirate, name)] == []


def test_star_import_binds_the_public_names():
    namespace: dict = {}
    exec("from omnirate import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(omnirate.__all__)
