"""The package's export list matches what it binds."""

import types

import thirdkind


def test_all_matches_public_bindings():
    public = {
        name
        for name, value in vars(thirdkind).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(thirdkind.__all__) == public
    assert len(thirdkind.__all__) == len(set(thirdkind.__all__))


def test_every_export_resolves():
    for name in thirdkind.__all__:
        assert getattr(thirdkind, name) is not None, name
