import types

import rydmis


def test_all_names_resolve():
    missing = [name for name in rydmis.__all__ if not hasattr(rydmis, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(rydmis.__all__) == len(set(rydmis.__all__))


def test_every_public_attribute_is_exported():
    public = {name for name, value in vars(rydmis).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public - set(rydmis.__all__) == set()
