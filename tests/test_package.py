import sparing


def test_star_import_gives_every_exported_name_once():
    namespace = {}
    exec("from sparing import *", namespace)  # raises AttributeError on a stale name
    exported = sparing.__all__
    assert len(set(exported)) == len(exported)
    assert all(namespace[name] is getattr(sparing, name) for name in exported)
