import drcopt


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from drcopt import *", namespace)
    assert len(set(drcopt.__all__)) == len(drcopt.__all__)
    assert all(name in namespace for name in drcopt.__all__)
