"""The package's public names."""

import cubemix


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from cubemix import *", namespace)
    assert [name for name in cubemix.__all__ if name not in namespace] == []
    assert len(set(cubemix.__all__)) == len(cubemix.__all__)
