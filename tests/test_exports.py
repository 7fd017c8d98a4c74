"""The package's public names."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubemix


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from cubemix import *", namespace)
    assert [name for name in cubemix.__all__ if name not in namespace] == []
    assert len(set(cubemix.__all__)) == len(cubemix.__all__)


def test_bare_import_loads_no_submodule():
    script = (
        "import sys\n"
        "import cubemix\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('cubemix.'))\n"
        "cubemix.exactdist\n"
        "print(*loaded, 'cubemix.exactdist' in sys.modules)\n"
    )
    src = str(Path(cubemix.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    # nothing loaded by the bare import; the submodule resolves on first use
    assert proc.stdout.split() == ["True"]


def test_every_export_is_its_defining_modules_object():
    for name in cubemix.__all__:
        defining = getattr(cubemix, cubemix._MODULE_OF[name])
        obj = getattr(cubemix, name)
        assert obj is vars(defining)[name], name
        # defined there, not re-exported from another module
        assert getattr(obj, "__module__", defining.__name__) == defining.__name__, name


def test_exports_are_read_from_the_module_on_every_access(monkeypatch):
    # a name patched in its module is seen through the package too
    def patched():
        pass

    monkeypatch.setattr(cubemix.exactdist, "evolve", patched)
    assert cubemix.evolve is patched


def test_dir_covers_all():
    assert set(cubemix.__all__) <= set(dir(cubemix))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cubemix.no_such_name
    assert not hasattr(cubemix, "binom")
