import pytest

from gproj.rings import FreeModuleGB


@pytest.fixture
def count_bases(monkeypatch):
    """count_bases(fn, *args) -> (fn(*args), module Groebner bases it built)."""
    builds = []
    init = FreeModuleGB.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FreeModuleGB, "__init__", counting_init)

    def count(fn, *args):
        before = len(builds)
        result = fn(*args)
        return result, len(builds) - before

    return count
