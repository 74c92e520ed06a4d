import pytest


@pytest.fixture
def count_calls():
    """count_calls(owner, name, fn, *args) -> (fn(*args), calls of owner.name it made)."""
    def count(owner, name, fn, *args):
        calls = []
        original = getattr(owner, name)

        def counting(*a, **kw):
            calls.append(None)
            return original(*a, **kw)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(owner, name, counting)
            result = fn(*args)
        return result, len(calls)

    return count
