"""Shared pytest configuration.

Property tests run derandomized, so the suite draws the same examples on
every run even where a test sets no ``@settings(derandomize=True)``.
The ``plant`` fixture puts a fault into a copy of the package's source.
"""

import inspect
import sys
import textwrap

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def plant(monkeypatch):
    """``plant(owner, name, (old, new), ...)`` replaces ``owner.<name>``,
    a module's function or a class's method, by a copy of its source with
    each ``old``, found exactly once, replaced by ``new``, compiled
    against its module's globals; the test's end restores it."""

    def put(owner, name, *edits):
        fn = getattr(owner, name)
        source = textwrap.dedent(inspect.getsource(fn))
        for old, new in edits:
            assert source.count(old) == 1, old
            source = source.replace(old, new)
        module = sys.modules[fn.__module__]
        namespace = dict(vars(module))
        exec(compile(source, module.__file__, "exec"), namespace)
        monkeypatch.setattr(owner, name, namespace[name])

    return put
