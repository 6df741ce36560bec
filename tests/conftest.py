"""Shared pytest configuration.

Property tests run derandomized, so the suite draws the same examples on
every run even where a test sets no ``@settings(derandomize=True)``.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
