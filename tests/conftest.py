"""Hypothesis draws the same examples on every run, so that a failing
example reproduces."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
