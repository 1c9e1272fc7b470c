"""Hypothesis draws the same examples on every run, so a test's verdict
depends on the code alone."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
