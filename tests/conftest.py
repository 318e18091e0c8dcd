"""Tier-1 draws the same hypothesis examples on every run, so a failure replays."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
