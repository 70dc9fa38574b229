"""Hypothesis profiles for the test suite.

``tier1``, loaded by default, draws the same examples on every run and
keeps no example database, so a run neither depends on luck nor replays
an earlier run's failure. ``search`` draws fresh random examples:

    python -m pytest --hypothesis-profile search
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("search")
settings.load_profile("tier1")
