"""Shared test settings.

Property tests run a fixed, derandomized sequence of examples with no
example database, so tier-1 results do not depend on earlier runs, and
with no per-example deadline, since timings vary between machines.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
