"""Test-tree settings shared by every module."""

from hypothesis import settings

# every run draws the same examples, and no saved example from an earlier
# run is replayed, so a pass or a failure does not depend on the machine's
# history; deadline is off because the first call of a numpy path is slow
settings.register_profile("tier1", derandomize=True, database=None, deadline=None,
                          max_examples=100)
settings.load_profile("tier1")
