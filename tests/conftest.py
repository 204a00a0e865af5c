"""One hypothesis profile for the whole suite: the same examples on every run."""

from hypothesis import settings

settings.register_profile("graphforms", derandomize=True, database=None, deadline=None)
settings.load_profile("graphforms")
