"""One hypothesis profile for the whole suite: the same examples on every run.

Hypothesis mixes constants from every loaded local non-test module into its draws,
so the examples of a derandomized test depend on which graphforms modules are
loaded when it runs.  ``graphforms.cli`` pulls in every module of the package
(``selftest`` included), so importing it here, before any test module, gives a run
of one test file the pool, and so the examples, of the full suite.
"""

import graphforms.cli  # noqa: F401  (loads every module; see above)
from hypothesis import settings

settings.register_profile("graphforms", derandomize=True, database=None, deadline=None)
settings.load_profile("graphforms")
