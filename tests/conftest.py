"""Suite-wide pytest configuration.

Tier-1 is deterministic: hypothesis derives every test's examples from the
test itself (``derandomize``), so an unrelated change cannot be sunk by a
fresh random draw.  New counterexamples still surface in the CI leg that
sets ``HYPOTHESIS_PROFILE=explore`` — randomized, and each failure prints
the ``@reproduce_failure`` blob that replays it.
"""

import os

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
