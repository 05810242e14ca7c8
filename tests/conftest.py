"""Every ``@given`` test draws the same examples on every run, with or
without an example database, so that the suite's result does not depend on
the checkout.  With PHASENOISE_RANDOMIZE set in the environment they draw
new examples instead (the CI runs the suite once that way)."""

import os

from hypothesis import settings

settings.register_profile("phasenoise", derandomize="PHASENOISE_RANDOMIZE" not in os.environ)
settings.load_profile("phasenoise")
