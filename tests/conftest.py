"""Settings shared by every test module."""

from hypothesis import settings

# One Hypothesis profile for every property. derandomize: each run draws the
# same examples, so a failure reproduces from the commit alone. No deadline:
# an example's run time depends on the machine and its BLAS threads.
settings.register_profile("kaf", derandomize=True, deadline=None)
settings.load_profile("kaf")
