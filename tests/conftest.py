"""Settings shared by every test module."""

import pytest
from hypothesis import settings

from kaf import _blas

# One Hypothesis profile for every property. derandomize: each run draws the
# same examples, so a failure reproduces from the commit alone. No deadline:
# an example's run time depends on the machine and its BLAS threads.
settings.register_profile("kaf", derandomize=True, deadline=None)
settings.load_profile("kaf")



@pytest.fixture
def backend(request, monkeypatch):
    """The backend of `kaf._blas` named by the test's "backend" parameter:
    "reference" unbinds the kernels, so every product is numpy's; "blas"
    uses OpenBLAS's kernels, and skips where numpy's bundled OpenBLAS does
    not export them."""
    if request.param == "reference":
        monkeypatch.setattr(_blas, "_lib", False)
    elif not _blas._bound():
        pytest.skip("numpy's bundled OpenBLAS does not export the kernels")
    return request.param


@pytest.fixture
def each_backend(monkeypatch):
    """A function whose iterator yields "reference", with the kernels
    unbound, then "blas" where they bind: a loop over it runs its body on
    each backend of `kaf._blas` in turn."""
    def each():
        with monkeypatch.context() as m:
            m.setattr(_blas, "_lib", False)
            yield "reference"
        if _blas._bound():
            yield "blas"
    return each
