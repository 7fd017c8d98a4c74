"""Shared test fixtures."""

import pytest

from cubemix import WeightDistribution
from cubemix.numerics import binom_row


@pytest.fixture
def binomial_start():
    """The weight profile of the uniform distribution on {0,1}^n, as a function of n."""

    def build(n):
        return WeightDistribution(n, nums=list(binom_row(n)), den=1 << n)

    return build
