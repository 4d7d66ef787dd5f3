import os

import numpy as np
import pytest
from hypothesis import settings

from meanfield.core import RngStream

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a property-test failure reproduces
settings.register_profile("ci", derandomize=True)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


class ZeroUniformStream(RngStream):
    """An RngStream, and substreams of it, whose uniform draws are all 0.0:
    the one draw at which ``u <= 0`` accepts a zero-rate event."""

    def substream(self, index: int) -> "ZeroUniformStream":
        return ZeroUniformStream(self.seed, super().substream(index).stream_id)

    def uniform(self, size=None):
        return 0.0 if size is None else np.zeros(size)


@pytest.fixture
def zero_uniform_stream():
    return ZeroUniformStream


class NoDrawStream(RngStream):
    """An RngStream, and substreams of it, on which any draw fails the test."""

    def substream(self, index: int) -> "NoDrawStream":
        return NoDrawStream(self.seed, super().substream(index).stream_id)

    def _refuse(self, *args, **kwargs):
        raise AssertionError("a draw was made")

    normal = uniform = exponential = integers = _refuse


@pytest.fixture
def no_draw_stream():
    return NoDrawStream
