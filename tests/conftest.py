import numpy as np
import pytest

from meanfield.core import RngStream


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
