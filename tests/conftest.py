"""Every test starts with no kept dual frame, so that no test passes or
fails by the order the tests run in: ``inverses._Frame.of`` keeps the
last frame it built, and a warm one would hide the work a call does."""

import pytest

from dualgi import inverses


@pytest.fixture(autouse=True)
def cold_frame_slot():
    inverses._last_frame = None
