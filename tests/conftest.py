import sys
import tracemalloc
from pathlib import Path

import pytest

# allow running the suite from a checkout without installing
src = Path(__file__).resolve().parents[1] / "src"
if str(src) not in sys.path:
    sys.path.insert(0, str(src))


@pytest.fixture
def peak_bytes():
    """``peak_bytes(fn)``: the peak traced bytes that ``fn()`` allocates
    above what is live before; numpy reports its array buffers to
    ``tracemalloc``."""
    def measure(fn):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    return measure
