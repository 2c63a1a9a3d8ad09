"""Every layer the benchmark's tracer wraps still exists in ``src/``.

``python -m bench run --trace 1`` wraps each ``bench.layers.TARGETS``
path by name before any simulator object exists. A rename or deletion
in the engine would break that run without failing any other test, so
this resolves every path (without running the benchmark).
"""

import pytest

from bench.layers import TARGETS, _resolve


@pytest.mark.parametrize("path", sorted({path for _, path, _, _ in TARGETS}))
def test_bench_target_resolves(path):
    owner, attr = _resolve(path)
    assert callable(getattr(owner, attr)), path
