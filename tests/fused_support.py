"""Run the fused ``numba`` backend's program on hosts without numba.

Without numba the fused backend reports itself unavailable, and its
kernel entry point (:func:`repro.engine.fused._kernel`) is the plain
Python replay loop -- the very program numba would compile.
:func:`fused_runnable` lets the identity suites and
``benchmarks/bench_perf.py`` replay through it anyway.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

from repro.engine import fused


def _numpy_only() -> str | None:
    return "numpy is not installed" if fused._np is None else None


@contextmanager
def fused_runnable() -> Iterator[None]:
    """Make the ``numba`` backend runnable for a block.

    With numba installed this does nothing: the compiled kernel runs.
    Without it, ``repro.engine.fused.missing_requirement`` is patched to
    waive numba (numpy stays required), so the backend replays through
    the interpreted kernel over the same arrays.  A context manager, not
    a fixture, so it also works under hypothesis's ``@given``.
    """
    if fused.NUMBA_AVAILABLE:
        yield
        return
    original = fused.missing_requirement
    fused.missing_requirement = _numpy_only
    try:
        yield
    finally:
        fused.missing_requirement = original
