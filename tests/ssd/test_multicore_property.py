"""Per-chip drain: an error inside one chip's drain reaches the caller.

``QueryEngine.execute_tasks`` drains the chips one after another on one
thread, in the order the task list first names them; a chip whose drain
raises stops the call with that error instead of returning outcomes for
a window it did not finish.
"""

import numpy as np
import pytest

from reference_data_plane import GEOMETRY, drain, tasks_of
from repro.core.expressions import And, Operand
from repro.ssd.controller import SmallSsd


def _window_tasks(n_chips=3):
    ssd = SmallSsd(n_chips=n_chips, geometry=GEOMETRY, seed=3)
    rng = np.random.default_rng(3)
    n_bits = 2 * n_chips * GEOMETRY.page_size_bits - 7
    for name in ("a0", "a1"):
        bits = rng.integers(0, 2, n_bits, dtype=np.uint8)
        ssd.write_vector(name, bits, group="g")
    prepared = ssd.engine.prepare(And(Operand("a0"), Operand("a1")))
    return ssd, tasks_of(prepared, 0)


def test_worker_exception_propagates():
    """An error inside one chip's drain surfaces to the caller, whether
    that chip drains first or after every healthy one."""
    ssd, tasks = _window_tasks()
    bad = tasks[0]._replace(chip=len(ssd.chips) + 5)
    with pytest.raises(IndexError):
        drain(ssd.engine, [bad] + tasks[1:])
    with pytest.raises(IndexError):
        drain(ssd.engine, tasks[1:] + [bad])
