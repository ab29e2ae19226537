"""The service builds each served query's two frozen records
(``ServedQuery`` and its ``QueryResult``) by filling their ``__dict__``
directly.  Such a record must be indistinguishable from one the
dataclass constructor builds: same type and fields, ``==``, ``repr``,
``dataclasses.replace``, and just as immutable.
"""

import dataclasses

import numpy as np
import pytest

from reference_data_plane import GEOMETRY
from repro.core.expressions import And, Operand, evaluate
from repro.service.service import ServedQuery
from repro.ssd.controller import QueryResult, SmallSsd


def _served():
    ssd = SmallSsd(n_chips=2, geometry=GEOMETRY, seed=8)
    rng = np.random.default_rng(8)
    env = {n: rng.integers(0, 2, 150, dtype=np.uint8) for n in "ab"}
    for name, bits in env.items():
        ssd.write_vector(name, bits, group="g")
    service = ssd.service(window_us=50.0, policy="edf", result_cache=True)
    expr = And(Operand("a"), Operand("b"))
    service.submit(expr, at_us=0.0, deadline_us=400.0, priority=2)
    service.submit(expr, at_us=60.0)
    queries = service.run().queries
    for query in queries:
        np.testing.assert_array_equal(query.result.bits, evaluate(expr, env))
    return queries


def _rebuilt(record):
    """The same record, through its class's constructor."""
    fields = dataclasses.fields(record)
    return type(record)(**{f.name: getattr(record, f.name) for f in fields})


@pytest.mark.parametrize("which", ["query", "result"])
def test_a_filled_record_is_the_constructed_one(which):
    for query in _served():
        record = query if which == "query" else query.result
        built = _rebuilt(record)
        assert type(record) is type(built) is (
            ServedQuery if which == "query" else QueryResult
        )
        assert record == built and built == record
        assert repr(record) == repr(built)
        assert dataclasses.fields(record) == dataclasses.fields(built)
        assert vars(record) == vars(built)
        names = [f.name for f in dataclasses.fields(built)]
        assert list(vars(record)) == names
        name = dataclasses.fields(record)[1].name
        changed = dataclasses.replace(record, **{name: None})
        assert changed == dataclasses.replace(built, **{name: None})
        assert changed != record
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
        assert record == built

