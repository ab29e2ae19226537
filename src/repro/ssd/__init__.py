"""SSD substrate: configuration, timeline simulation, FTL, controller,
and the plan-template query engine.

Models the simulated SSD of Table 1 (an MQSim-style performance model
plus a functional multi-chip controller) and the three data paths the
paper compares: external I/O (host <-> SSD), internal I/O (controller
<-> flash dies over shared channels), and in-flash sensing.

Query execution is layered on three pieces:

* :class:`~repro.ssd.controller.SmallSsd` stripes vectors across
  functional chips and owns the FTL metadata;
* :class:`~repro.ssd.query_engine.QueryEngine` turns each expression
  into a *relocatable plan template* (LRU-cached by expression shape +
  group layout), binds it to every chunk's addresses, and drains the
  bound plans through per-chip queues -- planning cost is independent
  of vector length;
* :mod:`~repro.ssd.events` replays each query's chunk job stream
  (die sense -> channel DMA -> external link) through the exact
  timeline simulator, so functional queries also report pipelined
  makespans, unifying the functional and performance paths.

Above this sits the query *service* layer (:mod:`repro.service`,
reachable via ``SmallSsd.service()``): timed submissions from many
clients are batched into admission windows, scheduled across chips,
and executed with cross-query sense sharing through
``QueryEngine.prepare``/``execute_tasks``.

The functional data path is **bit-packed end to end**:
``write_vector`` packs each vector into ``uint64`` words once at
ingest, chips sense and latch packed words
(:mod:`repro.flash.packing`), chunk results move packed through the
query engine's replay, and a ``QueryResult`` hands them to the host
still packed (``QueryResult.words``): only reading
``QueryResult.bits`` -- or ``read_vector`` -- unpacks.  There is
one data plane: error-injecting chips (``inject_errors=True``) *sense*
through the V_TH matrix and pack each outcome before the latches see
it, so everything from the latches to the host is words either way.

Execution is additionally **batched window-at-a-time**:
``QueryEngine.execute_tasks`` dedups an admission window's tasks
first, then drains each chip's surviving unique plan queue through
``MwsExecutor.execute_batch`` -- every sense of the queue evaluated
as one stacked ``uint64`` tensor pass (or one V_TH pass with the
per-sense draw schedule on an error-injecting chip), the latch
protocol replayed lane-parallel -- so Python dispatch per window is
O(chips) rather than O(senses).  Queues with no batched equivalent
walk their plans one by one (``MwsExecutor.execute``), which doubles
as the equivalence oracle; results are bit-identical and cost
counters float-identical either way
(``tests/ssd/test_batch_property.py``).
"""

from repro.ssd.config import SsdConfig, fig7_config, table1_config
from repro.ssd.controller import QueryResult, SmallSsd
from repro.ssd.events import StageJob, simulate_stages
from repro.ssd.ftl import FlashTranslationLayer, PagePlacement
from repro.ssd.pipeline import PipelineModel, PlatformTiming
from repro.ssd.query_engine import (
    BatchResult,
    ChunkOutcome,
    ChunkTask,
    EngineStats,
    PreparedQuery,
    QueryEngine,
    TaskColumns,
    WindowResult,
)

__all__ = [
    "BatchResult",
    "ChunkOutcome",
    "ChunkTask",
    "EngineStats",
    "PreparedQuery",
    "FlashTranslationLayer",
    "PagePlacement",
    "PipelineModel",
    "PlatformTiming",
    "QueryEngine",
    "QueryResult",
    "SmallSsd",
    "TaskColumns",
    "WindowResult",
    "SsdConfig",
    "StageJob",
    "fig7_config",
    "simulate_stages",
    "table1_config",
]
