"""Pluggable deterministic workload library (``repro.workloads``).

The registry of traffic models behind the redesigned
:mod:`repro.api` traffic surface.  Every model is a frozen config
dataclass producing the int-level op stream
(:data:`repro.switching.generators.TrafficOp`) the whole simulator
stack consumes -- the batched stream compiler reads the ops directly,
the serial simulator reads them as
:class:`~repro.switching.generators.TrafficEvent` objects -- so all
routing kernels, every fabric model, the adaptive sweep engine and the
result caches support every registered workload with no per-consumer
code:

========================  ==============================================
``uniform``               uniform-random arrivals -- bit-identical to
                          the historical generator (the anchor the
                          golden-seed tests pin)
``hotspot``               Zipf-skewed destination popularity with a
                          configurable hot-port fraction
``heavytail_fanout``      truncated-Pareto multicast group sizes
``poisson_erlang``        Poisson arrivals + exponential holding times
                          (sweeps in offered Erlangs)
``trace``                 JSONL/CSV trace replay (``wdm-repro
                          trace-gen`` records one)
========================  ==============================================

Workload identity (:meth:`WorkloadConfig.token`) enters every
traffic-cell cache key and adaptive stream/round key, so cached
uniform results are never served for non-uniform traffic; uniform's
token is ``None``, keeping all pre-workload keys and schedules valid.
:mod:`repro.workloads.keys` is the shared seed/stream-key derivation
helper the registry and the perf layers both feed from.
"""

from repro.workloads.base import (
    WorkloadConfig,
    make_workload,
    register_workload,
    workload_class,
    workload_from_dict,
    workload_names,
)
from repro.workloads.erlang import PoissonErlangConfig
from repro.workloads.heavytail import HeavyTailFanoutConfig
from repro.workloads.hotspot import HotspotConfig
from repro.workloads.keys import (
    key_fragment,
    schedule_rng,
    stream_rng,
    workload_fragment,
)
from repro.workloads.trace import (
    TraceConfig,
    generate_trace,
    load_trace,
    write_trace,
)
from repro.workloads.uniform import UniformConfig

__all__ = [
    "HeavyTailFanoutConfig",
    "HotspotConfig",
    "PoissonErlangConfig",
    "TraceConfig",
    "UniformConfig",
    "WorkloadConfig",
    "generate_trace",
    "key_fragment",
    "load_trace",
    "make_workload",
    "register_workload",
    "schedule_rng",
    "stream_rng",
    "workload_class",
    "workload_from_dict",
    "workload_names",
    "write_trace",
]
