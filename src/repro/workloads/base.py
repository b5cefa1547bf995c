"""Workload config base class and the pluggable model registry.

A *workload* is a deterministic traffic model: a frozen config
dataclass whose :meth:`WorkloadConfig.ops` turns one replication's RNG
stream into the int-level op stream
(:data:`repro.switching.generators.TrafficOp`) that every consumer
reads -- the stream compiler behind the batched kernel folds the ops
straight into replay ops, and :meth:`WorkloadConfig.events` gives the
serial simulator and the trace writer the same stream as
:class:`~repro.switching.generators.TrafficEvent` objects.  Because the contract is the op stream (not the generator), a
registered workload inherits both routing kernels, every fabric model,
common random numbers across ``m``, antithetic pairing and the
content-addressed caches without those layers knowing it exists.

Two invariants keep the existing golden values intact:

* the base fields (``steps``/``seeds``/``max_fanout``) are the uniform
  generator's original knobs, so the uniform member of the family
  reproduces it exactly;
* :meth:`WorkloadConfig.token` is the workload's cache/stream-key
  identity.  Uniform traffic returns ``None`` -- it contributes
  nothing, so keys, warm caches and adaptive schedules predating the
  workload library are still valid -- while every other model returns
  its tag + shape parameters, so cached uniform results are never
  served for non-uniform traffic (and vice versa).

Models register with :func:`register_workload`;
:func:`make_workload` / :func:`workload_from_dict` build configs from
CLI ``key=value`` pairs and JSON provenance payloads respectively.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar

from repro.switching.generators import traffic_events
from repro.workloads.keys import require_distinct

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    import random

    from repro.core.models import MulticastModel
    from repro.perf.adaptive import PrecisionConfig
    from repro.switching.generators import TrafficEvent, TrafficOp

__all__ = [
    "WorkloadConfig",
    "make_workload",
    "register_workload",
    "workload_class",
    "workload_from_dict",
    "workload_names",
]


@dataclass(frozen=True)
class WorkloadConfig:
    """Base of the workload-config family (the legacy traffic surface).

    A model implements :meth:`ops`; :meth:`events` is the same stream
    as objects, for every model.

    Attributes:
        steps: traffic events per replication, at least 1; None keeps
            the caller's default (2000 for ``blocking``, 1500 per
            ``sweep`` point -- the legacy budget) or, for trace replay,
            the whole trace.
        seeds: independent replications (pooled deterministically);
            each seed may appear once.
        max_fanout: cap on destinations per request (None = fabric
            size).

    Traffic is only random traffic: the worst case is a search, not a
    workload (:func:`repro.multistage.adversary.scan_witnesses`).
    """

    steps: int | None = None
    seeds: tuple[int, ...] = (0, 1, 2)
    max_fanout: int | None = None

    #: registry tag of the model; class-level, not a field, so it never
    #: collides with the parameter surface
    workload: ClassVar[str] = "abstract"

    def __post_init__(self) -> None:
        if not isinstance(self.seeds, tuple):
            object.__setattr__(self, "seeds", tuple(self.seeds))
        require_distinct("seeds", self.seeds)
        if self.steps is not None and self.steps < 1:
            raise ValueError(
                f"steps must be >= 1, got {self.steps} "
                "(None keeps the caller's default)"
            )

    # -- the generator contract ---------------------------------------------

    def ops(
        self,
        model: "MulticastModel",
        n_ports: int,
        k: int,
        *,
        steps: int,
        rng: "random.Random",
        max_fanout: int | None,
    ) -> "Iterator[TrafficOp]":
        """One replication's int-level op stream.

        Yields ``(tag, connection_id, source_code, ports, waves)`` ops
        (:data:`repro.switching.generators.TrafficOp`); a teardown
        repeats its setup's fields.  Must be a pure function of its
        arguments: ``rng`` is the replication's whole randomness budget
        (one :func:`repro.workloads.keys.stream_rng` stream threaded
        end-to-end), and every prefix of the yielded sequence must keep
        the active set a legal multicast assignment under ``model`` --
        the guaranteed-legality contract that lets the batched kernel's
        replay skip admission validation.
        """
        raise NotImplementedError

    def events(
        self,
        model: "MulticastModel",
        n_ports: int,
        k: int,
        *,
        steps: int,
        rng: "random.Random",
        max_fanout: int | None,
    ) -> "Iterator[TrafficEvent]":
        """One replication's :meth:`ops` stream as connection objects.

        The serial simulator's, the trace writer's and the tests' view
        (:func:`repro.switching.generators.traffic_events`): one
        connection object per setup, yielded again at its teardown.
        """
        stream = self.ops(
            model, n_ports, k, steps=steps, rng=rng, max_fanout=max_fanout
        )
        return traffic_events(stream, k)

    # -- identity -----------------------------------------------------------

    @classmethod
    def shape_fields(cls) -> tuple[dataclasses.Field, ...]:
        """The model-specific parameter fields (base surface excluded)."""
        base = {field.name for field in dataclasses.fields(WorkloadConfig)}
        return tuple(
            field
            for field in dataclasses.fields(cls)
            if field.name not in base
        )

    def shape_params(self) -> dict[str, Any]:
        """The model-specific parameter values."""
        return {
            field.name: getattr(self, field.name)
            for field in self.shape_fields()
        }

    def token(self) -> dict[str, Any] | None:
        """The workload's cache/stream-key identity.

        Mixed into every traffic-cell cache key, adaptive stream key
        and round key, so results of different workloads can never
        shadow each other.  Uniform traffic overrides this to ``None``
        (contributes nothing -- the backward-compatibility anchor).
        """
        return {"workload": self.workload, **self.shape_params()}

    # -- integration hooks --------------------------------------------------

    def resolved_steps(self, default: int) -> int:
        """The per-replication event budget (``default`` if unset)."""
        return self.steps if self.steps is not None else default

    def validate_precision(
        self, precision: "PrecisionConfig", steps: int
    ) -> None:
        """Reject precision-targeted runs the model cannot support.

        The adaptive driver assumes every round can draw fresh
        replication streams; models that cannot (trace replay) raise
        here with a diagnosis.  Every other model supports them.
        """

    # -- serialization ------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """Tagged dict form; inverse of :func:`workload_from_dict`."""
        return {"workload": self.workload, **dataclasses.asdict(self)}

    @classmethod
    def describe(cls) -> str:
        """One-line description (the docstring's first line)."""
        doc = cls.__doc__ or cls.workload
        return doc.strip().splitlines()[0].rstrip(".")


# -- registry ---------------------------------------------------------------

_REGISTRY: dict[str, type[WorkloadConfig]] = {}


def register_workload(cls: type[WorkloadConfig]) -> type[WorkloadConfig]:
    """Class decorator: add a config class to the workload registry.

    The class's ``workload`` tag becomes a valid ``--workload`` name,
    a ``wdm-repro workloads`` row and a ``workload_from_dict`` tag --
    no consumer changes needed.
    """
    tag = cls.workload
    if tag in _REGISTRY:
        raise ValueError(f"workload {tag!r} is already registered")
    _REGISTRY[tag] = cls
    return cls


def workload_names() -> list[str]:
    """Registered workload tags, sorted."""
    return sorted(_REGISTRY)


def workload_class(name: str) -> type[WorkloadConfig]:
    """The config class of ``name``; unknown names list the registry."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(workload_names())
        raise ValueError(
            f"unknown workload {name!r}; choose from: {known}"
        ) from None


def _coerce(hint: Any, text: str) -> Any:
    """Parse one CLI ``key=value`` string into a field's type."""
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        if text.lower() in ("none", "null"):
            return None
        hint = next(
            arg for arg in typing.get_args(hint) if arg is not type(None)
        )
        origin = typing.get_origin(hint)
    if hint is bool:
        lowered = text.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {text!r}")
    if hint is int:
        return int(text)
    if hint is float:
        return float(text)
    if origin is tuple:
        return tuple(
            int(part) for part in text.split(",") if part.strip() != ""
        )
    return text


def make_workload(name: str, **params: Any) -> WorkloadConfig:
    """Build a registered workload config from loosely typed parameters.

    String values (the CLI's ``--workload-param key=value`` form) are
    coerced to the target field's annotated type; typed values pass
    through.  Unknown parameter names raise with the model's parameter
    list, mirroring the unknown-workload error.
    """
    cls = workload_class(name)
    hints = typing.get_type_hints(cls)
    valid = {field.name for field in dataclasses.fields(cls)}
    kwargs: dict[str, Any] = {}
    for key, value in params.items():
        if key not in valid:
            known = ", ".join(sorted(valid))
            raise ValueError(
                f"workload {name!r} has no parameter {key!r}; "
                f"parameters: {known}"
            )
        if isinstance(value, str) and hints.get(key) is not str:
            value = _coerce(hints[key], value)
        kwargs[key] = value
    return cls(**kwargs)


def workload_from_dict(data: dict[str, Any]) -> WorkloadConfig:
    """Rebuild a config from its :meth:`WorkloadConfig.as_dict` form.

    Dicts written while the adversary was a workload field still carry
    ``adversarial`` and ``adversary_seeds``; they name no traffic, so
    they are dropped and the same traffic config is rebuilt.
    """
    payload = dict(data)
    payload.pop("adversarial", None)
    payload.pop("adversary_seeds", None)
    try:
        tag = payload.pop("workload")
    except KeyError:
        raise ValueError(
            "workload dict is missing the 'workload' tag"
        ) from None
    return make_workload(tag, **payload)
