"""Frozen fabric geometry shared by every admission-semantics consumer.

A :class:`FabricGeometry` pins down everything the admission kernels
need to know about one ``v(n, r, m, k)`` fabric: the topology numbers,
the construction (which stage dominates -- MSW or MAW middles), the
endpoint model the output stage runs under, the routing budget ``x``,
and the fabric model (:mod:`repro.engine.fabrics`) whose admission
program applies -- the paper's three-stage Clos by default.  It is
hashable and immutable, so a batched state can carry one
geometry per replication and kernels can branch on the two derived
booleans (:attr:`msw_dominant`, :attr:`model_msw`) without re-deriving
them per event.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.models import Construction, MulticastModel
from repro.core.multistage import valid_x_range
from repro.engine.fabrics import get_fabric

__all__ = ["FabricGeometry"]


@dataclass(frozen=True)
class FabricGeometry:
    """One fabric's admission-relevant shape: ``v(n, r, m, k)`` + semantics.

    Attributes:
        n: ports per input/output module.
        r: input (= output) module count.
        k: wavelengths per fiber.
        m: middle-switch count.
        construction: MSW-dominant or MAW-dominant middles (Section 3.1).
        model: the endpoint multicast model (output-stage semantics).
        x: routing parameter -- max middle switches per connection.
        fabric: fabric-model name -- ``"clos"``, the paper's
            three-stage network, or ``"crossbar"`` (see
            :mod:`repro.engine.fabrics`).
    """

    n: int
    r: int
    k: int
    m: int
    construction: Construction
    model: MulticastModel
    x: int
    fabric: str = "clos"

    def __post_init__(self) -> None:
        # The k/r/n guards come first: valid_x_range and the bitplanes
        # behave nonsensically on degenerate counts, so a zero-wavelength
        # geometry must fail here with the uniform message rather than
        # deep inside a consumer.
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        legal_x = valid_x_range(self.n, self.r)
        if self.x not in legal_x:
            raise ValueError(
                f"x={self.x} outside the legal range "
                f"[{legal_x[0]}, {legal_x[-1]}] for n={self.n}, r={self.r}"
            )
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        get_fabric(self.fabric)  # an unknown name fails, listing the fabrics

    @property
    def msw_dominant(self) -> bool:
        """True when the middle modules pin carriers to the source wavelength."""
        return self.construction is Construction.MSW_DOMINANT

    @property
    def model_msw(self) -> bool:
        """True when the endpoint model pins deliveries to the source wavelength."""
        return self.model is MulticastModel.MSW

    @property
    def all_middles_mask(self) -> int:
        """Bitmask with one bit per middle switch."""
        return (1 << self.m) - 1

    @property
    def k_full(self) -> int:
        """Bitmask of a fully busy fiber (all ``k`` wavelengths set)."""
        return (1 << self.k) - 1

    def with_m(self, m: int) -> "FabricGeometry":
        """The same fabric resized to ``m`` middle switches."""
        return replace(self, m=m)
