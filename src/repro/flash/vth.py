"""Threshold-voltage (V_TH) states and windows.

A flash cell stores data as its threshold voltage.  Reading compares
V_TH against one or more read-reference voltages (VREF); programming
moves V_TH upward with ISPP pulses; erasing returns it to the erased
state (paper Section 2.1, Figure 5).

This module defines the *nominal* state layout for each programming
mode.  The error model (:mod:`repro.flash.errors`) perturbs these
nominal distributions with retention loss, disturbance and
interference; the ISPP engine (:mod:`repro.flash.ispp`) produces them
from programming pulses.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class VthState(enum.IntEnum):
    """Named V_TH states.  ERASED encodes '1' in SLC mode."""

    ERASED = 0
    P1 = 1
    P2 = 2
    P3 = 3
    P4 = 4
    P5 = 5
    P6 = 6
    P7 = 7


@dataclass(frozen=True)
class VthLevel:
    """One V_TH state: nominal mean and standard deviation in volts."""

    state: VthState
    mean: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class VthWindow:
    """The V_TH layout of a programming mode.

    ``levels`` are ordered by increasing mean; ``read_refs`` are the
    read-reference voltages separating adjacent levels (one fewer than
    the number of levels).
    """

    levels: tuple[VthLevel, ...]
    read_refs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.read_refs) != len(self.levels) - 1:
            raise ValueError(
                f"need {len(self.levels) - 1} read refs for "
                f"{len(self.levels)} levels, got {len(self.read_refs)}"
            )
        means = [level.mean for level in self.levels]
        if means != sorted(means):
            raise ValueError("levels must be ordered by increasing mean")
        for i, ref in enumerate(self.read_refs):
            if not self.levels[i].mean < ref < self.levels[i + 1].mean:
                raise ValueError(
                    f"read ref {ref} does not separate levels "
                    f"{self.levels[i].mean} and {self.levels[i + 1].mean}"
                )

    @property
    def bits_per_cell(self) -> int:
        n = len(self.levels)
        bits = n.bit_length() - 1
        if 1 << bits != n:
            raise ValueError(f"level count {n} is not a power of two")
        return bits

    def level(self, state: VthState) -> VthLevel:
        for lvl in self.levels:
            if lvl.state == state:
                return lvl
        raise KeyError(state)

    def margin(self, boundary: int) -> float:
        """Distance between the two state means across ``boundary``."""
        return self.levels[boundary + 1].mean - self.levels[boundary].mean


def gaussian_tail(z: float) -> float:
    """Upper-tail probability Q(z) of the standard normal distribution.

    Implemented with :func:`math.erfc` so the flash model does not
    require scipy at runtime.  Accurate far into the tail (erfc is
    computed with dedicated asymptotics by libm), which matters for the
    ESP zero-error regime (Q(z) ~ 1e-13).
    """
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def gaussian_tail_inverse(q: float) -> float:
    """Inverse of :func:`gaussian_tail` via bisection.

    Only used by calibration tooling and tests; precision of ~1e-9 in z
    is ample.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gaussian_tail(mid) > q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def misread_probability(
    mean: float, sigma: float, ref: float, *, direction: str
) -> float:
    """Probability that a cell at N(mean, sigma) crosses ``ref``.

    ``direction='below'`` gives P(V_TH < ref) -- a programmed cell read
    as erased; ``direction='above'`` gives P(V_TH > ref) -- an erased
    cell read as programmed.
    """
    z = (ref - mean) / sigma
    if direction == "below":
        return gaussian_tail(-z)
    if direction == "above":
        return gaussian_tail(z)
    raise ValueError(f"unknown direction {direction!r}")


def slc_window(
    *,
    erased_mean: float,
    erased_sigma: float,
    programmed_mean: float,
    programmed_sigma: float,
    read_ref: float,
) -> VthWindow:
    """Build a two-level (SLC) window."""
    return VthWindow(
        levels=(
            VthLevel(VthState.ERASED, erased_mean, erased_sigma),
            VthLevel(VthState.P1, programmed_mean, programmed_sigma),
        ),
        read_refs=(read_ref,),
    )


def evenly_spaced_window(
    *,
    erased_mean: float,
    erased_sigma: float,
    top_mean: float,
    programmed_sigma: float,
    n_levels: int,
) -> VthWindow:
    """Build an MLC/TLC-style window with evenly spaced programmed states.

    The erased state sits at ``erased_mean``; programmed states are
    spread up to ``top_mean``.  Read references are placed at the
    midpoints.  This mirrors how real multi-level windows pack more
    states into the same voltage range, shrinking every margin
    (paper Figure 5(b)).
    """
    if n_levels < 2:
        raise ValueError("need at least two levels")
    step = (top_mean - erased_mean) / (n_levels - 1)
    levels = []
    for i in range(n_levels):
        mean = erased_mean + i * step
        sigma = erased_sigma if i == 0 else programmed_sigma
        levels.append(VthLevel(VthState(i), mean, sigma))
    refs = tuple(
        0.5 * (levels[i].mean + levels[i + 1].mean) for i in range(n_levels - 1)
    )
    return VthWindow(levels=tuple(levels), read_refs=refs)


def gray_code_flip_weights(n_levels: int) -> tuple[float, ...]:
    """Bit flips caused by crossing each adjacent-state boundary.

    Multi-level cells use Gray coding (Figure 5(b): 11/01/00/10) so a
    single-boundary crossing flips exactly one of the stored bits.  The
    per-bit RBER contribution of boundary ``i`` is therefore
    ``1 / bits_per_cell``.
    """
    bits = n_levels.bit_length() - 1
    if 1 << bits != n_levels:
        raise ValueError(f"level count {n_levels} is not a power of two")
    return tuple(1.0 / bits for _ in range(n_levels - 1))
