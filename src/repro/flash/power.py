"""Power and energy model of chip operations.

Anchors (paper Section 5.2, Figure 14 -- all values normalized to the
average power of a regular page read):

* inter-block MWS on 2 blocks: +34% over a regular read;
* inter-block MWS on 4 blocks: ~+80% over a regular read;
* erase power sits just above the 4-block MWS level ("the power
  consumption of inter-block MWS remains lower than that of an erase
  operation" until 4 blocks);
* the 4-block MWS *energy* is ~53% below four individual reads
  (80% more power for 3.3% more time than one read, replacing four).

Intra-block MWS draws slightly *less* than a regular read because the
extra target wordlines receive VREF instead of the much larger VPASS
(Section 4.1).

Absolute scale: we anchor the regular-read power at 45 mW per die,
typical for planar reads of this chip class; all system-level energy
ratios depend only on the relative factors plus this single scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class PowerParameters:
    """Power constants; relative factors are normalized to a read."""

    read_power_mw: float = 45.0
    #: Fitted to Fig. 14: p(n) = 1 + 0.34 * (n-1)^0.78 gives
    #: p(2) = 1.34 and p(4) = 1.80.
    inter_block_coeff: float = 0.34
    inter_block_exponent: float = 0.78
    #: VREF on extra wordlines replaces VPASS, shaving a little power.
    intra_block_saving_per_wordline: float = 0.0006
    erase_factor: float = 1.85
    program_factor: float = 1.55


@dataclass
class PowerModel:
    """Power/energy calculator for chip operations."""

    params: PowerParameters = field(default_factory=PowerParameters)

    def inter_block_mws_power_factor(self, n_blocks: int) -> float:
        if n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")
        p = self.params
        return 1.0 + p.inter_block_coeff * (n_blocks - 1) ** p.inter_block_exponent

    def intra_block_mws_power_factor(self, n_wordlines: int) -> float:
        if n_wordlines < 1:
            raise ValueError("n_wordlines must be >= 1")
        p = self.params
        factor = 1.0 - p.intra_block_saving_per_wordline * (n_wordlines - 1)
        return max(factor, 0.5)

    def mws_power_factor(self, n_wordlines: int, n_blocks: int = 1) -> float:
        """Combined MWS power: inter-block growth times the (small)
        intra-block saving of the per-string wordline count."""
        if n_blocks < 1 or n_wordlines < n_blocks:
            raise ValueError("need at least one wordline per block")
        worst_per_string = -(-n_wordlines // n_blocks)
        return self.inter_block_mws_power_factor(
            n_blocks
        ) * self.intra_block_mws_power_factor(worst_per_string)

    def erase_power_factor(self) -> float:
        return self.params.erase_factor

    def program_power_factor(self) -> float:
        return self.params.program_factor

    # ------------------------------------------------------------------
    # Energy
    # ------------------------------------------------------------------

    def energy_nj(self, power_factor: float, duration_us: float) -> float:
        """Energy of an operation in nanojoules."""
        if duration_us < 0:
            raise ValueError("duration must be >= 0")
        return self.params.read_power_mw * power_factor * duration_us

    def read_energy_nj(self, t_read_us: float) -> float:
        return self.energy_nj(1.0, t_read_us)

    def mws_energy_nj(
        self, n_wordlines: int, n_blocks: int, t_mws_us: float
    ) -> float:
        return self.energy_nj(
            self.mws_power_factor(n_wordlines, n_blocks), t_mws_us
        )
