"""Latency model of chip operations, including MWS.

Anchors (paper Section 5.1/5.2 and Table 1):

* tR (SLC-mode page read)   = 22.5 us
* tPROG (SLC)               = 200 us; MLC 500 us; TLC 700 us
* tESP (full effort)        = 400 us (= 2 x tPROG)
* tBERS (block erase)       = 3.5 ms
* intra-block MWS of all 48 wordlines: tMWS = 1.033 x tR (Fig. 12);
  at <= 8 wordlines the increase is below 1%.
* inter-block MWS: the extra wordline-precharge time is hidden by the
  bitline precharge until ~8 blocks; at 32 blocks tMWS = 1.363 x tR
  (Fig. 13).
* the fixed command latency adopted for system evaluation: tMWS =
  25 us with at most 4 blocks activated (Table 1).

The intra-block slowdown is modeled as evaluation-time growth: each
additional VREF-biased cell adds series resistance to the string,
stretching the RC evaluation.  The inter-block penalty is modeled as
``max(bitline_precharge, wordline_precharge x blocks)``: activating
more blocks charges proportionally more wordlines, which stays hidden
under the fixed bitline precharge until the crossover.  Constants are
solved from the two figure endpoints; the *shapes* of Figs. 12/13 then
follow from the model.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TimingParameters:
    """Raw timing constants (microseconds)."""

    t_read_slc_us: float = 22.5
    t_prog_slc_us: float = 200.0
    t_prog_mlc_us: float = 500.0
    t_prog_tlc_us: float = 700.0
    t_erase_us: float = 3500.0
    #: Fixed MWS command latency used by the system-level evaluation
    #: (Table 1), valid when at most `mws_block_limit` blocks are
    #: activated.
    t_mws_fixed_us: float = 25.0
    mws_block_limit: int = 4

    #: Fraction of tR spent in the evaluation phase (Figure 2's E step).
    eval_fraction: float = 0.133

    #: Bitline-precharge duration, and per-block wordline-precharge
    #: cost, solved from Fig. 13's anchors (hidden until 8 blocks;
    #: +36.3% of tR at 32 blocks).
    t_bitline_precharge_us: float = 8.17 / 3.0
    t_wordline_precharge_per_block_us: float = 8.17 / 24.0


@dataclass
class TimingModel:
    """Latency calculator for every chip operation.  Models built with
    the default parameters share one instance of them (plans memoize
    their latency estimates per parameters, identity first)."""

    params: TimingParameters = TimingParameters()

    @property
    def t_read_us(self) -> float:
        return self.params.t_read_slc_us

    def t_program_us(self, mode: str, esp_extra: float = 0.0) -> float:
        p = self.params
        if mode == "slc":
            return p.t_prog_slc_us
        if mode == "esp":
            if not 0.0 <= esp_extra <= 1.0:
                raise ValueError("esp_extra must be in [0, 1]")
            return p.t_prog_slc_us * (1.0 + esp_extra)
        if mode == "mlc":
            return p.t_prog_mlc_us
        if mode == "tlc":
            return p.t_prog_tlc_us
        raise ValueError(f"unknown programming mode {mode!r}")

    def t_erase_us(self) -> float:
        return self.params.t_erase_us

    # ------------------------------------------------------------------
    # MWS latency (physically derived; Figs. 12 and 13)
    # ------------------------------------------------------------------

    def intra_block_penalty_us(self, n_wordlines: int) -> float:
        """Evaluation-time stretch from sensing ``n_wordlines`` in one
        string: each extra VREF-biased cell adds series resistance."""
        if n_wordlines < 1:
            raise ValueError("n_wordlines must be >= 1")
        p = self.params
        t_eval = p.t_read_slc_us * p.eval_fraction
        # Solved so that 48 wordlines cost +3.3% of tR total.
        slowdown = (0.033 * p.t_read_slc_us) / (47 * t_eval)
        return t_eval * slowdown * (n_wordlines - 1)

    def inter_block_penalty_us(self, n_blocks: int) -> float:
        """Wordline-precharge overflow beyond the bitline precharge."""
        if n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")
        p = self.params
        wl_precharge = p.t_wordline_precharge_per_block_us * n_blocks
        return max(0.0, wl_precharge - p.t_bitline_precharge_us)

    def t_mws_us(self, n_wordlines: int, n_blocks: int = 1) -> float:
        """Latency of a reliable MWS operation (intra, inter or
        combined).  ``n_wordlines`` counts all targeted wordlines; the
        intra penalty uses the worst string (most wordlines in one
        block), approximated by ceil division."""
        if n_blocks < 1 or n_wordlines < n_blocks:
            raise ValueError("need at least one wordline per block")
        worst_per_string = -(-n_wordlines // n_blocks)
        return (
            self.params.t_read_slc_us
            + self.intra_block_penalty_us(worst_per_string)
            + self.inter_block_penalty_us(n_blocks)
        )

    def t_mws_fixed_us(self, n_blocks: int = 1) -> float:
        """The fixed 25-us command latency adopted by the system
        evaluation, enforcing the Table 1 block limit."""
        p = self.params
        if n_blocks > p.mws_block_limit:
            raise ValueError(
                f"inter-block MWS limited to {p.mws_block_limit} blocks "
                f"(Table 1); got {n_blocks}"
            )
        return p.t_mws_fixed_us
