"""SSD configuration (Table 1) and the Figure 7 example variant."""

from __future__ import annotations

from dataclasses import dataclass, replace


def positive_int(name: str, value: int) -> int:
    """``value``, checked: a NaN bound never evicts, 2.5 keeps 3."""
    if type(value) is not int or value < 1:
        raise ValueError(f"{name} must be an int >= 1, not {value!r}")
    return value


@dataclass(frozen=True)
class SsdConfig:
    """Simulated SSD organization and timing.

    Defaults reproduce Table 1: a 2-TB, 48-WL-layer 3D TLC NAND SSD
    with 8 channels x 8 dies x 2 planes, 16-KiB pages, 8-GB/s external
    I/O (4-lane PCIe Gen4) and 1.2-GB/s per-channel I/O.
    """

    n_channels: int = 8
    dies_per_channel: int = 8
    planes_per_die: int = 2
    blocks_per_plane: int = 2048
    subblocks_per_block: int = 4
    wordlines_per_string: int = 48
    page_bytes: int = 16 * 1024

    external_bw_bytes_per_s: float = 8.0e9
    channel_bw_bytes_per_s: float = 1.2e9

    t_read_us: float = 22.5
    t_mws_us: float = 25.0
    mws_block_limit: int = 4
    t_prog_slc_us: float = 200.0
    t_prog_mlc_us: float = 500.0
    t_prog_tlc_us: float = 700.0
    t_esp_us: float = 400.0

    #: ISP hardware accelerator (Table 1): simple bitwise logic with a
    #: 256-KiB SRAM buffer per channel, 93 pJ per 64-B operation.
    isp_accel_pj_per_64b: float = 93.0
    isp_sram_bytes: int = 256 * 1024

    def __post_init__(self) -> None:
        for name in (
            "n_channels",
            "dies_per_channel",
            "planes_per_die",
            "page_bytes",
        ):
            positive_int(name, getattr(self, name))
        for name in ("external_bw_bytes_per_s", "channel_bw_bytes_per_s"):
            value = getattr(self, name)
            if isinstance(value, bool) or not value > 0:  # NaN too
                raise ValueError(f"{name} must be positive, not {value!r}")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def n_dies(self) -> int:
        return self.n_channels * self.dies_per_channel

    @property
    def n_planes(self) -> int:
        return self.n_dies * self.planes_per_die

    @property
    def internal_bw_bytes_per_s(self) -> float:
        """Aggregate channel bandwidth (the paper's 9.6 GB/s)."""
        return self.n_channels * self.channel_bw_bytes_per_s

    @property
    def die_read_bytes(self) -> int:
        """Bytes one multi-plane read senses per die."""
        return self.planes_per_die * self.page_bytes

    @property
    def t_dma_us_per_die_read(self) -> float:
        """Channel time to move one die's multi-plane read."""
        return self.die_read_bytes / self.channel_bw_bytes_per_s * 1e6

    @property
    def t_ext_us_per_die_read(self) -> float:
        """External-link time for one die's multi-plane read."""
        return self.die_read_bytes / self.external_bw_bytes_per_s * 1e6

    @property
    def capacity_bytes(self) -> int:
        """User capacity in TLC mode (3 bits/cell)."""
        cells_per_plane = (
            self.blocks_per_plane
            * self.subblocks_per_block
            * self.wordlines_per_string
            * self.page_bytes
        )
        return self.n_planes * cells_per_plane * 3

    def sense_throughput_bytes_per_s(self, t_sense_us: float) -> float:
        """Aggregate sensing throughput with every die reading
        multi-plane pages back to back."""
        return self.n_dies * self.die_read_bytes / (t_sense_us * 1e-6)

    def scaled(self, **overrides) -> "SsdConfig":
        return replace(self, **overrides)


def table1_config() -> SsdConfig:
    """The evaluation configuration (Table 1)."""
    return SsdConfig()


def fig7_config() -> SsdConfig:
    """The motivating-example SSD of Figure 7: 8 channels x 4 dies x 2
    planes (64 planes), tR = 60 us, tDMA = 27 us per 32-KiB die read,
    tEXT = 4 us per die read."""
    return SsdConfig(
        n_channels=8,
        dies_per_channel=4,
        planes_per_die=2,
        t_read_us=60.0,
    )
