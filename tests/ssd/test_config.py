"""Tests for repro.ssd.config (Table 1 anchors)."""

import pytest

from repro.ssd.config import SsdConfig, fig7_config, table1_config


class TestTable1:
    def test_organization(self):
        """Table 1: 8 channels, 8 dies/channel, 2 planes/die, 2048
        blocks/plane, 16-KiB pages."""
        c = table1_config()
        assert c.n_channels == 8
        assert c.dies_per_channel == 8
        assert c.planes_per_die == 2
        assert c.blocks_per_plane == 2048
        assert c.page_bytes == 16 * 1024
        assert c.n_dies == 64
        assert c.n_planes == 128

    def test_bandwidths(self):
        """Table 1: 8-GB/s external (PCIe Gen4 x4), 1.2-GB/s channel,
        9.6-GB/s aggregate internal."""
        c = table1_config()
        assert c.external_bw_bytes_per_s == 8.0e9
        assert c.channel_bw_bytes_per_s == 1.2e9
        assert c.internal_bw_bytes_per_s == pytest.approx(9.6e9)

    def test_latencies(self):
        """Table 1: tR 22.5 us, tMWS 25 us (max 4 blocks), tPROG
        200/500/700 us, tESP 400 us."""
        c = table1_config()
        assert c.t_read_us == 22.5
        assert c.t_mws_us == 25.0
        assert c.mws_block_limit == 4
        assert (c.t_prog_slc_us, c.t_prog_mlc_us, c.t_prog_tlc_us) == (
            200.0, 500.0, 700.0,
        )
        assert c.t_esp_us == 400.0

    def test_capacity_is_2tb_class(self):
        """Table 1: 2-TB TLC SSD."""
        c = table1_config()
        assert 1.8e12 < c.capacity_bytes < 2.8e12

    def test_isp_accelerator(self):
        c = table1_config()
        assert c.isp_accel_pj_per_64b == 93.0
        assert c.isp_sram_bytes == 256 * 1024


class TestDerived:
    def test_die_read_granularity(self):
        c = table1_config()
        assert c.die_read_bytes == 32 * 1024

    def test_dma_and_ext_times(self):
        """Figure 7's 27-us DMA / 4-us ext per 32-KiB die read (the
        paper rounds; exact values are 27.3 / 4.1)."""
        c = fig7_config()
        assert c.t_dma_us_per_die_read == pytest.approx(27.0, rel=0.02)
        assert c.t_ext_us_per_die_read == pytest.approx(4.0, rel=0.03)

    def test_fig7_variant(self):
        c = fig7_config()
        assert c.n_dies == 32
        assert c.n_planes == 64
        assert c.t_read_us == 60.0

    def test_sense_throughput(self):
        c = table1_config()
        expected = 64 * 32 * 1024 / 22.5e-6
        assert c.sense_throughput_bytes_per_s(22.5) == pytest.approx(expected)

    def test_scaled(self):
        c = table1_config().scaled(n_channels=2)
        assert c.n_channels == 2
        assert c.dies_per_channel == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            SsdConfig(n_channels=0)
        with pytest.raises(ValueError):
            SsdConfig(external_bw_bytes_per_s=0)

    @pytest.mark.parametrize(
        "name", ["external_bw_bytes_per_s", "channel_bw_bytes_per_s"]
    )
    def test_nan_bandwidth_rejected(self, name):
        """A NaN bandwidth used to construct, and a service run then
        failed at the first listed job."""
        with pytest.raises(ValueError, match=name):
            SsdConfig(**{name: float("nan")})

    @pytest.mark.parametrize(
        "name", ["n_channels", "dies_per_channel", "planes_per_die", "page_bytes"]
    )
    @pytest.mark.parametrize("bad", [2.5, 2.0, True, "2"])
    def test_counts_must_be_ints(self, name, bad):
        """``n_channels=2.5`` used to model channels ``chan0.5`` and
        ``chan1.0``."""
        with pytest.raises(ValueError, match=name):
            SsdConfig(**{name: bad})
