"""Storage substrates: striped PFS, NAM sharing (E10), memory tiers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage import (
    DatasetSharingStudy,
    MemoryTier,
    NetworkAttachedMemory,
    ParallelFileSystem,
    StripeLayout,
    TieredStore,
)

GiB = 1024 ** 3


class TestStripeLayout:
    def test_targets_for_small_read_hits_one(self):
        layout = StripeLayout(stripe_count=4, stripe_bytes=1 << 20, first_target=0)
        assert layout.targets_for(0, 100, 16) == [0]

    def test_targets_for_wide_read_hits_all_stripes(self):
        layout = StripeLayout(stripe_count=4, stripe_bytes=1 << 20, first_target=2)
        targets = layout.targets_for(0, 8 << 20, 16)
        assert sorted(targets) == [2, 3, 4, 5]

    def test_zero_length(self):
        layout = StripeLayout(stripe_count=2, stripe_bytes=1024, first_target=0)
        assert layout.targets_for(0, 0, 8) == []

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            StripeLayout(stripe_count=0, stripe_bytes=1024, first_target=0)


class TestParallelFileSystem:
    def test_create_open_unlink(self):
        pfs = ParallelFileSystem("fs", n_targets=8)
        f = pfs.create("/data/a", 10 * GiB)
        assert pfs.open("/data/a") is f
        pfs.unlink("/data/a")
        with pytest.raises(FileNotFoundError):
            pfs.open("/data/a")

    def test_duplicate_create_rejected(self):
        pfs = ParallelFileSystem("fs")
        pfs.create("/x", 1024)
        with pytest.raises(FileExistsError):
            pfs.create("/x", 1024)

    def test_capacity_enforced(self):
        pfs = ParallelFileSystem("fs", n_targets=2, capacity_TB_per_target=0.001)
        with pytest.raises(OSError):
            pfs.create("/huge", 10 ** 13)

    def test_wide_stripe_reads_faster(self):
        pfs = ParallelFileSystem("fs", n_targets=16, target_GBps=5.0)
        wide = pfs.create("/wide", 100 * GiB, stripe_count=16)
        narrow = pfs.create("/narrow", 100 * GiB, stripe_count=1)
        assert pfs.read_time(wide) < pfs.read_time(narrow) / 8

    def test_stripe_count_capped_at_targets(self):
        pfs = ParallelFileSystem("fs", n_targets=4)
        f = pfs.create("/x", 1 * GiB, stripe_count=100)
        assert f.layout.stripe_count == 4

    def test_contention_slows_reads(self):
        pfs = ParallelFileSystem("fs", n_targets=8)
        f = pfs.create("/shared", 10 * GiB, stripe_count=8)
        alone = pfs.read_time(f)
        contended = pfs.read_time(f, concurrent_clients=10)
        assert contended == pytest.approx(alone * 10)

    def test_writes_slower_than_reads(self):
        pfs = ParallelFileSystem("fs", n_targets=4)
        f = pfs.create("/x", 10 * GiB)
        assert pfs.write_time(f) > pfs.read_time(f)

    def test_usage_tracking(self):
        pfs = ParallelFileSystem("fs", n_targets=4)
        pfs.create("/a", 4 * GiB, stripe_count=4)
        assert pfs.used_bytes == 4 * GiB
        pfs.unlink("/a")
        assert pfs.used_bytes == 0

    def test_aggregate_bandwidth_from_layout(self):
        pfs = ParallelFileSystem("fs", n_targets=8, target_GBps=5.0)
        f = pfs.create("/x", GiB, stripe_count=4)
        assert pfs.aggregate_read_GBps(f) == 20.0


class TestNam:
    def test_stage_and_read(self):
        nam = NetworkAttachedMemory(capacity_GB=10)
        t_stage = nam.stage("ds", 5 * GiB)
        assert t_stage > 0
        assert nam.contains("ds")
        assert nam.read_time("ds") > 0

    def test_capacity_enforced(self):
        nam = NetworkAttachedMemory(capacity_GB=1)
        with pytest.raises(MemoryError):
            nam.stage("big", 2 * GiB)

    def test_duplicate_stage_rejected(self):
        nam = NetworkAttachedMemory(capacity_GB=10)
        nam.stage("ds", GiB)
        with pytest.raises(FileExistsError):
            nam.stage("ds", GiB)

    def test_evict_frees_space(self):
        nam = NetworkAttachedMemory(capacity_GB=2)
        nam.stage("a", GiB)
        nam.evict("a")
        nam.stage("b", 2 * GiB)   # fits again

    def test_missing_dataset(self):
        nam = NetworkAttachedMemory()
        with pytest.raises(FileNotFoundError):
            nam.read_time("nope")
        with pytest.raises(FileNotFoundError):
            nam.evict("nope")

    def test_concurrent_readers_share_bandwidth(self):
        nam = NetworkAttachedMemory(capacity_GB=10)
        nam.stage("ds", 4 * GiB)
        assert nam.read_time("ds", concurrent_readers=8) > \
            nam.read_time("ds", concurrent_readers=1) * 4


class TestDatasetSharingStudy:
    """E10: the NAM's raison d'être."""

    def _study(self, n=10):
        return DatasetSharingStudy(dataset_bytes=50 * GiB, n_members=n)

    def test_nam_faster_than_duplicates(self):
        assert self._study().speedup() > 2.0

    def test_traffic_reduction_is_n(self):
        study = self._study(n=12)
        assert study.traffic_reduction() == pytest.approx(12.0)

    def test_single_copy_stored(self):
        assert self._study().nam_shared()["copies_stored"] == 1.0
        assert self._study(n=7).baseline_duplicate_downloads()[
            "copies_stored"] == 7.0

    def test_speedup_grows_with_members(self):
        assert self._study(n=20).speedup() > self._study(n=4).speedup()


class TestTieredStore:
    def test_small_dataset_lands_in_hbm(self):
        store = TieredStore.dam_node()
        slices = store.put("tiny", 1 * GiB)
        assert [s.tier for s in slices] == [MemoryTier.HBM]

    def test_large_dataset_spills_down(self):
        store = TieredStore.dam_node()
        slices = store.put("big", 500 * GiB)
        tiers = [s.tier for s in slices]
        assert tiers == [MemoryTier.HBM, MemoryTier.DDR, MemoryTier.NVM]

    def test_cluster_node_spills_to_pfs(self):
        store = TieredStore.cluster_node()
        slices = store.put("big", 500 * GiB)
        assert slices[-1].tier == MemoryTier.PFS

    def test_dam_keeps_more_resident_fast(self):
        dam = TieredStore.dam_node()
        cluster = TieredStore.cluster_node()
        dam.put("ds", 300 * GiB)
        cluster.put("ds", 300 * GiB)
        assert dam.resident_fraction_fast("ds") > \
            cluster.resident_fraction_fast("ds")

    def test_drop_frees_capacity(self):
        store = TieredStore(hbm_GB=0, ddr_GB=10, nvm_GB=0, pfs_GB=0)
        store.put("a", 10 * GiB)
        with pytest.raises(MemoryError):
            store.put("b", GiB)
        store.drop("a")
        store.put("b", GiB)

    def test_duplicate_put_rejected(self):
        store = TieredStore.dam_node()
        store.put("x", GiB)
        with pytest.raises(FileExistsError):
            store.put("x", GiB)

    def test_missing_placement(self):
        with pytest.raises(FileNotFoundError):
            TieredStore.dam_node().placement("ghost")

    def test_read_time_dominated_by_slowest_tier(self):
        store = TieredStore.dam_node()
        store.put("spilled", 500 * GiB)
        slices = store.placement("spilled")
        slowest = max(s.read_time() for s in slices)
        assert store.read_time("spilled") == pytest.approx(slowest)

    def test_hbm_faster_than_nvm(self):
        store = TieredStore.dam_node()
        store.put("hot", 1 * GiB)
        store2 = TieredStore(hbm_GB=0, ddr_GB=0, nvm_GB=100)
        store2.put("cold", 1 * GiB)
        assert store.read_time("hot") < store2.read_time("cold")

    @given(size_gb=st.integers(min_value=1, max_value=2400))
    @settings(max_examples=50, deadline=None)
    def test_property_placement_conserves_bytes(self, size_gb):
        store = TieredStore.dam_node()
        slices = store.put("ds", size_gb * GiB)
        assert sum(s.size_bytes for s in slices) == size_gb * GiB

    @given(sizes=st.lists(st.integers(min_value=1, max_value=200),
                          min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_property_capacity_never_exceeded(self, sizes):
        store = TieredStore(hbm_GB=32, ddr_GB=384, nvm_GB=2048, pfs_GB=10000)
        for i, gb in enumerate(sizes):
            store.put(f"d{i}", gb * GiB)
        for tier in (MemoryTier.HBM, MemoryTier.DDR, MemoryTier.NVM):
            assert store.free_bytes(tier) >= 0


class TestPfsHealth:
    """The structured health surface behind the serving/storage drill."""

    def test_clean_pfs_is_healthy(self):
        pfs = ParallelFileSystem("fs", n_targets=4)
        report = pfs.health()
        assert report.ok and not report.degraded
        assert report.suspicion == 0.0
        clean = pfs.health()
        assert clean.ok and not clean.degraded

    def test_ost_loss_is_gray_not_dead(self):
        pfs = ParallelFileSystem("fs", n_targets=4)
        pfs.fail_target(0)
        report = pfs.health()
        assert report.ok            # still answering
        assert report.degraded      # but visibly impaired
        assert "1/4 OSTs failed" in report.detail
        assert report.suspicion > 0.0
        impaired = pfs.health()
        assert not (impaired.ok and not impaired.degraded)

    def test_total_loss_is_dead(self):
        pfs = ParallelFileSystem("fs", n_targets=2)
        pfs.fail_target(0)
        pfs.fail_target(1)
        assert not pfs.health().ok

    def test_recovery_restores_health(self):
        pfs = ParallelFileSystem("fs", n_targets=4)
        pfs.fail_target(2)
        pfs.recover_target(2)
        restored = pfs.health()
        assert restored.ok and not restored.degraded

    def test_health_published_to_enabled_registry(self):
        from repro import telemetry

        pfs = ParallelFileSystem("fs", n_targets=4)
        with telemetry.capture() as (_, registry):
            pfs.fail_target(1)
            assert registry.value("component_health_degraded",
                                  component="pfs:fs") == 1.0
            pfs.recover_target(1)
            assert registry.value("component_health_degraded",
                                  component="pfs:fs") == 0.0
