"""Tests for the access-pattern suite (repro.workloads.patterns)."""

from __future__ import annotations

import pytest

from repro.sim.rng import make_rng
from repro.stack import Mode, StackConfig, build_stack
from repro.workloads.patterns import (
    PATTERNS,
    HotColdPattern,
    PatternWorkload,
    make_pattern,
)

_STACK = dict(
    num_blocks=96,
    pages_per_block=16,
    page_size=1024,
    journal_pages=32,
    fs_cache_pages=64,
    max_inodes=8,
)


def _rng():
    return make_rng(7, "test.workload_patterns")


class TestPatternShapes:
    def test_sequential_wraps(self):
        addresses = make_pattern("sequential").addresses(4, 10, _rng())
        assert addresses == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]

    def test_stride_covers_coprime_span(self):
        addresses = make_pattern("stride", stride=7).addresses(16, 16, _rng())
        assert sorted(addresses) == list(range(16))  # gcd(7,16)=1: full cover
        assert addresses[1] - addresses[0] == 7

    def test_random_stays_in_bounds(self):
        addresses = make_pattern("random").addresses(32, 200, _rng())
        assert all(0 <= a < 32 for a in addresses)
        assert len(set(addresses)) > 1

    def test_hotcold_skews_to_hot_region(self):
        pattern = HotColdPattern(hot_fraction=0.2, hot_probability=0.8)
        addresses = pattern.addresses(100, 1000, _rng())
        hot = sum(1 for a in addresses if a < 20)
        assert 700 < hot < 900  # ~80% of writes hit the 20% hot region

    def test_all_registered_patterns_construct(self):
        for name in PATTERNS:
            pattern = make_pattern(name)
            addresses = pattern.addresses(16, 32, _rng())
            assert len(addresses) == 32
            assert all(0 <= a < 16 for a in addresses)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError, match="unknown pattern"):
            make_pattern("zipfian-ish")

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_pattern("stride", stride=0)
        with pytest.raises(ValueError):
            make_pattern("hotcold", hot_fraction=1.5)


class TestDeterminism:
    def test_addresses_reproducible(self):
        workload = PatternWorkload("random", file_pages=64, writes=100, seed=11)
        again = PatternWorkload("random", file_pages=64, writes=100, seed=11)
        assert workload.addresses() == again.addresses()

    def test_seed_changes_trace(self):
        a = PatternWorkload("random", seed=1).addresses()
        b = PatternWorkload("random", seed=2).addresses()
        assert a != b

    def test_tenant_lane_differs_from_bare_seed(self):
        stack = build_stack(StackConfig(mode=Mode.XFTL, **_STACK))
        tenant = stack.open_tenant("alice", seed=7)
        workload = PatternWorkload("random", seed=7)
        assert workload.addresses(tenant) != workload.addresses()
        assert workload.addresses(tenant) == workload.addresses(tenant)


class TestStackRuns:
    @pytest.mark.parametrize("mode", [Mode.XFTL, Mode.FS_ORDERED])
    def test_run_on_bare_stack(self, mode):
        stack = build_stack(StackConfig(mode=mode, **_STACK))
        workload = PatternWorkload(
            "hotcold", file_pages=32, writes=64, fsync_interval=8
        )
        stats = workload.run(stack)
        assert stats["writes"] == 64
        assert stats["fsyncs"] == 8
        assert stats["elapsed_s"] > 0.0
        assert stack.fs.exists("pattern.dat")

    def test_uneven_tail_still_fsynced(self):
        stack = build_stack(StackConfig(mode=Mode.XFTL, **_STACK))
        stats = PatternWorkload(
            "sequential", file_pages=8, writes=10, fsync_interval=4
        ).run(stack)
        assert stats["fsyncs"] == 3  # 4 + 4 + tail of 2

    def test_run_inside_tenant_namespace(self):
        stack = build_stack(StackConfig(mode=Mode.XFTL, **_STACK))
        alice = stack.open_tenant("alice")
        bob = stack.open_tenant("bob")
        PatternWorkload("stride", file_pages=16, writes=32).run(stack, tenant=alice)
        PatternWorkload("random", file_pages=16, writes=32).run(stack, tenant=bob)
        assert stack.fs.exists("alice/pattern.dat")
        assert stack.fs.exists("bob/pattern.dat")

    def test_tasks_interleave_across_tenants(self):
        stack = build_stack(StackConfig(mode=Mode.XFTL, **_STACK))
        alice = stack.open_tenant("alice")
        bob = stack.open_tenant("bob")
        tasks = [
            PatternWorkload("sequential", file_pages=16, writes=24).task(
                stack, tenant=alice
            ),
            PatternWorkload("hotcold", file_pages=16, writes=24).task(
                stack, tenant=bob
            ),
        ]
        from repro.stack import SessionScheduler

        scheduler = SessionScheduler(stack, fairness="deficit", group_commit=False)
        scheduler.add(alice, [tasks[0]])
        scheduler.add(bob, [tasks[1]])
        scheduler.run()
        registry = stack.chip.tenants.as_dict()
        assert registry["tenants"]["alice"]["writes"] > 0
        assert registry["tenants"]["bob"]["writes"] > 0
