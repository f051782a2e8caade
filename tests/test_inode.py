"""Unit tests for the bounded-depth inode pointer tree."""

import pytest

from repro.storage.inode import Inode, InodeError, Slot


def make_inode(block_size=64, page_capacity=4):
    return Inode(block_size=block_size, page_capacity=page_capacity)


class TestBasics:
    def test_empty_inode(self):
        inode = make_inode()
        assert inode.size == 0
        assert inode.num_slots == 0
        assert inode.depth == 1

    def test_append_slot_grows_size(self):
        inode = make_inode()
        inode.append_slot(Slot(block_no=0, used=64))
        inode.append_slot(Slot(block_no=1, used=10))
        assert inode.size == 74
        assert inode.num_slots == 2

    def test_depth_is_constant_two(self):
        inode = make_inode()
        for i in range(100):
            inode.append_slot(Slot(block_no=i, used=64))
        assert inode.depth == 2  # the paper's bounded-depth organisation

    def test_page_capacity_validation(self):
        with pytest.raises(ValueError):
            Inode(block_size=64, page_capacity=1)

    def test_slot_used_bounds_validated(self):
        inode = make_inode()
        with pytest.raises(InodeError):
            inode.append_slot(Slot(block_no=0, used=65))


class TestPages:
    def test_pages_split_at_capacity(self):
        inode = make_inode(page_capacity=4)
        for i in range(9):
            inode.append_slot(Slot(block_no=i, used=64))
        assert inode.num_pages >= 3
        inode.check_invariants()

    def test_mid_insert_splits_full_page(self):
        inode = make_inode(page_capacity=4)
        for i in range(4):
            inode.append_slot(Slot(block_no=i, used=64))
        for i in range(4, 8):
            inode.insert_slot(2, Slot(block_no=i, used=64))
        assert [slot.block_no for slot in inode.iter_slots()] == [0, 1, 7, 6, 5, 4, 2, 3]
        inode.check_invariants()

    def test_empty_page_removed(self):
        inode = make_inode(page_capacity=2)
        for i in range(4):
            inode.append_slot(Slot(block_no=i, used=64))
        pages_before = inode.num_pages
        inode.remove_slot(0)
        inode.remove_slot(0)
        assert inode.num_pages < pages_before
        inode.check_invariants()


class TestAddressing:
    def test_locate_maps_offsets(self):
        inode = make_inode()
        inode.append_slot(Slot(block_no=0, used=10))
        inode.append_slot(Slot(block_no=1, used=20))
        assert inode.locate(0) == (0, 0)
        assert inode.locate(9) == (0, 9)
        assert inode.locate(10) == (1, 0)
        assert inode.locate(29) == (1, 19)

    def test_locate_end_of_file(self):
        inode = make_inode()
        inode.append_slot(Slot(block_no=0, used=10))
        assert inode.locate(10) == (1, 0)

    def test_locate_out_of_range(self):
        inode = make_inode()
        with pytest.raises(InodeError):
            inode.locate(1)
        with pytest.raises(InodeError):
            inode.locate(-1)

    def test_locate_skips_holes(self):
        # Holes (used < block_size) must be invisible to logical offsets.
        inode = make_inode(block_size=64)
        inode.append_slot(Slot(block_no=0, used=5))
        inode.append_slot(Slot(block_no=1, used=64))
        assert inode.locate(5) == (1, 0)

    def test_offset_of_slot(self):
        inode = make_inode()
        inode.append_slot(Slot(block_no=0, used=7))
        inode.append_slot(Slot(block_no=1, used=13))
        assert inode.offset_of_slot(0) == 0
        assert inode.offset_of_slot(1) == 7
        assert inode.offset_of_slot(2) == 20

    def test_slot_at_out_of_range(self):
        inode = make_inode()
        with pytest.raises(InodeError):
            inode.slot_at(0)

    def test_iter_slots_from_start_index(self):
        inode = make_inode(page_capacity=2)
        for i in range(6):
            inode.append_slot(Slot(block_no=i, used=1))
        assert [slot.block_no for slot in inode.iter_slots(3)] == [3, 4, 5]


class TestMutation:
    def test_remove_slot_returns_it(self):
        inode = make_inode()
        inode.append_slot(Slot(block_no=9, used=3))
        removed = inode.remove_slot(0)
        assert removed.block_no == 9
        assert inode.size == 0

    def test_replace_slot_swaps_accounting(self):
        inode = make_inode()
        inode.append_slot(Slot(block_no=1, used=10))
        old = inode.replace_slot(0, Slot(block_no=2, used=30))
        assert old.block_no == 1
        assert inode.size == 30

    def test_set_used_adjusts_size_and_holes(self):
        inode = make_inode(block_size=64)
        inode.append_slot(Slot(block_no=0, used=64))
        inode.set_used(0, 40)
        assert inode.size == 40
        assert inode.hole_bytes == 24
        assert inode.hole_slots == 1

    def test_set_used_bounds(self):
        inode = make_inode(block_size=64)
        inode.append_slot(Slot(block_no=0, used=64))
        with pytest.raises(InodeError):
            inode.set_used(0, 65)


class TestHoleAccounting:
    def test_holes_counted_on_insert(self):
        inode = make_inode(block_size=64)
        inode.append_slot(Slot(block_no=0, used=64))
        inode.append_slot(Slot(block_no=1, used=10))
        assert inode.hole_slots == 1
        assert inode.hole_bytes == 54

    def test_holes_released_on_remove(self):
        inode = make_inode(block_size=64)
        inode.append_slot(Slot(block_no=0, used=10))
        inode.remove_slot(0)
        assert inode.hole_slots == 0
        assert inode.hole_bytes == 0

    def test_invariant_checker_detects_consistency(self):
        inode = make_inode(page_capacity=3)
        for i in range(10):
            inode.insert_slot(i // 2, Slot(block_no=i, used=1 + i % 3))
        inode.check_invariants()


class TestMetadataCharging:
    def test_mutations_charge_device_metadata(self, device):
        inode = Inode(block_size=device.block_size, page_capacity=4, device=device)
        inode.append_slot(Slot(block_no=0, used=1))
        assert device.stats.snapshot().metadata_writes >= 1

    def test_reads_are_served_from_memory(self, device):
        inode = Inode(block_size=device.block_size, page_capacity=4, device=device)
        inode.append_slot(Slot(block_no=0, used=1))
        before = device.clock.now
        inode.slot_at(0)
        inode.locate(0)
        list(inode.iter_slots())
        assert device.clock.now == before
