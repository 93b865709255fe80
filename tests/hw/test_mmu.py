"""Page tables, two-stage translation, and walk-cost accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.hw.mmu import (
    BLOCK_1G,
    BLOCK_2M,
    PAGE_4K,
    PageAttrs,
    PageTable,
    TranslationFault,
    TranslationRegime,
    VA_LIMIT,
    WALK_DEPTH,
    walk_refs,
)


class TestPageTable:
    def test_map_translate_4k(self):
        pt = PageTable("s1", stage=1)
        pt.map(0x1000, 0x8000_1000, PAGE_4K)
        pa, depth, attrs, bs = pt.translate(0x1234)
        assert pa == 0x8000_1234
        assert depth == 3
        assert bs == PAGE_4K

    def test_map_translate_2m_block(self):
        pt = PageTable()
        pt.map(0x20_0000, 0x4000_0000, BLOCK_2M, block_size=BLOCK_2M)
        pa, depth, _, bs = pt.translate(0x20_0000 + 0x12345)
        assert pa == 0x4000_0000 + 0x12345
        assert depth == 2
        assert bs == BLOCK_2M

    def test_map_translate_1g_block(self):
        pt = PageTable()
        pt.map(BLOCK_1G, 0, BLOCK_1G, block_size=BLOCK_1G)
        pa, depth, _, _ = pt.translate(BLOCK_1G + 777)
        assert pa == 777
        assert depth == 1

    def test_multi_entry_range(self):
        pt = PageTable()
        n = pt.map(0, 0x1_0000, 16 * PAGE_4K)
        assert n == 16
        for i in range(16):
            pa, _, _, _ = pt.translate(i * PAGE_4K + 5)
            assert pa == 0x1_0000 + i * PAGE_4K + 5

    def test_unmapped_faults(self):
        pt = PageTable("s1", stage=1)
        with pytest.raises(TranslationFault) as ei:
            pt.translate(0x5000)
        assert ei.value.stage == 1
        assert ei.value.reason == "unmapped"

    def test_permission_fault(self):
        pt = PageTable()
        pt.map(0, 0, PAGE_4K, attrs=PageAttrs(read=True, write=False))
        pt.translate(0, "r")
        with pytest.raises(TranslationFault) as ei:
            pt.translate(0, "w")
        assert ei.value.reason == "permission"

    def test_execute_permission(self):
        pt = PageTable()
        pt.map(0, 0, PAGE_4K, attrs=PageAttrs(execute=True))
        pt.translate(0, "x")
        pt.map(PAGE_4K, PAGE_4K, PAGE_4K, attrs=PageAttrs(execute=False))
        with pytest.raises(TranslationFault):
            pt.translate(PAGE_4K, "x")

    def test_overlap_rejected_same_granule(self):
        pt = PageTable()
        pt.map(0x1000, 0, PAGE_4K)
        with pytest.raises(ConfigurationError, match="already mapped"):
            pt.map(0x1000, 0x9000, PAGE_4K)

    def test_overlap_rejected_across_granules(self):
        pt = PageTable()
        pt.map(0x20_0000, 0, BLOCK_2M, block_size=BLOCK_2M)
        # A 4K page inside the 2M block must be rejected.
        with pytest.raises(ConfigurationError, match="already mapped"):
            pt.map(0x20_0000 + 8 * PAGE_4K, 0, PAGE_4K)

    def test_block_over_existing_page_rejected(self):
        pt = PageTable()
        pt.map(0x1000, 0x8000_1000, PAGE_4K)
        count, generation = pt.entry_count(), pt.generation
        # The 2M block's base is free, but a 4K page inside it is not.
        with pytest.raises(ConfigurationError, match="already mapped"):
            pt.map(0, 0x4000_0000, BLOCK_2M, block_size=BLOCK_2M)
        assert (pt.entry_count(), pt.generation) == (count, generation)
        assert pt.translate(0x1000 + 5)[0] == 0x8000_1005
        assert pt.translate(0x1000)[3] == PAGE_4K
        assert not pt.is_mapped(0)

    def test_1g_block_over_existing_2m_block_rejected(self):
        pt = PageTable()
        pt.map(BLOCK_1G + 3 * BLOCK_2M, 0x4000_0000, BLOCK_2M, block_size=BLOCK_2M)
        count, generation = pt.entry_count(), pt.generation
        with pytest.raises(ConfigurationError, match="already mapped"):
            pt.map(BLOCK_1G, 0, BLOCK_1G, block_size=BLOCK_1G)
        assert (pt.entry_count(), pt.generation) == (count, generation)
        pa, depth, _, bs = pt.translate(BLOCK_1G + 3 * BLOCK_2M + 7)
        assert (pa, depth, bs) == (0x4000_0007, 2, BLOCK_2M)
        assert not pt.is_mapped(BLOCK_1G)

    def test_overlap_check_atomic(self):
        pt = PageTable()
        pt.map(2 * PAGE_4K, 0, PAGE_4K)
        # Mapping [0, 3 pages) collides on the third page; nothing installed.
        with pytest.raises(ConfigurationError):
            pt.map(0, 0x10000, 3 * PAGE_4K)
        assert not pt.is_mapped(0)
        assert not pt.is_mapped(PAGE_4K)

    def test_alignment_enforced(self):
        pt = PageTable()
        with pytest.raises(ConfigurationError, match="not aligned"):
            pt.map(0x800, 0, PAGE_4K)
        with pytest.raises(ConfigurationError, match="not aligned"):
            pt.map(0, 0x800, PAGE_4K)
        with pytest.raises(ConfigurationError, match="not aligned"):
            pt.map(0, 0, PAGE_4K + 1)

    def test_va_limit_enforced(self):
        pt = PageTable()
        with pytest.raises(ConfigurationError, match="exceeds"):
            pt.map(VA_LIMIT - PAGE_4K, 0, 2 * PAGE_4K)

    def test_unmap_splits_extent_and_keeps_other_sizes(self):
        pt = PageTable()
        pt.map(0, 0x10_0000, 8 * PAGE_4K)
        pt.map(BLOCK_2M, 0x4000_0000, BLOCK_2M, block_size=BLOCK_2M)
        # A hole in the middle leaves two pieces with their own PAs.
        assert pt.unmap(2 * PAGE_4K, 2 * PAGE_4K) == 2
        assert pt.translate(5 * PAGE_4K + 1)[0] == 0x10_0000 + 5 * PAGE_4K + 1
        # 4K unmap over the 2M block removes nothing of it.
        assert pt.unmap(6 * PAGE_4K, BLOCK_2M) == 2
        assert pt.is_mapped(BLOCK_2M)
        assert [(e.start, e.end, e.output_base) for e in pt.extents()] == [
            (0, 2 * PAGE_4K, 0x10_0000),
            (4 * PAGE_4K, 6 * PAGE_4K, 0x10_0000 + 4 * PAGE_4K),
            (BLOCK_2M, 2 * BLOCK_2M, 0x4000_0000),
        ]
        assert pt.entry_count() == 4 + 1

    def test_extents_in_address_order(self):
        pt = PageTable()
        attrs = PageAttrs(write=False, owner="x")
        pt.map(BLOCK_2M, 0x4000_0000, BLOCK_2M, attrs=attrs, block_size=BLOCK_2M)
        pt.map(0, 0x1000_0000, 2 * PAGE_4K)
        assert list(pt.extents()) == [
            (0, 2 * PAGE_4K, 0x1000_0000, PageAttrs(), PAGE_4K),
            (BLOCK_2M, 2 * BLOCK_2M, 0x4000_0000, attrs, BLOCK_2M),
        ]

    def test_unmap(self):
        pt = PageTable()
        pt.map(0, 0, 4 * PAGE_4K)
        removed = pt.unmap(PAGE_4K, 2 * PAGE_4K)
        assert removed == 2
        assert pt.is_mapped(0)
        assert not pt.is_mapped(PAGE_4K)
        assert not pt.is_mapped(2 * PAGE_4K)
        assert pt.is_mapped(3 * PAGE_4K)

    def test_generation_bumps_on_changes(self):
        pt = PageTable()
        g0 = pt.generation
        pt.map(0, 0, PAGE_4K)
        assert pt.generation > g0
        g1 = pt.generation
        pt.unmap(0, PAGE_4K)
        assert pt.generation > g1
        # No-op unmap does not bump.
        g2 = pt.generation
        pt.unmap(0, PAGE_4K)
        assert pt.generation == g2

    def test_entry_count_and_mapped_bytes(self):
        pt = PageTable()
        pt.map(0, 0, 4 * PAGE_4K)
        pt.map(BLOCK_2M, 0x4000_0000, BLOCK_2M, block_size=BLOCK_2M)
        assert pt.entry_count() == 5
        assert pt.mapped_bytes() == 4 * PAGE_4K + BLOCK_2M

    def test_dominant_block_size(self):
        pt = PageTable()
        pt.map(0, 0, 4 * PAGE_4K)
        assert pt.dominant_block_size() == PAGE_4K
        pt.map(BLOCK_2M, 0x4000_0000, BLOCK_2M, block_size=BLOCK_2M)
        assert pt.dominant_block_size() == BLOCK_2M

    def test_invalid_block_size(self):
        pt = PageTable()
        with pytest.raises(ConfigurationError):
            pt.map(0, 0, 8192, block_size=8192)

    @given(
        st.sets(
            st.integers(min_value=0, max_value=1000), min_size=1, max_size=50
        )
    )
    def test_property_map_unmap_roundtrip(self, page_indices):
        pt = PageTable()
        for i in page_indices:
            pt.map(i * PAGE_4K, (i + 10_000) * PAGE_4K, PAGE_4K)
        for i in page_indices:
            pa, _, _, _ = pt.translate(i * PAGE_4K)
            assert pa == (i + 10_000) * PAGE_4K
        for i in page_indices:
            assert pt.unmap(i * PAGE_4K, PAGE_4K) == 1
        assert pt.entry_count() == 0


# -- random mixed-granularity map/unmap against a brute-force reference ------
#
# The reference is a dict of 4K page index -> (pa, attrs, block_size). The
# window holds four 2M blocks; 1G blocks are covered by the tests above,
# since a per-4K reference of one would hold 262144 pages.

WINDOW_PAGES = 4 * BLOCK_2M // PAGE_4K
ATTR_CHOICES = (PageAttrs(), PageAttrs(write=False, owner="b"))

_ops = st.one_of(
    st.tuples(
        st.sampled_from(("map", "unmap")),
        st.just(PAGE_4K),
        st.integers(0, WINDOW_PAGES - 1),
        st.integers(1, 96),
        st.integers(0, 1 << 12),
        st.sampled_from(ATTR_CHOICES),
    ),
    st.tuples(
        st.sampled_from(("map", "unmap")),
        st.just(BLOCK_2M),
        st.integers(0, 3),
        st.integers(1, 2),
        st.integers(0, 1 << 4),
        st.sampled_from(ATTR_CHOICES),
    ),
)


def _reference_counts(ref):
    """(entry_count, mapped_bytes, dominant_block_size) of the reference."""
    covered = {PAGE_4K: 0, BLOCK_2M: 0, BLOCK_1G: 0}
    for _pa, _attrs, bs in ref.values():
        covered[bs] += PAGE_4K
    dominant = max(covered, key=lambda bs: (covered[bs], -bs))
    entries = sum(b // bs for bs, b in covered.items())
    return entries, len(ref) * PAGE_4K, dominant


def _check_pages(pt, ref, pages):
    for page in pages:
        if not 0 <= page < 2 * WINDOW_PAGES:
            continue
        addr = page * PAGE_4K + 0x123
        hit = ref.get(page)
        assert pt.is_mapped(addr) == (hit is not None)
        if hit is None:
            with pytest.raises(TranslationFault):
                pt.translate(addr)
        else:
            pa, attrs, bs = hit
            assert pt.translate(addr) == (pa + 0x123, WALK_DEPTH[bs], attrs, bs)


@settings(max_examples=60, deadline=None)
@given(st.lists(_ops, min_size=1, max_size=25))
def test_property_mixed_granularity_matches_reference(ops):
    pt = PageTable()
    ref = {}
    for op, bs, index, nblocks, pa_index, attrs in ops:
        va, pa = index * bs, pa_index * bs
        size = min(nblocks * bs, WINDOW_PAGES * PAGE_4K - va)
        span = range(va // PAGE_4K, (va + size) // PAGE_4K)
        before = (pt.entry_count(), pt.mapped_bytes(), pt.generation)
        if op == "map":
            if any(page in ref for page in span):
                with pytest.raises(ConfigurationError, match="already mapped"):
                    pt.map(va, pa, size, attrs=attrs, block_size=bs)
                assert (pt.entry_count(), pt.mapped_bytes(), pt.generation) == before
            else:
                assert pt.map(va, pa, size, attrs=attrs, block_size=bs) == size // bs
                for page in span:
                    ref[page] = (pa + page * PAGE_4K - va, attrs, bs)
                assert pt.generation == before[2] + 1
        else:
            gone = [page for page in span if page in ref and ref[page][2] == bs]
            for page in gone:
                del ref[page]
            assert pt.unmap(va, size, block_size=bs) == len(gone) * PAGE_4K // bs
            assert pt.generation == before[2] + (1 if gone else 0)
        assert (pt.entry_count(), pt.mapped_bytes(), pt.dominant_block_size()) == (
            _reference_counts(ref)
        )
        _check_pages(pt, ref, range(span.start - 1, span.stop + 1))
    _check_pages(pt, ref, range(WINDOW_PAGES + 1))
    extents = list(pt.extents())
    assert all(a.end <= b.start for a, b in zip(extents, extents[1:]))


class TestTranslationRegime:
    def test_identity_regime(self):
        r = TranslationRegime()
        assert r.translate(0x1234) == (0x1234, 0)
        assert not r.two_stage

    def test_single_stage(self):
        s1 = PageTable("s1", stage=1)
        s1.map(0, 0x8000_0000, PAGE_4K)
        r = TranslationRegime(stage1=s1)
        pa, refs = r.translate(0x10)
        assert pa == 0x8000_0010
        assert refs == 3

    def test_two_stage_composition(self):
        s1 = PageTable("s1", stage=1)
        s2 = PageTable("s2", stage=2)
        # VA 0 -> IPA 2M (2M block); IPA 2M -> PA 6M (4K pages)
        s1.map(0, BLOCK_2M, BLOCK_2M, block_size=BLOCK_2M)
        s2.map(BLOCK_2M, 3 * BLOCK_2M, BLOCK_2M)
        r = TranslationRegime(stage1=s1, stage2=s2)
        pa, refs = r.translate(0x1500)
        assert pa == 3 * BLOCK_2M + 0x1500
        # n1=2 (2M block), n2=3 (4K page): (2+1)(3+1)-1 = 11
        assert refs == 11
        assert r.two_stage

    def test_two_stage_fault_in_stage2(self):
        s1 = PageTable("s1", stage=1)
        s2 = PageTable("s2", stage=2)
        s1.map(0, 0x10_0000 * 16, PAGE_4K)  # IPA has no stage-2 mapping
        r = TranslationRegime(stage1=s1, stage2=s2)
        with pytest.raises(TranslationFault) as ei:
            r.translate(0)
        assert ei.value.stage == 2

    def test_stage2_only(self):
        s2 = PageTable("s2", stage=2)
        s2.map(0, BLOCK_2M, BLOCK_2M, block_size=BLOCK_2M)
        r = TranslationRegime(stage2=s2)
        pa, refs = r.translate(0x42)
        assert pa == BLOCK_2M + 0x42
        assert refs == 2

    def test_stage_mismatch_rejected(self):
        s1 = PageTable("x", stage=1)
        with pytest.raises(ConfigurationError):
            TranslationRegime(stage2=s1)
        s2 = PageTable("y", stage=2)
        with pytest.raises(ConfigurationError):
            TranslationRegime(stage1=s2)

    def test_walk_refs_estimate(self):
        s1 = PageTable("s1", stage=1)
        s1.map(0, 0, BLOCK_2M, block_size=BLOCK_2M)
        s2 = PageTable("s2", stage=2)
        s2.map(0, 0, BLOCK_2M)
        r = TranslationRegime(stage1=s1, stage2=s2)
        assert r.walk_refs_estimate() == (2 + 1) * (3 + 1) - 1


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
def test_walk_refs_formula(n1, n2):
    refs = walk_refs(n1, n2)
    if n1 and n2:
        # Paper Section V-b: two page-table sets traversed per translation.
        assert refs == (n1 + 1) * (n2 + 1) - 1
        assert refs > n1 + n2  # strictly worse than the sum
    else:
        assert refs == n1 or refs == n2 or refs == 0
