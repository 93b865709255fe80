"""MMU model: stage-1 / stage-2 translation over real page-table structures.

We model the ARMv8 4 KiB-granule, 39-bit VA regime the Kitten ARM64 port
uses: a 3-level table where level 1 maps 1 GiB blocks, level 2 maps 2 MiB
blocks, and level 3 maps 4 KiB pages. A table is stored as a sorted list
of non-overlapping extents, one per ``map`` call: ``[start, end)`` mapped
to an output base with one block size and one set of attributes. An
extent stands for the ``(end - start) / block_size`` descriptors a real
table would hold, so overlap checks and lookups are a ``bisect`` each, and
``entry_count`` still counts descriptors. ``translate`` reports both the
output address and the number of descriptor fetches the hardware walker
would have performed — the quantity the performance model charges on a
TLB miss.

Under virtualization every stage-1 descriptor fetch is itself translated
by stage 2, so a combined walk costs ``(n1 + 1) * (n2 + 1) - 1`` memory
references for walks of n1/n2 levels — the paper's Section V-b argument for
why RandomAccess suffers most under Hafnium.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.common.errors import ConfigurationError, HardwareFault

PAGE_4K = 4 * 1024
BLOCK_2M = 2 * 1024 * 1024
BLOCK_1G = 1024 * 1024 * 1024

# Walk depth (descriptor fetches) by mapping granularity, for the 3-level
# 39-bit VA regime: a 1 GiB block resolves at level 1 (1 fetch), a 2 MiB
# block at level 2 (2 fetches), a 4 KiB page at level 3 (3 fetches).
WALK_DEPTH = {BLOCK_1G: 1, BLOCK_2M: 2, PAGE_4K: 3}
VALID_BLOCK_SIZES = (PAGE_4K, BLOCK_2M, BLOCK_1G)

VA_BITS = 39
VA_LIMIT = 1 << VA_BITS


class TranslationFault(HardwareFault):
    """Raised when a translation has no valid mapping or permission."""

    def __init__(self, message: str, *, address: int, stage: int, reason: str):
        super().__init__(message, address=address, fault_type=f"translation-s{stage}")
        self.stage = stage
        self.reason = reason


@dataclass(frozen=True)
class PageAttrs:
    """Access permissions + ownership tag on a mapping."""

    read: bool = True
    write: bool = True
    execute: bool = False
    device: bool = False
    owner: str = ""

    def permits(self, access: str) -> bool:
        if access == "r":
            return self.read
        if access == "w":
            return self.write
        if access == "x":
            return self.execute
        raise ValueError(f"unknown access kind {access!r}")


class Extent(NamedTuple):
    """One contiguous mapping: input ``[start, end)`` -> ``output_base``
    onward, built from ``block_size`` descriptors sharing ``attrs``."""

    start: int
    end: int
    output_base: int
    attrs: PageAttrs
    block_size: int


class PageTable:
    """One translation stage; maps input addresses to output addresses."""

    def __init__(self, name: str = "pt", stage: int = 1):
        if stage not in (1, 2):
            raise ConfigurationError(f"stage must be 1 or 2, got {stage}")
        self.name = name
        self.stage = stage
        # Non-overlapping extents sorted by start; _starts mirrors their
        # start addresses for bisect (bisect's key= needs Python 3.10).
        self._extents: List[Extent] = []
        self._starts: List[int] = []
        # block_size -> bytes mapped with descriptors of that size
        self._bytes: Dict[int, int] = {bs: 0 for bs in VALID_BLOCK_SIZES}
        self.generation = 0  # bumped on any change; TLB shootdown hook

    # -- construction ------------------------------------------------------

    def map(
        self,
        va: int,
        pa: int,
        size: int,
        attrs: PageAttrs = PageAttrs(),
        block_size: int = PAGE_4K,
    ) -> int:
        """Map [va, va+size) -> [pa, pa+size) using `block_size` entries.

        Returns the number of entries installed. Addresses and size must be
        block aligned; overlapping an existing mapping at any granularity
        is an error (the hypervisor model relies on this to prevent
        aliasing two VMs).
        """
        if block_size not in VALID_BLOCK_SIZES:
            raise ConfigurationError(f"invalid block size {block_size:#x}")
        if va % block_size or pa % block_size or size % block_size:
            raise ConfigurationError(
                f"{self.name}: mapping {va:#x}->{pa:#x} (+{size:#x}) not aligned "
                f"to block {block_size:#x}"
            )
        if size <= 0:
            raise ConfigurationError("mapping size must be positive")
        end = va + size
        if end > VA_LIMIT:
            raise ConfigurationError(
                f"{self.name}: VA {va:#x}+{size:#x} exceeds {VA_BITS}-bit space"
            )
        # The only extents that can overlap are the last one starting at or
        # before `va` and the first one starting after it.
        i = bisect_right(self._starts, va)
        clash = None
        if i and self._extents[i - 1].end > va:
            clash = va
        elif i < len(self._starts) and self._starts[i] < end:
            clash = self._starts[i] & ~(block_size - 1)
        if clash is not None:
            raise ConfigurationError(f"{self.name}: {clash:#x} already mapped")
        self._extents.insert(i, Extent(va, end, pa, attrs, block_size))
        self._starts.insert(i, va)
        self._bytes[block_size] += size
        self.generation += 1
        return size // block_size

    def unmap(self, va: int, size: int, block_size: int = PAGE_4K) -> int:
        """Remove the `block_size` entries covering [va, va+size).

        Entries of other sizes in the range stay. Returns entries removed.
        """
        if block_size not in VALID_BLOCK_SIZES:
            raise ConfigurationError(f"invalid block size {block_size:#x}")
        if va % block_size or size % block_size:
            raise ConfigurationError("unmap range not block aligned")
        end = va + size
        extents = self._extents
        lo = hi = max(bisect_right(self._starts, va) - 1, 0)
        kept: List[Extent] = []
        removed = 0
        while hi < len(extents) and extents[hi].start < end:
            ext = extents[hi]
            hi += 1
            cut_lo, cut_hi = max(ext.start, va), min(ext.end, end)
            if ext.block_size != block_size or cut_lo >= cut_hi:
                kept.append(ext)
                continue
            if ext.start < cut_lo:
                kept.append(ext._replace(end=cut_lo))
            if cut_hi < ext.end:
                kept.append(ext._replace(
                    start=cut_hi, output_base=ext.output_base + cut_hi - ext.start
                ))
            removed += (cut_hi - cut_lo) // block_size
        if removed:
            extents[lo:hi] = kept
            self._starts[lo:hi] = [ext.start for ext in kept]
            self._bytes[block_size] -= removed * block_size
            self.generation += 1
        return removed

    # -- lookup ------------------------------------------------------------

    def _lookup_block(self, addr: int) -> Optional[Tuple[int, int, PageAttrs, int]]:
        """Find the mapping covering `addr`.

        Returns (block_va, output_base, attrs, block_size) for the single
        descriptor holding `addr`, or None.
        """
        i = bisect_right(self._starts, addr) - 1
        if i < 0:
            return None
        start, end, out_base, attrs, block_size = self._extents[i]
        if addr >= end:
            return None
        block_va = addr & ~(block_size - 1)
        return (block_va, out_base + (block_va - start), attrs, block_size)

    def translate(self, addr: int, access: str = "r") -> Tuple[int, int, PageAttrs, int]:
        """Translate one input address.

        Returns (output_addr, walk_depth, attrs, block_size); raises
        :class:`TranslationFault` on a hole or permission failure.
        """
        hit = self._lookup_block(addr)
        if hit is None:
            raise TranslationFault(
                f"{self.name}: no stage-{self.stage} mapping for {addr:#x}",
                address=addr,
                stage=self.stage,
                reason="unmapped",
            )
        block_va, out_base, attrs, block_size = hit
        if not attrs.permits(access):
            raise TranslationFault(
                f"{self.name}: stage-{self.stage} permission fault "
                f"({access!r}) at {addr:#x}",
                address=addr,
                stage=self.stage,
                reason="permission",
            )
        return (out_base + (addr - block_va), WALK_DEPTH[block_size], attrs, block_size)

    def is_mapped(self, addr: int) -> bool:
        return self._lookup_block(addr) is not None

    def extents(self) -> Iterator[Extent]:
        """Iterate the mappings as extents, in input-address order."""
        return iter(self._extents[:])

    def entry_count(self) -> int:
        """Descriptors installed (one per block of each extent)."""
        return sum(b // bs for bs, b in self._bytes.items())

    def mapped_bytes(self) -> int:
        return sum(self._bytes.values())

    def dominant_block_size(self) -> int:
        """The block size covering the most bytes (perf-model input); ties
        go to the smaller size."""
        return max(VALID_BLOCK_SIZES, key=self._bytes.__getitem__)


class TranslationRegime:
    """The active translation context of a core: stage 1 (+ optional stage 2).

    ``stage1=None`` models an identity-mapped regime (EL2 running with MMU
    flat-mapped, or physical addressing during early boot).
    """

    def __init__(
        self,
        stage1: Optional[PageTable] = None,
        stage2: Optional[PageTable] = None,
        name: str = "regime",
    ):
        if stage1 is not None and stage1.stage != 1:
            raise ConfigurationError("stage1 table must have stage=1")
        if stage2 is not None and stage2.stage != 2:
            raise ConfigurationError("stage2 table must have stage=2")
        self.stage1 = stage1
        self.stage2 = stage2
        self.name = name

    @property
    def two_stage(self) -> bool:
        return self.stage1 is not None and self.stage2 is not None

    def translate(self, va: int, access: str = "r") -> Tuple[int, int]:
        """Full translation VA -> PA.

        Returns (pa, walk_refs) where walk_refs counts descriptor fetches,
        including the stage-2 translations of stage-1 descriptor fetches
        under virtualization: (n1+1)(n2+1)-1.
        """
        if self.stage1 is None and self.stage2 is None:
            return (va, 0)
        if self.stage1 is None:
            pa, depth2, _, _ = self.stage2.translate(va, access)
            return (pa, depth2)
        ipa, depth1, _, _ = self.stage1.translate(va, access)
        if self.stage2 is None:
            return (ipa, depth1)
        pa, depth2, _, _ = self.stage2.translate(ipa, access)
        return (pa, (depth1 + 1) * (depth2 + 1) - 1)

    def walk_refs_estimate(self) -> int:
        """Typical walk cost (descriptor fetches) for this regime, using the
        dominant block size of each stage — the perf model's TLB-miss cost."""
        n1 = WALK_DEPTH[self.stage1.dominant_block_size()] if self.stage1 else 0
        n2 = WALK_DEPTH[self.stage2.dominant_block_size()] if self.stage2 else 0
        if n1 and n2:
            return (n1 + 1) * (n2 + 1) - 1
        return n1 or n2


def walk_refs(n1_levels: int, n2_levels: int) -> int:
    """Descriptor fetches for an n1-level stage-1 walk under an n2-level
    stage-2 (0 = stage absent)."""
    if n1_levels and n2_levels:
        return (n1_levels + 1) * (n2_levels + 1) - 1
    return n1_levels or n2_levels
