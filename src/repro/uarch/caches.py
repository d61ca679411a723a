"""Cache models for the cycle simulator.

Table 1 of the paper fixes the hierarchy: 64KB direct-mapped L1 I- and
D-caches with 64-byte lines, and a 2MB 4-way L2 with 128-byte lines.  The
model tracks tags only (no data), with LRU replacement for the set-
associative L2.  :func:`machine_hierarchy` builds the hierarchy a
:class:`MachineConfig` describes; the stall cycles it returns are the
config's L2 and memory latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.bits import is_power_of_two, log2_exact
from repro.common.errors import ConfigurationError
from repro.uarch.config import PAPER_MACHINE, MachineConfig


@dataclass
class CacheStats:
    """Access/miss counters for one cache level."""

    accesses: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        """Misses per access (0.0 before any access)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


class Cache:
    """A tag-only cache model: ``size_bytes`` with ``line_bytes`` lines and
    ``ways`` associativity (1 = direct mapped), true-LRU replacement."""

    def __init__(self, size_bytes: int, line_bytes: int, ways: int = 1) -> None:
        if not is_power_of_two(line_bytes):
            raise ConfigurationError(f"line size must be a power of two, got {line_bytes}")
        if ways < 1:
            raise ConfigurationError(f"associativity must be >= 1, got {ways}")
        lines = size_bytes // line_bytes
        if lines < ways or lines % ways:
            raise ConfigurationError(
                f"cache of {size_bytes}B / {line_bytes}B lines cannot be {ways}-way"
            )
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.sets = lines // ways
        if not is_power_of_two(self.sets):
            raise ConfigurationError(f"cache must have a power-of-two set count, got {self.sets}")
        self.line_shift = log2_exact(line_bytes)
        self.stats = CacheStats()
        # tags[set, way]; -1 = invalid.  lru[set, way]: higher = more recent.
        self._tags = np.full((self.sets, ways), -1, dtype=np.int64)
        self._lru = np.zeros((self.sets, ways), dtype=np.int64)
        self._clock = 0

    def _locate(self, address: int) -> tuple[int, int]:
        line = address >> self.line_shift
        return line % self.sets, line // self.sets

    def access(self, address: int) -> bool:
        """Access (and fill on miss); returns True on hit."""
        set_index, tag = self._locate(address)
        self._clock += 1
        self.stats.accesses += 1
        ways = self._tags[set_index]
        hits = np.nonzero(ways == tag)[0]
        if hits.size:
            self._lru[set_index, hits[0]] = self._clock
            return True
        self.stats.misses += 1
        victim = int(np.argmin(self._lru[set_index]))
        self._tags[set_index, victim] = tag
        self._lru[set_index, victim] = self._clock
        return False

    def probe(self, address: int) -> bool:
        """Check residency without updating state (used by tests)."""
        set_index, tag = self._locate(address)
        return bool((self._tags[set_index] == tag).any())

    def flush(self) -> None:
        """Invalidate every line."""
        self._tags.fill(-1)
        self._lru.fill(0)


@dataclass
class MemoryHierarchy:
    """L1 I/D backed by a shared L2 and a flat memory latency.

    ``access_*`` methods return the *additional* stall cycles beyond an L1
    hit, so an L1 hit costs 0 here (its latency is part of the pipeline).
    """

    l1i: Cache
    l1d: Cache
    l2: Cache
    l2_hit_cycles: int = 12
    memory_cycles: int = 200
    stats_l2_from_i: CacheStats = field(default_factory=CacheStats)

    def access_instruction(self, address: int) -> int:
        """Stall cycles for an instruction fetch beyond an L1I hit."""
        if self.l1i.access(address):
            return 0
        if self.l2.access(address):
            return self.l2_hit_cycles
        return self.memory_cycles

    def access_data(self, address: int) -> int:
        """Stall cycles for a data access beyond an L1D hit."""
        if self.l1d.access(address):
            return 0
        if self.l2.access(address):
            return self.l2_hit_cycles
        return self.memory_cycles


def machine_hierarchy(config: MachineConfig = PAPER_MACHINE) -> MemoryHierarchy:
    """A cold hierarchy with ``config``'s cache geometry and latencies
    (Table 1 by default): direct-mapped L1 I- and D-caches and a
    set-associative shared L2."""
    return MemoryHierarchy(
        l1i=Cache(config.l1_size, config.l1_line, ways=1),
        l1d=Cache(config.l1_size, config.l1_line, ways=1),
        l2=Cache(config.l2_size, config.l2_line, ways=config.l2_ways),
        l2_hit_cycles=config.l2_hit_cycles,
        memory_cycles=config.memory_cycles,
    )
