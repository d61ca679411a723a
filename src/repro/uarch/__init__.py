"""Microarchitecture substrate: caches, BTB, fetch policies, cycle simulator."""

from repro.uarch.btb import BranchTargetBuffer, ReturnAddressStack
from repro.uarch.caches import Cache, CacheStats, MemoryHierarchy, machine_hierarchy
from repro.uarch.config import PAPER_MACHINE, MachineConfig
from repro.uarch.policies import (
    CascadingFetchPolicy,
    DualPathFetchPolicy,
    FetchPolicy,
    OverridingPolicy,
    PolicyPrediction,
    SingleCyclePolicy,
)
from repro.uarch.simulator import CycleSimulator, SimulationResult, StallBreakdown

__all__ = [
    "BranchTargetBuffer",
    "Cache",
    "CacheStats",
    "CascadingFetchPolicy",
    "CycleSimulator",
    "DualPathFetchPolicy",
    "FetchPolicy",
    "MachineConfig",
    "MemoryHierarchy",
    "OverridingPolicy",
    "PAPER_MACHINE",
    "PolicyPrediction",
    "ReturnAddressStack",
    "SimulationResult",
    "SingleCyclePolicy",
    "StallBreakdown",
    "machine_hierarchy",
]
