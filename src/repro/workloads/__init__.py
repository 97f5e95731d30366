"""Workload substrate: social graphs, operation mixes, load traces, generators.

These stand in for the CloudStone benchmark and the production traces
(Animoto's viral growth, Facebook's post-Halloween photo spike, ordinary
diurnal cycles) that the paper's evaluation plan relies on.
"""

from repro.workloads.social_graph import SocialGraph, UserProfile
from repro.workloads.opmix import CloudStoneMix, Operation, OperationKind
from repro.workloads.traces import (
    AnimotoViralTrace,
    ConstantTrace,
    DiurnalTrace,
    HalloweenSpikeTrace,
    LoadTrace,
)
from repro.workloads.generator import LoadGenerator

__all__ = [
    "SocialGraph",
    "UserProfile",
    "CloudStoneMix",
    "Operation",
    "OperationKind",
    "LoadTrace",
    "ConstantTrace",
    "DiurnalTrace",
    "AnimotoViralTrace",
    "HalloweenSpikeTrace",
    "LoadGenerator",
]
