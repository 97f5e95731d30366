"""Reproduction of SCADS: Scale-Independent Storage for Social Computing Applications.

The package is organised as a set of substrates (``sim``, ``storage``,
``cloud``, ``workloads``, ``ml``, ``metrics``), the paper's core contribution
(``core``) built on top of them, and the comparison baselines
(``baselines``).  The public entry point for applications is
:class:`repro.core.engine.Scads`.
"""

from repro.core.engine import Scads
# Imported after the engine: the cache package reaches back into
# repro.core.consistency, so letting the engine import complete first keeps
# the (benign) cycle one-directional at import time.
from repro.cache.tier import CacheConfig
from repro.core.schema import EntitySchema, Field, FieldType
from repro.core.consistency import (
    ConsistencySpec,
    DurabilitySLA,
    PerformanceSLA,
    ReadConsistency,
    SessionGuarantee,
    WriteConsistency,
)

__version__ = "0.1.0"

__all__ = [
    "Scads",
    "CacheConfig",
    "EntitySchema",
    "Field",
    "FieldType",
    "ConsistencySpec",
    "PerformanceSLA",
    "WriteConsistency",
    "ReadConsistency",
    "SessionGuarantee",
    "DurabilitySLA",
    "__version__",
]
