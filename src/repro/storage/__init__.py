"""Storage middleware: the virtual-disk use case.

The paper motivates TRAP-ERC with virtual-machine disk storage; this
package provides that application: a strongly consistent logical block
device (:class:`VirtualDisk`) striped over TRAP-ERC, plus the retrying
:class:`DiskClient` a guest would use.
"""

from repro.storage.client import ClientStats, DiskClient
from repro.storage.placement import (
    IdentityPlacement,
    PlacementPolicy,
    RotatingPlacement,
)
from repro.storage.volume import VirtualDisk

__all__ = [
    "VirtualDisk",
    "DiskClient",
    "ClientStats",
    "PlacementPolicy",
    "IdentityPlacement",
    "RotatingPlacement",
]
