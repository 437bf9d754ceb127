"""Storage middleware: the paper's virtual-disk use case.

A strongly consistent logical block device (:class:`VirtualDisk`)
striped over TRAP-ERC, optionally under a :class:`RotatingPlacement`.
"""

from repro.core.placement import RotatingPlacement
from repro.storage.volume import VirtualDisk

__all__ = ["VirtualDisk", "RotatingPlacement"]
