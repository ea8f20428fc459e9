"""The paper's primary contribution: the jump-pointer prefetching framework.

* :mod:`repro.core.jump_queue` — the four idioms, the software queue
  method for creating jump-pointers, and the one jump-pointer prefetch
  emitter that states the software and cooperative implementations.
  Every workload builder emits its jump-pointer code through it.
* :mod:`repro.core.characterization` — Table-1 program characterization.
"""

from .characterization import CharacterizationRow, characterize
from .jump_queue import SoftwareJumpQueue, emit_jump_prefetch

__all__ = [
    "CharacterizationRow",
    "SoftwareJumpQueue",
    "characterize",
    "emit_jump_prefetch",
]
