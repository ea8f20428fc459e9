"""Software jump-pointers: the queue method and the jump-pointer prefetch.

The paper's two building blocks are *jump-pointer prefetches* (through a
pointer installed *I* nodes ahead) and *chained prefetches* (through the
program's own pointers).  Four idioms combine them into a prefetching
solution for one data structure (Section 2.2):

* **queue jumping** — jump-pointers at every node of a "backbone-only"
  structure (list, tree, graph of one node type), created with the queue
  method; the whole structure is prefetched through them.
* **full jumping** — "backbone-and-ribs" structures; every node carries a
  jump-pointer to the node *I* hops ahead *and* to that node's rib(s); all
  prefetches are jump-pointer prefetches and proceed in parallel.
* **chain jumping** — jump-pointer prefetch for the backbone, chained
  prefetches for the ribs; half the jump-pointer storage/maintenance of
  full jumping, but prefetches serialize (needs a longer interval).
* **root jumping** — a single jump-pointer to the *root* of the next small
  structure; the structure is prefetched entirely with chained prefetches.
  Immune to structure mutation, but serial and only fit for short chains.

Queue method (Section 2.1): on creation or first traversal of a
structure, a FIFO of the last *I* node addresses is maintained.  As each
node is visited, a jump-pointer is installed from the node at the head of
the queue (*home*, visited *I* hops ago) to the current node (*target*),
and the queue advances.

:class:`SoftwareJumpQueue` emits the corresponding mini-ISA code into a
workload's assembler: the queue lives in static data (a circular buffer
plus an index word), and each ``update`` call costs ~9 instructions — the
explicit creation overhead the paper measures (e.g. health's a-priori 12%
slowdown).  :func:`emit_jump_prefetch` emits the prefetch through a
jump-pointer, which is where the software and cooperative
implementations differ (Section 3).
"""

from __future__ import annotations

from ..isa.assembler import Assembler
from ..isa.registers import ZERO


class SoftwareJumpQueue:
    """Emits queue-method jump-pointer creation code.

    Parameters
    ----------
    a:
        The assembler being built into.
    interval:
        The jump distance *I* in nodes.
    name:
        Unique name (several queues can coexist, e.g. full jumping keeps
        one per pointer kind).
    """

    def __init__(self, a: Assembler, interval: int, name: str = "jq") -> None:
        if interval < 1 or interval & (interval - 1):
            raise ValueError(
                f"jump interval must be a positive power of two, got {interval}"
            )
        self.a = a
        self.interval = interval
        self.name = name
        self.buf = a.space(interval)  # circular buffer of node addresses
        self.idx = a.word(0)          # current byte offset (0..4*interval-4)

    def reset(self, tmp: int) -> None:
        """Clear the queue (between independent traversals)."""
        a = self.a
        for i in range(self.interval):
            a.li(tmp, self.buf + 4 * i)
            a.sw(ZERO, tmp, 0)
        a.li(tmp, self.idx)
        a.sw(ZERO, tmp, 0)

    def update(
        self,
        node: int,
        jp_off: int,
        t_idx: int,
        t_addr: int,
        t_home: int,
        target: int | None = None,
        extra: list[tuple[int, int]] | None = None,
        reverse: bool = False,
    ) -> None:
        """Visit ``node``: install a jump-pointer at the home node and
        enqueue the current node.

        ``jp_off`` is the offset of the jump-pointer field in a node;
        ``target`` (default: ``node``) is the value stored.  ``extra`` is a
        list of additional ``(offset, value_register)`` stores into the home
        node — full jumping installs its rib jump-pointers this way.
        ``reverse=True`` stores the *home's address into the current node*
        instead: use it when the creation order is the reverse of the later
        traversal order (e.g. a list built by prepending).  ``t_*`` are
        scratch registers.
        """
        a = self.a
        skip = a.newlabel(f"{self.name}_noinstall")
        a.li(t_addr, self.idx)
        a.lw(t_idx, t_addr, 0)                   # i = idx (byte offset)
        a.addi(t_addr, t_idx, self.buf)          # &buf[i]
        a.lw(t_home, t_addr, 0)                  # home = buf[i]
        a.beqz(t_home, skip)                     # queue still filling
        if reverse:
            a.sw(t_home, node, jp_off)
        else:
            a.sw(target if target is not None else node, t_home, jp_off)
            for off, reg in extra or ():
                a.sw(reg, t_home, off)
        a.label(skip)
        a.sw(node, t_addr, 0)                    # buf[i] = node
        a.addi(t_idx, t_idx, 4)                  # i = (i + 4) & (4I - 4)
        a.andi(t_idx, t_idx, 4 * self.interval - 4)
        a.li(t_addr, self.idx)
        a.sw(t_idx, t_addr, 0)


def emit_jump_prefetch(
    a: Assembler, impl: str, node: int, jp_off: int, tmp: int
) -> None:
    """Prefetch through the jump-pointer at ``jp_off(node)``.

    ``sw`` (software JPP) loads the jump-pointer into ``tmp`` — an LDS
    load — and issues a dependent non-binding prefetch, Luk & Mowry's
    convention.  ``coop`` (cooperative JPP) reduces the pair to one
    ``JPF``; the dependence hardware performs the dependent prefetch and
    any chained prefetches (Section 3.2).  ``baseline`` emits nothing.
    """
    if impl == "sw":
        a.lw(tmp, node, jp_off, tag="lds")
        a.pf(tmp, 0)
    elif impl == "coop":
        a.jpf(node, jp_off)
