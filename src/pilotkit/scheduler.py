"""Slot scheduler: first-fit placement of tasks onto free core/GPU slots.

First fit over nodes in index order: a non-MPI task takes the lowest node
that fits it, an MPI task spans the lowest nodes with a free core. Ties
always break toward the lowest node index, then the lowest slot index.

Placement costs what it places, not the pilot's size or the backlog.
``SlotMap`` keeps a free-capacity index, a max tree over node order, that
leads first fit to the lowest node that fits and an MPI span to the nodes
with a free core, and per-node ascending free-slot lists whose prefixes are
the lowest free slots. ``Scheduler`` keeps waiting tasks in one FIFO bucket
per task shape, so a rescan tries bucket heads in arrival order and drops a
shape at its first NoFit instead of walking every waiting task.
"""

from __future__ import annotations

import bisect
import heapq
from collections import deque

from .core import NodeList, PilotkitError, TaskDescription


class UnknownPlacement(PilotkitError):
    pass


class NoFit(Exception):
    """Not an error state: the task goes to the waiting list."""


# One (node, cores, gpus) triple per node the task has slots on, in the
# order the scheduler walked the nodes; cores and gpus are ascending slot
# indices. Plain tuples of ints, so the garbage collector stops tracking them.
Placement = tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]


def format_placement(placement: Placement) -> str:
    """The text form of a placement in trace details: ``node:cores:gpus``
    per node, slots joined by ``,`` and nodes by ``;``, e.g.
    ``0:0,1:0;1:2,3:``."""
    parts = []
    for node, cores, gpus in placement:
        parts.append(f"{node}:{','.join(map(str, cores))}:{','.join(map(str, gpus))}")
    return ";".join(parts)


def parse_placement(text: str) -> Placement:
    """The inverse of :func:`format_placement`."""
    out = []
    for part in text.split(";"):
        node, cores, gpus = part.split(":")
        out.append((int(node),
                    tuple(map(int, cores.split(","))) if cores else (),
                    tuple(map(int, gpus.split(","))) if gpus else ()))
    return tuple(out)


class SlotMap:
    """Occupancy table over a NodeList, the busy-placement ledger and the
    free-capacity index.

    The index is a binary max tree over node order: entry ``k`` holds the
    largest free core count and the largest free GPU count of the nodes
    below it, leaf ``size + i`` is node ``i``, and padding leaves hold -1 so
    that nothing fits there. ``apply``, ``release`` and ``withdraw`` keep
    the index, the per-node free counts and the per-node ascending free-slot
    lists current; these are the pilot's only record of free slots.
    """

    def __init__(self, node_list: NodeList):
        n = len(node_list)
        self.node_list = node_list
        self.busy: dict[str, Placement] = {}
        self.free_cores = [node_list.cores_per_node] * n
        self.free_gpus = [node_list.gpus_per_node] * n
        self.total_free_cores = sum(self.free_cores)
        self.total_free_gpus = sum(self.free_gpus)
        self._core_ids = [list(range(node_list.cores_per_node)) for _ in range(n)]
        self._gpu_ids = [list(range(node_list.gpus_per_node)) for _ in range(n)]
        size = 1
        while size < n:
            size *= 2
        self._size = size
        mc = self._max_cores = [-1] * (2 * size)
        mg = self._max_gpus = [-1] * (2 * size)
        mc[size:size + n] = self.free_cores
        mg[size:size + n] = self.free_gpus
        for k in range(size - 1, 0, -1):
            mc[k] = max(mc[2 * k], mc[2 * k + 1])
            mg[k] = max(mg[2 * k], mg[2 * k + 1])

    def apply(self, uid: str, placement: Placement):
        """Mark a task's placement busy; ``list.remove`` raises ValueError
        for a slot that is not free."""
        if uid in self.busy:
            raise PilotkitError(f"task {uid!r} already placed")
        for i, cores, gpus in placement:
            core_ids, gpu_ids = self._core_ids[i], self._gpu_ids[i]
            for c in cores:
                core_ids.remove(c)
            for g in gpus:
                gpu_ids.remove(g)
            self.free_cores[i] -= len(cores)
            self.free_gpus[i] -= len(gpus)
            self.total_free_cores -= len(cores)
            self.total_free_gpus -= len(gpus)
            self._update(i)
        self.busy[uid] = placement

    def release(self, uid: str):
        """Free the slots of a busy task's placement."""
        placement = self.busy.pop(uid, None)
        if placement is None:
            raise UnknownPlacement(f"task {uid!r} is not busy")
        for i, cores, gpus in placement:
            core_ids, gpu_ids = self._core_ids[i], self._gpu_ids[i]
            for c in cores:
                bisect.insort(core_ids, c)
            for g in gpus:
                bisect.insort(gpu_ids, g)
            self.free_cores[i] += len(cores)
            self.free_gpus[i] += len(gpus)
            self.total_free_cores += len(cores)
            self.total_free_gpus += len(gpus)
            self._update(i)

    def withdraw(self, nodes):
        """Take nodes out of service: nothing is placed on them again.
        Every placement on them must have been released."""
        for i in nodes:
            self.total_free_cores -= self.free_cores[i]
            self.total_free_gpus -= self.free_gpus[i]
            self.free_cores[i] = self.free_gpus[i] = 0
            self._core_ids[i].clear()
            self._gpu_ids[i].clear()
            self._update(i)

    def _update(self, i: int):
        """Refresh node ``i``'s leaf and its ancestors, up to the first
        ancestor whose maxima stay the same."""
        mc, mg = self._max_cores, self._max_gpus
        k = i + self._size
        mc[k], mg[k] = self.free_cores[i], self.free_gpus[i]
        k >>= 1
        while k:
            left, right = 2 * k, 2 * k + 1
            c = mc[left] if mc[left] > mc[right] else mc[right]
            g = mg[left] if mg[left] > mg[right] else mg[right]
            if mc[k] == c and mg[k] == g:
                break
            mc[k], mg[k] = c, g
            k >>= 1

    def _first_fit(self, cores: int, gpus: int, lo: int = 0) -> int:
        """Lowest node index >= ``lo`` with ``cores`` free cores and ``gpus``
        free GPUs, or -1.

        Walks the tree left to right, starting at the largest subtree whose
        leftmost node is ``lo`` (the root when ``lo`` is 0): a subtree whose
        maxima cannot fit is stepped over, one whose maxima can is entered
        at its left child. Both maxima fitting does not mean that one node
        fits both, so an entered subtree may be left again to its right.
        """
        if lo >= len(self.free_cores):
            return -1
        mc, mg, size = self._max_cores, self._max_gpus, self._size
        k = lo + size
        k //= k & -k
        while True:
            if mc[k] >= cores and mg[k] >= gpus:
                if k >= size:
                    return k - size
                k *= 2
                continue
            while k & 1:  # climb while a right child; the root is 1
                k >>= 1
            if not k:
                return -1
            k += 1

    def _nodes_with_free_cores(self):
        """Indices of the nodes that have a free core, ascending."""
        i = self._first_fit(1, 0)
        while i >= 0:
            yield i
            i = self._first_fit(1, 0, i + 1)

    def _take(self, i: int, cores: int, gpus: int):
        """Node ``i`` with its lowest ``cores`` free cores and ``gpus`` free
        GPUs: one triple of a placement."""
        return i, tuple(self._core_ids[i][:cores]), tuple(self._gpu_ids[i][:gpus])


def allocate_continuous(td: TaskDescription, sm: SlotMap) -> Placement:
    """First-fit placement; raises NoFit when no capacity is available.

    Non-MPI tasks take the first node (lowest index) with enough free cores
    and GPUs. MPI tasks greedily take free capacity from nodes in index
    order; a node contributes GPUs only if it also contributes cores. The
    free-capacity index finds these nodes.
    """
    c_need, g_need = td.cores_per_task, td.gpus_per_task
    if not td.uses_mpi:
        i = sm._first_fit(c_need, g_need)
        if i < 0:
            raise NoFit(td.uid)
        placement = (sm._take(i, c_need, g_need),)
        sm.apply(td.uid, placement)
        return placement
    # MPI: greedy span over nodes in index order.
    if sm.total_free_cores < c_need or sm.total_free_gpus < g_need:
        raise NoFit(td.uid)
    placement = []
    remaining_c, remaining_g = c_need, g_need
    for i in sm._nodes_with_free_cores():
        if remaining_c == 0:
            break
        take_c = min(sm.free_cores[i], remaining_c)
        take_g = min(sm.free_gpus[i], remaining_g)
        placement.append(sm._take(i, take_c, take_g))
        remaining_c -= take_c
        remaining_g -= take_g
    if remaining_c > 0 or remaining_g > 0:
        raise NoFit(td.uid)
    placement = tuple(placement)
    sm.apply(td.uid, placement)
    return placement


class Scheduler:
    """Waiting tasks plus first-fit allocation over a SlotMap.

    ``submit`` queues a task in ``waiting`` (uid -> description, in arrival
    order) and in the FIFO bucket of its shape: cores, GPUs, MPI. ``rescan``
    merges the bucket heads in arrival order on a heap and places every task
    that fits. A shape is done for the rescan at its first NoFit, and a
    shape that a failed one dominates (as many cores and GPUs or more, same
    MPI capability) is skipped untried. Free capacity only shrinks during a
    rescan, so for most shapes that is what trying would find. It is a rule,
    not a consequence, for an MPI shape with GPUs: its span takes the cores
    of the lowest nodes first and GPUs only where it takes cores, so its
    task can fit where a smaller failed shape did not, or once an earlier
    node has lost cores, and it still waits for the next rescan. The rescan
    stops once free cores cannot fit the smallest waiting shape. It then
    leaves in ``newly_waiting`` the tasks submitted since the previous
    rescan that were not placed, in arrival order.
    """

    def __init__(self, slot_map: SlotMap):
        self.slot_map = slot_map
        self.waiting: dict[str, TaskDescription] = {}
        self.newly_waiting: list[TaskDescription] = []
        self._buckets: dict[tuple, deque[tuple[int, TaskDescription]]] = {}
        self._seq = 0
        self._submitted: list[TaskDescription] = []  # since the last rescan

    def submit(self, td: TaskDescription):
        if td.uid in self.waiting:
            raise PilotkitError(f"task {td.uid!r} already waiting")
        self.waiting[td.uid] = td
        key = (td.cores_per_task, td.gpus_per_task, td.uses_mpi)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = deque()
        bucket.append((self._seq, td))
        self._seq += 1
        self._submitted.append(td)

    def waiting_count(self) -> int:
        return len(self.waiting)

    def take_waiting(self) -> list[TaskDescription]:
        """Remove every waiting task; returns them in arrival order."""
        tds = list(self.waiting.values())
        self.waiting.clear()
        self._buckets.clear()
        self._submitted.clear()
        return tds

    def _min_waiting_cores(self) -> int:
        return min((key[0] for key in self._buckets), default=0)

    def try_allocate(self, td: TaskDescription) -> Placement:
        return allocate_continuous(td, self.slot_map)

    def rescan(self) -> list[tuple[TaskDescription, Placement]]:
        placed: list[tuple[TaskDescription, Placement]] = []
        submitted, self._submitted = self._submitted, []
        sm, buckets = self.slot_map, self._buckets
        if not buckets:
            self.newly_waiting = []
            return placed
        heads = [(bucket[0][0], key) for key, bucket in buckets.items()]
        heapq.heapify(heads)
        # fewest[mpi][g]: the fewest cores of a failed shape with at most g
        # GPUs; a shape with as many cores or more is skipped. A table, not a
        # list of failed shapes, because every bucket head is checked on
        # every rescan.
        top = max(key[1] for key in buckets) + 1
        fewest = {False: [float("inf")] * top, True: [float("inf")] * top}
        min_cores = max(self._min_waiting_cores(), 1)
        while heads:
            if sm.total_free_cores < min_cores:
                break
            _, key = heapq.heappop(heads)
            c, g, mpi = key
            if c >= fewest[mpi][g]:
                continue
            bucket = buckets[key]
            td = bucket[0][1]
            try:
                placement = self.try_allocate(td)
            except NoFit:
                limits = fewest[mpi]
                for j in range(g, top):
                    if limits[j] > c:
                        limits[j] = c
                continue
            placed.append((td, placement))
            del self.waiting[td.uid]
            bucket.popleft()
            if bucket:
                heapq.heappush(heads, (bucket[0][0], key))
            else:
                del buckets[key]
                if c <= min_cores:
                    min_cores = max(self._min_waiting_cores(), 1)
        waiting = self.waiting
        self.newly_waiting = [td for td in submitted if td.uid in waiting]
        return placed

    def complete(self, uid: str):
        self.slot_map.release(uid)
