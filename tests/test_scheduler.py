"""Scheduler tests, including equivalence against an independent
brute-force first-fit oracle that works directly on slot-state copies."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from pilotkit.core import Fabric, PilotDescription, PilotkitError, build_node_list
from pilotkit.scheduler import (
    NoFit,
    Scheduler,
    SlotMap,
    UnknownPlacement,
    allocate_continuous,
    format_placement,
    parse_placement,
)

from conftest import task


# --- independent oracle -------------------------------------------------
# Re-derives first-fit placement by scanning raw slot states; shares no
# code or caching with the production allocator.

def oracle_allocate(cores, gpus, mpi, node_states):
    """node_states: list of (core_list, gpu_list); mutated on success.
    Returns [(node, core_idx_list, gpu_idx_list)] or None."""
    def free(states, n):
        idx = [i for i, s in enumerate(states) if s == 0]
        return idx[:n] if len(idx) >= n else None

    if not mpi:
        for ni, (cs, gs) in enumerate(node_states):
            ci = free(cs, cores)
            gi = free(gs, gpus)
            if ci is not None and gi is not None:
                for i in ci:
                    cs[i] = 1
                for i in gi:
                    gs[i] = 1
                return [(ni, ci, gi)]
        return None
    total_free_c = sum(s == 0 for cs, _ in node_states for s in cs)
    total_free_g = sum(s == 0 for _, gs in node_states for s in gs)
    if total_free_c < cores or total_free_g < gpus:
        return None
    plan = []
    rem_c, rem_g = cores, gpus
    for ni, (cs, gs) in enumerate(node_states):
        if rem_c == 0:
            break
        ci = [i for i, s in enumerate(cs) if s == 0][:rem_c]
        if not ci:
            continue
        gi = [i for i, s in enumerate(gs) if s == 0][:rem_g]
        plan.append((ni, ci, gi))
        rem_c -= len(ci)
        rem_g -= len(gi)
    if rem_c or rem_g:
        return None
    for ni, ci, gi in plan:
        for i in ci:
            node_states[ni][0][i] = 1
        for i in gi:
            node_states[ni][1][i] = 1
    return plan


def snapshot(sm):
    """0 (free) or 1 (busy) per core and per GPU slot of each node."""
    nl = sm.node_list
    return [([int(c not in free_c) for c in range(nl.cores_per_node)],
             [int(g not in free_g) for g in range(nl.gpus_per_node)])
            for free_c, free_g in zip(sm._core_ids, sm._gpu_ids)]


def placement_as_plan(p):
    return [(node, list(cores), list(gpus)) for node, cores, gpus in p]


def nodes_of(p):
    return tuple(node for node, _, _ in p)


# --- examples -----------------------------------------------------------

class TestContinuous:
    def test_mpi_spans_two_nodes_first_fit(self, sim_pilot):
        sm = SlotMap(build_node_list(sim_pilot(nodes=2, cores=4)))
        p = allocate_continuous(task("t", cores=6, mpi=True), sm)
        assert placement_as_plan(p) == [(0, [0, 1, 2, 3], []), (1, [0, 1], [])]

    def test_nofit_when_partially_busy(self, sim_pilot):
        sm = SlotMap(build_node_list(sim_pilot(nodes=1, cores=4)))
        allocate_continuous(task("busy", cores=2), sm)
        with pytest.raises(NoFit):
            allocate_continuous(task("t", cores=4), sm)

    def test_non_mpi_single_assignment(self, sim_pilot):
        sm = SlotMap(build_node_list(sim_pilot(nodes=3, cores=4, gpus=1)))
        p = allocate_continuous(task("t", cores=2, gpus=1), sm)
        assert len(p) == 1

    def test_gpu_on_same_node_as_cores(self, sim_pilot):
        sm = SlotMap(build_node_list(sim_pilot(nodes=2, cores=4, gpus=2)))
        p = allocate_continuous(task("t", cores=3, gpus=2, mpi=True), sm)
        core_nodes = {node for node, cores, _ in p if cores}
        gpu_nodes = {node for node, _, gpus in p if gpus}
        assert gpu_nodes <= core_nodes

    def test_lowest_index_tie_break(self, sim_pilot):
        sm = SlotMap(build_node_list(sim_pilot(nodes=2, cores=4)))
        p1 = allocate_continuous(task("a", cores=1), sm)
        p2 = allocate_continuous(task("b", cores=1), sm)
        assert nodes_of(p1) == (0,)
        assert p2[0][1] == (1,)


class TestRelease:
    def test_allocate_release_restores_state(self, sim_pilot):
        sm = SlotMap(build_node_list(sim_pilot(nodes=2, cores=4, gpus=1)))
        before = snapshot(sm)
        allocate_continuous(task("t", cores=3, gpus=1), sm)
        sm.release("t")
        assert snapshot(sm) == before
        assert sm.busy == {}

    def test_double_release(self, sim_pilot):
        sm = SlotMap(build_node_list(sim_pilot()))
        allocate_continuous(task("t"), sm)
        sm.release("t")
        with pytest.raises(UnknownPlacement):
            sm.release("t")

    def test_conservation(self, sim_pilot):
        sm = SlotMap(build_node_list(sim_pilot(nodes=3, cores=4, gpus=2)))
        rng = random.Random(0)
        placed = []
        for i in range(30):
            if placed and rng.random() < 0.4:
                sm.release(placed.pop(rng.randrange(len(placed))))
            else:
                try:
                    allocate_continuous(task(f"t{i}", cores=rng.randint(1, 4),
                                             gpus=rng.randint(0, 2)), sm)
                    placed.append(f"t{i}")
                except NoFit:
                    pass
            free = sum(len(ids) for ids in sm._core_ids + sm._gpu_ids)
            busy = sum(len(cores) + len(gpus)
                       for p in sm.busy.values() for _, cores, gpus in p)
            assert free + busy == 3 * (4 + 2)


class TestWithdraw:
    def test_withdrawn_nodes_take_nothing(self, sim_pilot):
        sm = SlotMap(build_node_list(sim_pilot(nodes=3, cores=4, gpus=1)))
        sm.withdraw([0, 1])
        assert (sm.total_free_cores, sm.total_free_gpus) == (4, 1)
        assert nodes_of(allocate_continuous(task("t", cores=1), sm)) == (2,)
        assert nodes_of(allocate_continuous(task("m", cores=3, mpi=True), sm)) == (2,)
        with pytest.raises(NoFit):
            allocate_continuous(task("u", cores=1), sm)


class TestSchedulerLoop:
    def test_32_tasks_on_8_cores_runs_in_4_generations(self, sim_pilot):
        sched = Scheduler(SlotMap(build_node_list(sim_pilot(nodes=2, cores=4))))
        for i in range(32):
            sched.submit(task(f"t{i}"))
        generations = 0
        while sched.waiting or sched.slot_map.busy:
            placed = sched.rescan()
            if placed:
                generations += 1
                assert len(placed) <= 8
            for uid in list(sched.slot_map.busy):
                sched.complete(uid)
        assert generations == 4

    def test_exact_fit_zero_wait(self, sim_pilot):
        sched = Scheduler(SlotMap(build_node_list(sim_pilot(nodes=1, cores=4))))
        sched.submit(task("t", cores=4))
        assert len(sched.rescan()) == 1
        assert sched.waiting_count() == 0

    def test_fifo_rescan_places_later_smaller_tasks(self, sim_pilot):
        sched = Scheduler(SlotMap(build_node_list(sim_pilot(nodes=1, cores=4))))
        sched.submit(task("big", cores=4))
        sched.submit(task("small", cores=1))
        placed = sched.rescan()
        assert [td.uid for td, _ in placed] == ["big"]
        sched.submit(task("tiny", cores=0 + 1))
        assert sched.rescan() == []
        sched.complete("big")
        placed = sched.rescan()
        assert [td.uid for td, _ in placed] == ["small", "tiny"]

    def test_duplicate_uid_rejected(self, sim_pilot):
        sched = Scheduler(SlotMap(build_node_list(sim_pilot(nodes=1, cores=1))))
        sched.submit(task("t"))
        with pytest.raises(PilotkitError, match="already waiting"):
            sched.submit(task("t"))
        assert sched.waiting_count() == 1

    def test_determinism(self, sim_pilot):
        def run():
            sched = Scheduler(SlotMap(build_node_list(sim_pilot(nodes=2, cores=4))))
            rng = random.Random(7)
            seq = []
            for i in range(40):
                sched.submit(task(f"t{i}", cores=rng.randint(1, 4)))
            while sched.waiting or sched.slot_map.busy:
                for td, p in sched.rescan():
                    seq.append((td.uid, format_placement(p)))
                busy = sorted(sched.slot_map.busy)
                if busy:
                    sched.complete(busy[0])
            return seq
        assert run() == run()


# --- text form ----------------------------------------------------------

@pytest.mark.parametrize("text, placement", [
    ("0:0,1:0;1:2,3:", ((0, (0, 1), (0,)), (1, (2, 3), ()))),
    ("5:17:", ((5, (17,), ()),)),
    ("3:0:0,1;7:4,5,6:", ((3, (0,), (0, 1)), (7, (4, 5, 6), ()))),
])
def test_placement_text_form(text, placement):
    assert format_placement(placement) == text
    assert parse_placement(text) == placement


def _slots(top):
    return st.lists(st.integers(0, top), unique=True).map(lambda ids: tuple(sorted(ids)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4095), _slots(127), _slots(7)),
                min_size=1, max_size=6).map(tuple))
def test_placement_text_round_trip(placement):
    assert parse_placement(format_placement(placement)) == placement


# --- oracle equivalence -------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.data())
def test_oracle_equivalence_randomized(data):
    nodes = data.draw(st.integers(1, 6))
    cores = data.draw(st.integers(1, 8))
    gpus = data.draw(st.integers(0, 2))
    n_tasks = data.draw(st.integers(1, 20))
    from pilotkit.core import Fabric, PilotDescription
    pd = PilotDescription(uid="p", fabric=Fabric.SIMULATED, nodes=nodes,
                          cores_per_node=cores, gpus_per_node=gpus)
    sm = SlotMap(build_node_list(pd))
    mirror = snapshot(sm)
    for i in range(n_tasks):
        mpi = data.draw(st.booleans())
        c = data.draw(st.integers(1, cores if not mpi else nodes * cores))
        g = data.draw(st.integers(0, gpus if not mpi else nodes * gpus))
        td = task(f"t{i}", cores=c, gpus=g, mpi=mpi)
        expected = oracle_allocate(c, g, mpi, mirror)
        try:
            got = placement_as_plan(allocate_continuous(td, sm))
        except NoFit:
            got = None
        assert got == expected
    assert snapshot(sm) == mirror


def test_oracle_sweep_on_a_padded_index():
    # 37 nodes pad the free-capacity tree to 64 leaves; 13 cores and 3 GPUs
    # per node make subtrees whose core and GPU maxima sit on different nodes.
    pd = PilotDescription(uid="p", fabric=Fabric.SIMULATED, nodes=37,
                          cores_per_node=13, gpus_per_node=3)
    sm = SlotMap(build_node_list(pd))
    mirror = snapshot(sm)
    rng = random.Random(37)
    live = []
    for i in range(3000):
        if live and rng.random() < 0.45:
            uid, placement = live.pop(rng.randrange(len(live)))
            sm.release(uid)
            for node, cores, gpus in placement:
                for c in cores:
                    mirror[node][0][c] = 0
                for g in gpus:
                    mirror[node][1][g] = 0
            continue
        mpi = rng.random() < 0.2
        c = rng.randint(1, 60 if mpi else 13)
        g = rng.randint(0, 6 if mpi else 3)
        td = task(f"t{i}", cores=c, gpus=g, mpi=mpi)
        expected = oracle_allocate(c, g, mpi, mirror)
        try:
            placement = allocate_continuous(td, sm)
            got = placement_as_plan(placement)
            live.append((td.uid, placement))
        except NoFit:
            got = None
        assert got == expected, f"instance {i}"
    assert snapshot(sm) == mirror


# --- rescan equivalence -------------------------------------------------

class ReferenceScheduler:
    """The rescan before shape buckets, kept as the reference: one FIFO
    list walked in full, skipping tasks that a failed (cores, gpus)
    signature of the same MPI capability dominates. Newly waiting tasks are
    found as the simulated agent found them, by remembering every waiter
    already reported."""

    def __init__(self, slot_map):
        self.slot_map = slot_map
        self.waiting = []
        self.newly_waiting = []
        self._waiting_core_counts = Counter()
        self._reported = set()

    def submit(self, td):
        self.waiting.append(td)
        self._waiting_core_counts[td.cores_per_task] += 1

    def _min_waiting_cores(self):
        return min(self._waiting_core_counts) if self._waiting_core_counts else 0

    def rescan(self):
        placed = []
        failed_nonmpi, failed_mpi, survivors = [], [], []
        sm = self.slot_map
        min_cores = self._min_waiting_cores()
        for pos, td in enumerate(self.waiting):
            if sm.total_free_cores < min_cores or sm.total_free_cores == 0:
                survivors.extend(self.waiting[pos:])
                break
            frontier = failed_mpi if td.uses_mpi else failed_nonmpi
            c, g = td.cores_per_task, td.gpus_per_task
            if any(c >= fc and g >= fg for fc, fg in frontier):
                survivors.append(td)
                continue
            try:
                placement = allocate_continuous(td, sm)
            except NoFit:
                frontier.append((c, g))
                survivors.append(td)
                continue
            placed.append((td, placement))
            self._waiting_core_counts[c] -= 1
            if self._waiting_core_counts[c] == 0:
                del self._waiting_core_counts[c]
                if c == min_cores:
                    min_cores = self._min_waiting_cores()
        self.waiting = survivors
        self.newly_waiting = [td for td in survivors if td.uid not in self._reported]
        self._reported.update(td.uid for td in self.newly_waiting)
        return placed

    def complete(self, uid):
        self.slot_map.release(uid)


def assert_same_rescan(sched, ref):
    got = [(td.uid, p) for td, p in sched.rescan()]
    want = [(td.uid, p) for td, p in ref.rescan()]
    assert got == want
    assert list(sched.waiting) == [td.uid for td in ref.waiting]
    assert [td.uid for td in sched.newly_waiting] == [td.uid for td in ref.newly_waiting]
    return got


def rescan_both(sim_pilot, rounds):
    """Run each round (tasks to submit, uids to complete first) through a
    Scheduler and the reference on 3 nodes x 4 cores + 3 GPUs, asserting
    the same rescan each time; returns the uids placed per round."""
    pd = sim_pilot(nodes=3, cores=4, gpus=3)
    sched = Scheduler(SlotMap(build_node_list(pd)))
    ref = ReferenceScheduler(SlotMap(build_node_list(pd)))
    placed = []
    for tds, done in rounds:
        for uid in done:
            sched.complete(uid)
            ref.complete(uid)
        for td in tds:
            sched.submit(td)
            ref.submit(td)
        placed.append([uid for uid, _ in assert_same_rescan(sched, ref)])
    return placed


def test_mpi_gpu_shape_waits_after_node_0_shrinks(sim_pilot):
    # "hog" leaves node 0 with 3 free cores and no GPU, so the span of "a"
    # covers its cores there and fails for want of GPUs. "x" then takes a
    # core of node 0, after which "a2", of the same shape, would reach node
    # 1's GPUs; the shape is done at its first NoFit, so it waits.
    placed = rescan_both(sim_pilot, [([task("hog", cores=1, gpus=3),
                                       task("a", cores=3, gpus=2, mpi=True),
                                       task("x", cores=1),
                                       task("a2", cores=3, gpus=2, mpi=True)], [])])
    assert placed == [["hog", "x"]]


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_rescan_matches_the_full_list_walk(data):
    nodes = data.draw(st.integers(1, 40), label="nodes")
    cores = data.draw(st.integers(1, 8), label="cores")
    gpus = data.draw(st.integers(0, 3), label="gpus")
    pd = PilotDescription(uid="p", fabric=Fabric.SIMULATED, nodes=nodes,
                          cores_per_node=cores, gpus_per_node=gpus)
    sched = Scheduler(SlotMap(build_node_list(pd)))
    ref = ReferenceScheduler(SlotMap(build_node_list(pd)))
    # A few shapes per example, so that tasks share buckets.
    shape = st.booleans().flatmap(lambda mpi: st.tuples(
        st.just(mpi),
        st.integers(1, 2 * cores + 1 if mpi else cores),
        st.integers(0, 2 * gpus if mpi else gpus)))
    shapes = data.draw(st.lists(shape, min_size=1, max_size=6), label="shapes")
    n = 0
    for op in data.draw(st.lists(st.sampled_from(["submit", "rescan", "complete"]),
                                 min_size=1, max_size=60), label="ops"):
        if op == "submit":
            for _ in range(data.draw(st.integers(1, 6))):
                mpi, c, g = data.draw(st.sampled_from(shapes))
                td = task(f"t{n}", cores=c, gpus=g, mpi=mpi)
                n += 1
                sched.submit(td)
                ref.submit(td)
        elif op == "rescan":
            assert_same_rescan(sched, ref)
        elif sched.slot_map.busy:
            uid = data.draw(st.sampled_from(sorted(sched.slot_map.busy)))
            sched.complete(uid)
            ref.complete(uid)
    assert_same_rescan(sched, ref)
    assert snapshot(sched.slot_map) == snapshot(ref.slot_map)
