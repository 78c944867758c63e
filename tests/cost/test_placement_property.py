"""Differential property tests for the placement drop.

Three implementations must agree on every random machine and stream:

* the reference loop (``place_reference``: ``BinSet.place``, one call
  per instruction),
* the fused columnar kernel behind ``place_stream``
  (:func:`repro.cost.columnar.drop_columns`),
* a brute-force oracle that scans a dense boolean grid one time slot
  at a time -- no signed blocks, no hints, no restart loop.

The oracle encodes the *specification*: drop at the smallest
``t >= earliest`` where every nonzero-noncoverable component has a
pipe with enough consecutive free slots, choosing the first such pipe
in machine order.  Random machines (unit inventories, pipe counts,
cost tables) and random streams push all three through block merges,
growth boundaries, multi-component restarts, and pipe tie-breaks.
"""

from hypothesis import given, settings, strategies as st

from repro.cost import BinSet, place_reference, place_stream
from repro.machine.atomic import AtomicCostTable, AtomicOp
from repro.machine.machine import Machine
from repro.machine.units import FunctionalUnit, UnitCost, UnitKind
from repro.translate.stream import Instr

_KINDS = tuple(UnitKind)

#: Plenty for any stream these strategies generate (fills are bounded
#: by instructions * max noncoverable + max earliest).
_GRID = 1024


@st.composite
def _machines(draw):
    n_units = draw(st.integers(1, 3))
    kinds = draw(st.permutations(_KINDS))[:n_units]
    units = tuple(
        FunctionalUnit(kind, draw(st.integers(1, 3))) for kind in kinds
    )
    table = AtomicCostTable()
    for i in range(draw(st.integers(1, 5))):
        n_costs = draw(st.integers(1, n_units))
        cost_kinds = draw(st.permutations(kinds))[:n_costs]
        costs = []
        for kind in cost_kinds:
            noncoverable = draw(st.integers(0, 4))
            coverable = draw(st.integers(0, 2))
            if noncoverable == 0 and coverable == 0:
                coverable = 1
            costs.append(UnitCost(kind, noncoverable, coverable))
        table.define(AtomicOp(f"op{i}", tuple(costs)))
    return Machine("hypo", units, table, {})


@st.composite
def _machine_and_stream(draw):
    machine = draw(_machines())
    names = machine.table.names()
    n = draw(st.integers(1, 24))
    instrs = []
    for i in range(n):
        n_deps = draw(st.integers(0, min(i, 3)))
        deps = tuple(sorted(draw(
            st.sets(st.integers(0, i - 1), min_size=n_deps, max_size=n_deps)
        ))) if i else ()
        instrs.append(Instr(i, draw(st.sampled_from(names)), deps=deps))
    focus_span = draw(st.sampled_from([1, 3, 16, 64]))
    return machine, instrs, focus_span


class _DenseOracle:
    """Boolean-grid model of a BinSet: linear scan, first-fit pipes."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.grids = {bin_id: [False] * _GRID for bin_id in machine.bins()}
        self.pipes_of: dict[UnitKind, list] = {}
        for bin_id in machine.bins():
            self.pipes_of.setdefault(bin_id[0], []).append(bin_id)
        self.top = 0

    def _free_pipe(self, kind, t, length):
        for bin_id in self.pipes_of[kind]:
            if not any(self.grids[bin_id][t:t + length]):
                return bin_id
        return None

    def place(self, costs, earliest):
        """Smallest simultaneously-feasible t; returns (t, chosen pipes)."""
        needed = [c for c in costs if c.noncoverable > 0]
        if not needed:
            return earliest, ()
        t = earliest
        while True:
            chosen = [
                self._free_pipe(c.unit, t, c.noncoverable) for c in needed
            ]
            if all(pipe is not None for pipe in chosen):
                for cost, pipe in zip(needed, chosen):
                    grid = self.grids[pipe]
                    for slot in range(t, t + cost.noncoverable):
                        grid[slot] = True
                    if t + cost.noncoverable > self.top:
                        self.top = t + cost.noncoverable
                return t, tuple(chosen)
            t += 1

    def drop_stream(self, instrs, focus_span):
        """The full placement loop over the dense model."""
        completions: dict[int, int] = {}
        times = []
        for instr in instrs:
            op = self.machine.atomic(instr.atomic)
            ready = max((completions.get(d, 0) for d in instr.deps), default=0)
            earliest = max(ready, self.top - focus_span, 0)
            t, _ = self.place(op.costs, earliest)
            completions[instr.index] = t + op.result_latency
            times.append((t, completions[instr.index]))
        return times


def _grids_of(bins: BinSet):
    out = {}
    for bin_id, arr in bins.arrays.items():
        bools = arr.as_bools()
        out[bin_id] = bools + [False] * (_GRID - len(bools))
    return out


@settings(max_examples=120, deadline=None)
@given(_machines(), st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 12)), min_size=1, max_size=30,
))
def test_bin_set_place_matches_dense_oracle(machine, calls):
    """Each BinSet.place lands where a slot-by-slot scan says it must."""
    names = machine.table.names()
    bins = BinSet(machine)
    oracle = _DenseOracle(machine)
    for op_pick, earliest in calls:
        op = machine.table[names[op_pick % len(names)]]
        got = bins.place(op.costs, earliest)
        want_t, want_pipes = oracle.place(op.costs, earliest)
        assert got.time == want_t
        assert got.pipes == want_pipes
        assert bins.top() == oracle.top
    assert _grids_of(bins) == oracle.grids


@settings(max_examples=120, deadline=None)
@given(_machine_and_stream())
def test_kernels_and_oracle_agree_on_streams(case):
    """Fused kernel == reference loop == dense oracle, bin state included."""
    machine, instrs, focus_span = case
    reference_bins = BinSet(machine)
    fused_bins = BinSet(machine)
    reference = place_reference(machine, instrs, focus_span, reference_bins)
    fused = place_stream(machine, instrs, focus_span, fused_bins)
    want = _DenseOracle(machine).drop_stream(instrs, focus_span)
    got_reference = [(op.time, op.completion) for op in reference.ops]
    got_fused = [(op.time, op.completion) for op in fused.ops]
    assert got_reference == want
    assert got_fused == want
    assert fused.cycles == reference.cycles
    assert fused.block == reference.block
    assert _grids_of(fused_bins) == _grids_of(reference_bins)
    assert fused_bins._top == reference_bins._top == fused_bins._scan_top()
