"""Least-squares fit of per-op cost components from probe timings.

Generalizes the latency-only solver in :mod:`repro.machine.training`:
instead of fitting one total per op and splitting it by the original
table's proportions, this fits the *noncoverable* and *coverable*
components as separate unknowns, using the burst probes' different
algebra (``ceil(k/p)*n + c`` vs the serial ``k*(n+c)``) to separate
them.  The overdetermined system is solved with
:func:`repro.learn.model.solve_ridge`, which falls back to a pure
python Gaussian solve when numpy is absent.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

from ..learn.model import solve_ridge
from ..machine.atomic import AtomicCostTable, AtomicOp
from ..machine.machine import Machine
from ..machine.units import UnitCost
from ..memo import Counters
from .probes import (
    DEFAULT_BURST_LENGTHS,
    DEFAULT_CHAIN_LENGTHS,
    Probe,
    make_probe_family,
)

__all__ = ["CalibrationResult", "calibrate_machine"]

#: Calibration telemetry, exported as ``repro_calib_*_total`` counters.
_counts = Counters("calib", ("runs", "probes"))


@dataclass(frozen=True)
class CalibrationResult:
    """A fitted machine plus the evidence behind it."""

    machine: Machine
    table: AtomicCostTable
    oracle_id: str
    residuals: dict[str, float]
    measurements: dict[str, int]
    mean_abs_residual: float
    probes: int

    @property
    def mean_relative_error(self) -> float:
        """Mean |residual| / measured over probes with nonzero truth."""
        rel = [abs(r) / self.measurements[name]
               for name, r in self.residuals.items()
               if self.measurements.get(name)]
        return sum(rel) / len(rel) if rel else 0.0


def calibrate_machine(
    machine: Machine,
    oracle,
    ops: Sequence[str] | None = None,
    *,
    name: str | None = None,
    chain_lengths: Sequence[int] = DEFAULT_CHAIN_LENGTHS,
    burst_lengths: Sequence[int] = DEFAULT_BURST_LENGTHS,
    ridge: float = 1e-6,
) -> CalibrationResult:
    """Fit ``machine``'s cost table against ``oracle``.

    ``machine`` provides the *structure* (which ops exist, which units
    they run on, how many pipes each unit has); the oracle provides the
    timings.  Each op's primary cost is refit to the recovered
    ``(noncoverable, coverable)`` pair; secondary-unit costs (e.g. the
    store's extra FXU cycle) are kept from the structural table, as are
    any ops excluded from ``ops``.
    """
    names, probes = make_probe_family(
        machine, ops, chain_lengths, burst_lengths)
    rows = [list(probe.row) for probe in probes]
    measured = [float(oracle.measure(probe)) for probe in probes]
    solution = solve_ridge(rows, measured, ridge=ridge)

    count = len(names)
    fitted: dict[str, tuple[int, int]] = {}
    for i, op_name in enumerate(names):
        noncoverable = max(0, round(solution[i]))
        coverable = max(0, round(solution[count + i]))
        if noncoverable + coverable == 0:
            coverable = 1
        fitted[op_name] = (noncoverable, coverable)

    table = AtomicCostTable()
    for op_name in machine.table.names():
        op = machine.table[op_name]
        if op_name not in fitted:
            table.define(op)
            continue
        table.define(_refit(op, *fitted[op_name]))

    calibrated = dataclasses.replace(
        machine,
        name=name if name is not None else f"{machine.name}-calib",
        table=table,
        atomic_mapping=dict(machine.atomic_mapping),
    )

    # Residuals of the *rounded* solution -- what the artifact ships.
    rounded = (
        [float(fitted[n][0]) for n in names]
        + [float(fitted[n][1]) for n in names]
    )
    residuals = {
        probe.name: m - probe.predicted(rounded)
        for probe, m in zip(probes, measured)
    }
    mean_abs = (sum(abs(r) for r in residuals.values()) / len(residuals)
                if residuals else 0.0)
    _counts.bump(runs=1, probes=len(probes))
    return CalibrationResult(
        machine=calibrated,
        table=table,
        oracle_id=getattr(oracle, "oracle_id", "unknown"),
        residuals=residuals,
        measurements={probe.name: int(m)
                      for probe, m in zip(probes, measured)},
        mean_abs_residual=mean_abs,
        probes=len(probes),
    )


def _refit(op: AtomicOp, noncoverable: int, coverable: int) -> AtomicOp:
    """Swap the op's primary cost for the fitted component pair."""
    primary = None
    for cost in op.costs:
        if cost.total == op.result_latency:
            primary = cost
            break
    new_costs = tuple(
        UnitCost(cost.unit, noncoverable, coverable)
        if cost is primary else cost
        for cost in op.costs
    )
    return AtomicOp(op.name, new_costs, op.description + " [calibrated]")
