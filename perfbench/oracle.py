"""Correctness oracle and model-error reference.

Runs in the parent process, which never served a request, so the
library-tier answers share no memo with the engine that was measured.

* ``predict``: ``repro.predict(program).evaluate(bindings)`` and the
  symbolic cost string;
* ``compare``: ``repro.compare`` over the two library costs, with the
  region report;
* ``sweep``: ``repro.sweep.sweep_program`` without the serving memo key;
* ``restructure``: no library twin is asked for; the answer must be an
  error-free search that expanded at least one node.

``model_error_pct`` scores predicted block cycles against the reference
scheduler ``backend.simulator.simulate``, never against the predictor.
"""

from __future__ import annotations

from dataclasses import asdict
from statistics import fmean
from typing import Any

import repro
from repro.backend.simulator import simulate
from repro.compare.regions import region_report
from repro.cost import StraightLineEstimator
from repro.ir.nodes import Do
from repro.ir.symtab import SymbolTable
from repro.machine.registry import cached_machine, get_machine
from repro.service.protocol import parse_bindings, parse_domain
from repro.sweep import sweep_program
from repro.translate import AGGRESSIVE_BACKEND, Translator


class Oracle:
    """Library-tier answers, memoized per distinct request."""

    def __init__(self) -> None:
        self._costs: dict[str, repro.PerfExpr] = {}
        self._expected: dict[tuple, dict[str, Any] | None] = {}

    def _cost(self, source: str) -> repro.PerfExpr:
        cost = self._costs.get(source)
        if cost is None:
            cost = self._costs[source] = repro.predict(repro.parse_program(source))
        return cost

    def expected(self, kind: str, payload: dict[str, Any]) -> dict[str, Any] | None:
        if kind == "predict":
            cost = self._cost(payload["source"])
            cycles = cost.evaluate(parse_bindings(payload["bindings"]))
            return {"cost": str(cost), "cycles": str(cycles)}
        if kind == "compare":
            first = self._cost(payload["first"])
            second = self._cost(payload["second"])
            result = repro.compare(first, second,
                                   domain=parse_domain(payload["domain"]) or None)
            return {"cost_first": str(first), "cost_second": str(second),
                    "verdict": result.verdict.value,
                    "report": region_report(result)}
        if kind == "sweep":
            outcome = sweep_program(
                repro.parse_program(payload["source"]),
                machine=cached_machine("power"),
                widths=tuple(payload["widths"]),
                bindings=parse_bindings(payload["bindings"]))
            return {"widths": list(outcome.widths),
                    "points": [_point(p) for p in outcome.points],
                    "saturation_width": outcome.saturation_width,
                    "instructions": outcome.instructions}
        return None

    def check(self, key: tuple, kind: str, payload: dict[str, Any],
              got: dict[str, Any]) -> str | None:
        """None when ``got`` is right, else a one-line reason."""
        if "error" in got:
            return f"{got['error']}: {got['message']}"
        if kind == "restructure":
            nodes = got.get("nodes_expanded")
            return None if isinstance(nodes, int) and nodes >= 1 else (
                f"restructure expanded {nodes!r} nodes")
        if key not in self._expected:
            self._expected[key] = self.expected(kind, payload)
        want = self._expected[key]
        for field, value in want.items():
            if got.get(field) != value:
                return f"{kind} {field}: served {got.get(field)!r}, library {value!r}"
        return None


def _point(point) -> dict[str, Any]:
    row = asdict(point)
    return {key: row[key] for key in ("width", "cycles", "ipc", "fingerprint",
                                      "placement_cycles", "penalty_cycles")}


def innermost_block(program) -> tuple[tuple, tuple[str, ...]]:
    """(innermost straight-line body, enclosing loop indices)."""
    indices: list[str] = []
    stmts = program.body
    while stmts and isinstance(stmts[0], Do):
        indices.append(stmts[0].var)
        stmts = stmts[0].body
    return tuple(stmts), tuple(indices)


def model_error_pct(sources: list[str]) -> float:
    """Mean |predicted - reference| / reference over the innermost blocks."""
    machine = get_machine("power")
    estimator = StraightLineEstimator(machine)
    errors = []
    for source in sources:
        program = repro.parse_program(source)
        stmts, indices = innermost_block(program)
        translator = Translator(machine, SymbolTable.from_program(program),
                                AGGRESSIVE_BACKEND)
        stream = translator.translate_block(stmts, indices).stream
        predicted = estimator.estimate(stream).cycles
        reference = simulate(machine, [i for i in stream if not i.one_time]).cycles
        errors.append(abs(predicted - reference) / reference)
    return 100.0 * fmean(errors)
