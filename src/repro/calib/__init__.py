"""Auto-calibration of machine cost tables (PALMED/OSACA-style).

The hand-written cost tables in :mod:`repro.machine` can instead be
*inferred* from measured instruction streams: generate probe families
(:mod:`repro.calib.probes`), time them on a cycle oracle
(:mod:`repro.calib.oracle` -- the reference simulator, or recorded
fixtures for hermetic tests), solve the overdetermined linear system
for per-op noncoverable/coverable components
(:mod:`repro.calib.fit`), and emit a versioned cost-table artifact the
machine registry loads as a first-class machine
(:mod:`repro.calib.artifact`).
"""

from __future__ import annotations

from .artifact import (
    COST_TABLE_FORMAT,
    ArtifactError,
    load_cost_table,
    machine_from_artifact,
    register_calibrated,
    result_to_payload,
    save_cost_table,
)
from .fit import CalibrationResult, calibrate_machine
from .oracle import CycleOracle, RecordedOracle, SimulatorOracle, record_fixture
from .probes import Probe, make_probe_family

__all__ = [
    "COST_TABLE_FORMAT",
    "ArtifactError",
    "CalibrationResult",
    "CycleOracle",
    "Probe",
    "RecordedOracle",
    "SimulatorOracle",
    "calibrate_machine",
    "load_cost_table",
    "machine_from_artifact",
    "make_probe_family",
    "record_fixture",
    "register_calibrated",
    "result_to_payload",
    "save_cost_table",
]
