"""Simulator for pre- and post-selected interferometry.

Builds staged optical scenarios (beam splitters, wave plates, phase
shifters) over a discrete arm basis, computes weak values of arm
projectors both analytically and through exact finite-strength Gaussian
pointer couplings, and classifies which arms were visited and whether the
visited set forms a connected source-to-detector path.
"""

from .evolution import (
    DETECTOR,
    SOURCE,
    BoundaryError,
    Scenario,
    Slot,
    Stage,
    backward_state,
    forward_state,
    postselect_probability,
    transition_amplitude,
)
from .optics import (
    ElementSpec,
    arm_projector,
    element_operator,
)
from .qstate import (
    ATOL,
    BasisDescriptor,
    DimensionError,
    Operator,
    StateVector,
    UnknownLabelError,
    adjoint,
    apply,
    inner,
)
from .scendsl import (
    BUILTIN_TEXTS,
    Diagnostic,
    ScenarioParseError,
    builtin_scenario,
    parse_scenario,
    serialize_scenario,
    validate,
)
from .trace import (
    DEFAULT_THRESHOLD,
    ContinuityVerdict,
    PresenceMap,
    TraceComponent,
    continuity_check,
    presence_map,
    trace_verdict,
)
from .weakmeas import (
    Branch,
    DegeneratePostselectionError,
    PointerEnsemble,
    PointerReadout,
    PointerSpec,
    SweepReport,
    UndefinedReadoutError,
    WeakValueResult,
    arm_weak_value,
    couple_pointers,
    postselect_and_readout,
    weak_limit_sweep,
    weak_value,
    weak_value_table,
)

__version__ = "0.1.0"

__all__ = [
    "ATOL",
    "BUILTIN_TEXTS",
    "BasisDescriptor",
    "BoundaryError",
    "Branch",
    "ContinuityVerdict",
    "DEFAULT_THRESHOLD",
    "DETECTOR",
    "DegeneratePostselectionError",
    "Diagnostic",
    "DimensionError",
    "ElementSpec",
    "Operator",
    "PointerEnsemble",
    "PointerReadout",
    "PointerSpec",
    "PresenceMap",
    "SOURCE",
    "Scenario",
    "ScenarioParseError",
    "Slot",
    "Stage",
    "StateVector",
    "SweepReport",
    "TraceComponent",
    "UndefinedReadoutError",
    "UnknownLabelError",
    "WeakValueResult",
    "adjoint",
    "apply",
    "arm_projector",
    "arm_weak_value",
    "backward_state",
    "builtin_scenario",
    "continuity_check",
    "couple_pointers",
    "element_operator",
    "forward_state",
    "inner",
    "parse_scenario",
    "postselect_and_readout",
    "postselect_probability",
    "presence_map",
    "serialize_scenario",
    "trace_verdict",
    "transition_amplitude",
    "validate",
    "weak_limit_sweep",
    "weak_value",
    "weak_value_table",
]
