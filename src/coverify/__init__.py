"""Co-verification of discretized human/robot workcells.

Bounded satisfiability checking of a metric-temporal workcell model plus
geometric replay of counterexample traces, so every reported hazard can be
confirmed or refuted against continuous 3D motion.
"""

from .encode import check, decode, encode
from .geometry import Box, aabb_max_distance, aabb_min_distance, contact_probability
from .logic import (
    Alw,
    And,
    Atom,
    Dist,
    Eq,
    FiniteVariable,
    Formula,
    Implies,
    Not,
    Or,
    Proposition,
    Som,
    SymbolTable,
    Trace,
    evaluate,
    free_symbols,
)
from .replay import ClassifiedHazard, Segment, classify, segments
from .world import (
    Mitigation,
    Scenario,
    ScenarioError,
    VerifyResult,
    bundled_scenario_path,
    compile_scenario,
    load_scenario,
    loads_scenario,
    risk_value,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "Alw", "And", "Atom", "Box", "ClassifiedHazard", "Dist", "Eq",
    "FiniteVariable", "Formula", "Implies", "Mitigation", "Not", "Or",
    "Proposition", "Scenario", "ScenarioError", "Segment",
    "Som", "SymbolTable", "Trace", "VerifyResult",
    "aabb_max_distance", "aabb_min_distance",
    "bundled_scenario_path", "check", "classify", "compile_scenario",
    "contact_probability", "decode", "encode", "evaluate", "free_symbols",
    "load_scenario", "loads_scenario", "risk_value",
    "segments", "verify",
]
