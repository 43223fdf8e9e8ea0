"""Workcell scenarios and their compilation into the temporal logic.

A scenario describes the discretized workcell: box-shaped layout cells with
an adjacency relation, human/robot agents carrying points of interest (POIs),
an ordered task, hazards (co-location of a human POI and a robot POI, graded
by severity/exposure/avoidability), reactive mitigations, and the risk
threshold.  ``compile_scenario`` turns it into formulas: ``Axiom(rule, element,
formula)`` records, each named by the ``check_trace`` rule that stands for it
and the POI, hazard or ``done_<i>`` it constrains, and the violation as one
term per hazard in ``CompiledModel.terms``.  ``verify`` model checks the
result and returns either Safe or a counterexample trace with the instants
whose risk exceeds the threshold.

Modeling conventions baked into the compilation:

* Each POI is a finite variable over cell ids; moves go to adjacent cells.
  A move over an edge with travel time T holds the source cell for the T
  instants before the position flips.  A unit edge needs no rule beyond
  adjacency; a longer one needs one dwell rule per direction.
* Human POIs are only constrained by movement: the solver picks adversarial
  human paths.
* Each robot has a ``speed_<agent>`` state (normal/slow/stopped) that is
  free unless a mitigation reacts to a hazard one instant after detection.
  A hazard takes at most one mitigation: two kinds would demand two speeds
  at one instant, so the hazard could never hold.
* A hazard flag ``haz_<h>`` holds exactly when the hazard's human and robot
  POIs share a cell, stated cell by cell on their position values.
* The risk of a hazard instant is valued against the speed one instant
  later, i.e. after any mandated reaction, and pessimistically against the
  unmitigated base value when no later instant exists.  So an unmitigated
  hazard at the last instant never looks safer than it is.  A mitigated
  hazard cannot hold at the last instant at all: its reaction would fall
  outside the window, where ``Dist`` is false.
* Risk is priced after solving, not solved for: the violation asks for a
  hazard flag and a next speed in ``over_speeds``, and ``verify`` fills each
  ``risk_<h>`` column of the witness from the flag and the next speed.
  ``model_symbols`` declares those columns with every other symbol of the
  model, so a trace file can be read without compiling; no formula reads them.

``check_trace`` checks a trace against the scenario rule by rule, one rule
per ``Axiom.rule`` of the compiled axioms plus the risk prices, in time
linear in the trace, and names the first rule the trace breaks.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

from .encode import EncodingError, check
from .geometry import Box
from .logic import (
    Alw,
    And,
    Atom,
    Dist,
    Eq,
    Formula,
    Implies,
    Not,
    Or,
    Som,
    SymbolTable,
    Trace,
    check_ident,
    check_value,
    conjoin,
    disjoin,
)

__all__ = [
    "SPEED_STATES",
    "ScenarioError",
    "Location",
    "Layout",
    "PointOfInterest",
    "Agent",
    "TaskStep",
    "Hazard",
    "Mitigation",
    "Scenario",
    "Axiom",
    "CompiledModel",
    "RiskViolation",
    "VerifyResult",
    "load_scenario",
    "loads_scenario",
    "risk_value",
    "over_speeds",
    "model_symbols",
    "compile_scenario",
    "verify",
    "extract_violations",
    "BrokenRule",
    "check_trace",
    "bundled_scenario_path",
]

SPEED_STATES = ("normal", "slow", "stopped")
# Each mitigation kind: the robot speed it demands one instant after its hazard's flag.
REACTIONS = {"slowdown": "slow", "stop": "stopped"}
RISK_DOMAIN = tuple(str(v) for v in range(7))  # 0 .. 2+2+2
DEFAULT_BOUND = 30  # a scenario's bound when its file gives none
DEFAULT_THRESHOLD = 3


class ScenarioError(ValueError):
    """Invalid scenario file or scenario structure."""


@dataclass(frozen=True)
class Location:
    id: str
    box: Box
    adjacent: frozenset[str]


@dataclass(frozen=True)
class Layout:
    """The workcell's cells.  Ids are unique, adjacency is symmetric, and no two
    boxes share interior points (touching faces are fine).

    The overlap check sorts and sweeps the x axis (Cohen, Lin, Manocha &
    Ponamgi, "I-COLLIDE", I3D 1995).  With the cells sorted by ``box.lo[0]``,
    each box is compared only with the later ones that start before its
    ``hi[0]``: the first that starts at or past it, and every box after that
    one, cannot share interior points with it.  Of the clashing pairs it
    raises for the one with the lowest declaration indices, the pair an
    all-pairs scan in declaration order meets first.
    """

    locations: tuple[Location, ...]

    def __post_init__(self) -> None:
        ids = [loc.id for loc in self.locations]
        if len(set(ids)) != len(ids):
            raise ScenarioError("duplicate location ids in layout")
        known = set(ids)
        by_id = {loc.id: loc for loc in self.locations}
        for loc in self.locations:
            if loc.id in loc.adjacent:
                raise ScenarioError(f"location {loc.id!r} adjacent to itself")
            for other in loc.adjacent:
                if other not in known:
                    raise ScenarioError(f"adjacency {loc.id!r} -> undeclared location {other!r}")
                if loc.id not in by_id[other].adjacent:
                    raise ScenarioError(f"asymmetric adjacency between {loc.id!r} and {other!r}")
        boxes = [loc.box for loc in self.locations]
        order = sorted(range(len(boxes)), key=lambda i: boxes[i].lo[0])
        clashes = []
        for n, i in enumerate(order):
            for j in order[n + 1 :]:
                if boxes[j].lo[0] >= boxes[i].hi[0]:
                    break
                if boxes[i].interior_overlaps(boxes[j]):
                    clashes.append((min(i, j), max(i, j)))
        if clashes:
            i, j = min(clashes)
            a, b = self.locations[i], self.locations[j]
            raise ScenarioError(f"cells {a.id!r} and {b.id!r} overlap")

    def location(self, loc_id: str) -> Location:
        for loc in self.locations:
            if loc.id == loc_id:
                return loc
        raise ScenarioError(f"unknown location {loc_id!r}")

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(loc.id for loc in self.locations)


@dataclass(frozen=True)
class PointOfInterest:
    id: str
    owner: str
    radius: float


@dataclass(frozen=True)
class Agent:
    id: str
    kind: str  # "human" | "robot"
    pois: tuple[PointOfInterest, ...]


@dataclass(frozen=True)
class TaskStep:
    kind: str  # "reach" | "pick" | "place" | "handover"
    poi: str
    goal: str
    partner: str | None = None  # human POI of a handover


@dataclass(frozen=True)
class Hazard:
    id: str
    human_poi: str
    robot_poi: str
    severity: int
    exposure: int
    avoidability: int


@dataclass(frozen=True)
class Mitigation:
    kind: str  # a key of REACTIONS
    hazard: str


@dataclass(frozen=True)
class Scenario:
    name: str
    layout: Layout
    agents: tuple[Agent, ...]
    task: tuple[TaskStep, ...]
    hazards: tuple[Hazard, ...]
    mitigations: tuple[Mitigation, ...]
    bound: int = DEFAULT_BOUND
    threshold: int = DEFAULT_THRESHOLD
    dt: float = 1.0  # seconds per instant, the time unit of a replay segment
    travel_times: tuple[tuple[str, str, int], ...] = ()
    starts: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        _validate_scenario(self)

    # Lookup helpers ------------------------------------------------------

    def agent(self, agent_id: str) -> Agent:
        for agent in self.agents:
            if agent.id == agent_id:
                return agent
        raise ScenarioError(f"unknown agent {agent_id!r}")

    def poi(self, poi_id: str) -> PointOfInterest:
        for agent in self.agents:
            for poi in agent.pois:
                if poi.id == poi_id:
                    return poi
        raise ScenarioError(f"unknown POI {poi_id!r}")

    @property
    def pois(self) -> tuple[PointOfInterest, ...]:
        return tuple(poi for agent in self.agents for poi in agent.pois)

    def hazard(self, hazard_id: str) -> Hazard:
        for hazard in self.hazards:
            if hazard.id == hazard_id:
                return hazard
        raise ScenarioError(f"unknown hazard {hazard_id!r}")

    def travel_time(self, a: str, b: str) -> int:
        for pa, pb, t in self.travel_times:
            if (pa, pb) == (a, b) or (pb, pa) == (a, b):
                return t
        return 1

    # Derived symbol names used by the compiled model ----------------------

    @staticmethod
    def speed_name(agent_id: str) -> str:
        return f"speed_{agent_id}"

    @staticmethod
    def hazard_flag_name(hazard_id: str) -> str:
        return f"haz_{hazard_id}"

    @staticmethod
    def risk_name(hazard_id: str) -> str:
        return f"risk_{hazard_id}"

    @staticmethod
    def done_name(step: int) -> str:
        return f"done_{step}"


def _validate_scenario(s: Scenario) -> None:
    if s.bound < 0:
        raise ScenarioError("bound must be >= 0")
    if s.threshold < 0:
        raise ScenarioError("threshold must be >= 0")
    if not (math.isfinite(s.dt) and s.dt > 0):
        raise ScenarioError("dt must be a finite number > 0")

    agent_ids = [a.id for a in s.agents]
    if len(set(agent_ids)) != len(agent_ids):
        raise ScenarioError("duplicate agent ids")
    poi_ids = [p.id for a in s.agents for p in a.pois]
    if len(set(poi_ids)) != len(poi_ids):
        raise ScenarioError("duplicate POI ids")
    for agent in s.agents:
        if agent.kind not in ("human", "robot"):
            raise ScenarioError(f"agent {agent.id!r} has unknown kind {agent.kind!r}")
        if not agent.pois:
            raise ScenarioError(f"agent {agent.id!r} declares no POI")
        for poi in agent.pois:
            if poi.owner != agent.id:
                raise ScenarioError(f"POI {poi.id!r} owner disagrees with its agent")
            if not (math.isfinite(poi.radius) and poi.radius > 0):
                raise ScenarioError(f"POI {poi.id!r} needs a finite radius > 0")

    # The radius cap keeps a same-cell contact threshold (two radii) under twice
    # the shortest edge.  It does not make co-location the only contact: cells
    # sharing a face are 0 apart, so two POIs in neighbouring cells can touch,
    # and the model flags no such instant.  Point cells are exempt.
    positive_edges = [
        e for loc in s.layout.locations for e in loc.box.edges if e > 0
    ]
    if positive_edges:
        cap = min(positive_edges)
        for poi in s.pois:
            if poi.radius >= cap:
                raise ScenarioError(
                    f"POI {poi.id!r} radius {poi.radius} must be smaller than the "
                    f"smallest cell edge {cap}"
                )

    known_locs = set(s.layout.ids)
    for step in s.task:
        if step.kind not in ("reach", "pick", "place", "handover"):
            raise ScenarioError(f"unknown task step kind {step.kind!r}")
        if step.goal not in known_locs:
            raise ScenarioError(f"task goal {step.goal!r} is not a layout location")
        poi = s.poi(step.poi)
        if step.kind == "handover":
            if step.partner is None:
                raise ScenarioError("handover step needs a human POI")
            if s.agent(poi.owner).kind != "robot":
                raise ScenarioError("handover's first POI must belong to a robot")
            partner = s.poi(step.partner)
            if s.agent(partner.owner).kind != "human":
                raise ScenarioError("handover's second POI must belong to a human")
        elif step.partner is not None:
            raise ScenarioError(f"{step.kind} step does not take a partner POI")

    hazard_ids = [h.id for h in s.hazards]
    if len(set(hazard_ids)) != len(hazard_ids):
        raise ScenarioError("duplicate hazard ids")
    for hazard in s.hazards:
        for level, label in (
            (hazard.severity, "severity"),
            (hazard.exposure, "exposure"),
            (hazard.avoidability, "avoidability"),
        ):
            if not 0 <= level <= 2:
                raise ScenarioError(f"hazard {hazard.id!r} {label} {level} out of range 0..2")
        if s.agent(s.poi(hazard.human_poi).owner).kind != "human":
            raise ScenarioError(f"hazard {hazard.id!r}: {hazard.human_poi!r} is not a human POI")
        if s.agent(s.poi(hazard.robot_poi).owner).kind != "robot":
            raise ScenarioError(f"hazard {hazard.id!r}: {hazard.robot_poi!r} is not a robot POI")

    # One mitigation per hazard: two kinds would demand two next speeds at once.
    kinds: dict[str, str] = {}
    for mit in s.mitigations:
        if mit.kind not in REACTIONS:
            raise ScenarioError(f"unknown mitigation kind {mit.kind!r}")
        s.hazard(mit.hazard)
        first_kind = kinds.setdefault(mit.hazard, mit.kind)
        if first_kind != mit.kind:
            raise ScenarioError(f"hazard {mit.hazard!r} is already mitigated by "
                                f"{first_kind!r}: one mitigation per hazard")
        if s.mitigations.count(mit) > 1:
            raise ScenarioError(f"duplicate mitigation: {mit.kind!r} for {mit.hazard!r} "
                                "already present")

    timed: set[frozenset[str]] = set()
    for a, b, t in s.travel_times:
        if t < 1:
            raise ScenarioError(f"travel time {a}-{b} must be >= 1")
        if b not in s.layout.location(a).adjacent:
            raise ScenarioError(f"travel time given for non-adjacent pair {a!r}, {b!r}")
        if frozenset((a, b)) in timed:
            raise ScenarioError(f"edge {a!r}-{b!r} has more than one travel time")
        timed.add(frozenset((a, b)))

    started: set[str] = set()
    for poi_id, loc in s.starts:
        s.poi(poi_id)
        if loc not in known_locs:
            raise ScenarioError(f"start location {loc!r} is not a layout location")
        if poi_id in started:
            raise ScenarioError(f"POI {poi_id!r} has more than one start")
        started.add(poi_id)


# ---------------------------------------------------------------------------
# Scenario file format (.scn)


# Each [params] keyword that takes one number, and how the README names it.
_PARAM_VALUES = {"bound": "<k>", "threshold": "<n>", "dt": "<seconds>"}


def load_scenario(path, bound: int | None = None) -> Scenario:
    """Load and validate a scenario file; a ``bound`` given here takes the
    place of the file's ``[params] bound``."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    name = os.path.splitext(os.path.basename(str(path)))[0]
    return loads_scenario(text, name=name, bound=bound)


def loads_scenario(text: str, name: str = "scenario", bound: int | None = None) -> Scenario:
    """Parse scenario text (see the .scn reference in the README); a ``bound``
    given here takes the place of ``[params] bound``."""
    section = None
    loc_boxes: dict[str, Box] = {}
    adjacency: dict[str, set[str]] = {}
    agent_kinds: dict[str, str] = {}
    agent_pois: dict[str, list[PointOfInterest]] = {}
    task: list[TaskStep] = []
    hazards: list[Hazard] = []
    mitigations: list[Mitigation] = []
    mitigated: dict[str, tuple[str, int]] = {}  # each mitigated hazard: its kind and line
    starts: list[tuple[str, str]] = []
    travel: list[tuple[str, str, int]] = []
    params: dict[str, float | int] = {}
    declared: dict[str, int] = {}  # each model symbol a line names, and that line

    def fail(message: str) -> ScenarioError:
        return ScenarioError(f"line {lineno}: {message}")

    def declare(symbol: str) -> str:
        """``symbol``, checked as a name and recorded on this line; a repeat fails here."""
        if check_ident(symbol) in declared:
            raise fail(f"symbol {symbol!r} already declared on line {declared[symbol]}")
        declared[symbol] = lineno
        return symbol

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("layout", "agents", "task", "hazards", "mitigations", "params"):
                raise fail(f"unknown section {section!r}")
            continue
        if section is None:
            raise fail("content before any section header")

        fields = line.split()
        kw = fields[0]
        try:
            if section == "layout" and kw == "loc":
                if len(fields) != 9 or fields[2] != "box":
                    raise fail("expected: loc <id> box <x0> <y0> <z0> <x1> <y1> <z1>")
                loc_id = check_value(fields[1])
                if loc_id in loc_boxes:
                    raise fail(f"duplicate location {loc_id!r}")
                nums = [float(v) for v in fields[3:9]]
                loc_boxes[loc_id] = Box(tuple(nums[:3]), tuple(nums[3:]))
                adjacency.setdefault(loc_id, set())
            elif section == "layout" and kw == "adj":
                if len(fields) != 3:
                    raise fail("expected: adj <id> <id>")
                a, b = fields[1], fields[2]
                for loc_id in (a, b):
                    if loc_id not in loc_boxes:
                        raise fail(f"adjacency references undeclared location {loc_id!r}")
                if a == b:
                    raise fail(f"location {a!r} cannot be adjacent to itself")
                adjacency[a].add(b)
                adjacency[b].add(a)
            elif section == "agents" and kw == "agent":
                if len(fields) != 3:
                    raise fail("expected: agent <id> human|robot")
                agent_id, kind = fields[1], fields[2]
                if agent_id in agent_kinds:
                    raise fail(f"duplicate agent {agent_id!r}")
                if kind == "robot":  # a human agent names no symbol
                    declare(Scenario.speed_name(agent_id))
                agent_kinds[agent_id] = kind
                agent_pois[agent_id] = []
            elif section == "agents" and kw == "poi":
                if len(fields) != 5 or fields[3] != "radius":
                    raise fail("expected: poi <agent> <id> radius <m>")
                agent_id, poi_id = fields[1], declare(fields[2])
                if agent_id not in agent_kinds:
                    raise fail(f"POI for undeclared agent {agent_id!r}")
                agent_pois[agent_id].append(
                    PointOfInterest(poi_id, agent_id, float(fields[4]))
                )
            elif section == "agents" and kw == "start":
                if len(fields) != 3:
                    raise fail("expected: start <poi> <loc>")
                starts.append((fields[1], fields[2]))
            elif section == "task" and kw == "step":
                if len(fields) == 4 and fields[2] in ("reach", "pick", "place"):
                    task.append(TaskStep(fields[2], fields[1], fields[3]))
                elif len(fields) == 5 and fields[1] == "handover":
                    task.append(TaskStep("handover", fields[2], fields[4], partner=fields[3]))
                else:
                    raise fail(
                        "expected: step <poi> reach|pick|place <loc> "
                        "or step handover <robot-poi> <human-poi> <loc>"
                    )
                declare(Scenario.done_name(len(task)))
            elif section == "hazards" and kw == "hazard":
                if (
                    len(fields) != 10
                    or fields[4] != "sev"
                    or fields[6] != "exp"
                    or fields[8] != "avoid"
                ):
                    raise fail(
                        "expected: hazard <id> <human-poi> <robot-poi> "
                        "sev <0-2> exp <0-2> avoid <0-2>"
                    )
                declare(Scenario.hazard_flag_name(fields[1]))
                declare(Scenario.risk_name(fields[1]))
                hazards.append(
                    Hazard(fields[1], fields[2], fields[3],
                           int(fields[5]), int(fields[7]), int(fields[9]))
                )
            elif section == "mitigations" and kw == "mitigate":
                if len(fields) != 3 or fields[1] not in REACTIONS:
                    raise fail(f"expected: mitigate {'|'.join(REACTIONS)} <hazard>")
                kind, hazard = fields[1], fields[2]
                first_kind, first_line = mitigated.setdefault(hazard, (kind, lineno))
                if first_kind != kind:
                    raise fail(f"hazard {hazard!r} is already mitigated by {first_kind!r} "
                               f"on line {first_line}: one mitigation per hazard")
                mitigations.append(Mitigation(kind, hazard))
            elif section == "params" and kw in _PARAM_VALUES:
                if len(fields) != 2:
                    raise fail(f"expected: {kw} {_PARAM_VALUES[kw]}")
                params[kw] = float(fields[1]) if kw == "dt" else int(fields[1])
            elif section == "params" and kw == "travel":
                if len(fields) != 4:
                    raise fail("expected: travel <locA> <locB> <instants>")
                travel.append((fields[1], fields[2], int(fields[3])))
            else:
                raise fail(f"unexpected {kw!r} in section [{section}]")
        except ValueError as exc:
            if isinstance(exc, ScenarioError):
                raise
            raise fail(str(exc)) from None

    locations = tuple(
        Location(loc_id, box, frozenset(adjacency[loc_id]))
        for loc_id, box in loc_boxes.items()
    )
    agents = tuple(
        Agent(agent_id, kind, tuple(agent_pois[agent_id]))
        for agent_id, kind in agent_kinds.items()
    )
    try:
        return Scenario(
            name=name,
            layout=Layout(locations),
            agents=agents,
            task=tuple(task),
            hazards=tuple(hazards),
            mitigations=tuple(mitigations),
            bound=int(params.get("bound", DEFAULT_BOUND)) if bound is None else bound,
            threshold=int(params.get("threshold", DEFAULT_THRESHOLD)),
            dt=float(params.get("dt", 1.0)),
            travel_times=tuple(travel),
            starts=tuple(starts),
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


# ---------------------------------------------------------------------------
# Risk scheme


def risk_value(severity: int, exposure: int, avoidability: int, speed: str) -> int:
    """Additive risk of a hazard occurrence, modulated by the robot speed state.

    slow reduces the effective severity by one level (floor 0); stopped
    zeroes the whole value.
    """
    for level, label in ((severity, "severity"), (exposure, "exposure"), (avoidability, "avoidability")):
        if not 0 <= level <= 2:
            raise ValueError(f"{label} {level} out of range 0..2")
    if speed not in SPEED_STATES:
        raise ValueError(f"unknown speed state {speed!r}")
    if speed == "stopped":
        return 0
    if speed == "slow":
        severity = max(severity - 1, 0)
    return severity + exposure + avoidability


def over_speeds(h: Hazard, threshold: int) -> frozenset[str]:
    """The next speeds at which a hazard instant's risk exceeds the threshold.

    Risk falls as the speed falls, so the set is empty unless it holds
    ``normal``.
    """
    levels = (h.severity, h.exposure, h.avoidability)
    return frozenset(v for v in SPEED_STATES if risk_value(*levels, v) > threshold)


# ---------------------------------------------------------------------------
# Compilation


class Axiom(NamedTuple):
    """One compiled axiom, named by the ``check_trace`` rule that stands for it."""

    rule: str  # start, adjacency, dwell, flag, task, slowdown or stop
    element: str  # what the rule reads it for: a POI, a hazard id or done_<i>
    formula: Formula


@dataclass(frozen=True)
class CompiledModel:
    """Formulas of a scenario: behavioral axioms plus the negated safety property."""

    axioms: tuple[Axiom, ...]
    # (hazard id, term) for each hazard whose base risk exceeds the threshold: a
    # hazard instant whose next speed prices it over the threshold.
    terms: tuple[tuple[str, Formula], ...]
    symbols: SymbolTable  # ``model_symbols``: risk_<h> too, which no formula reads

    @cached_property
    def violation(self) -> Formula | None:
        """Some instant of some term; None when there is none (then no trace can: safe)."""
        return Som(disjoin([term for _, term in self.terms])) if self.terms else None

    @cached_property
    def formulas(self) -> tuple[Formula, ...]:
        violation = self.violation
        axioms = tuple(axiom.formula for axiom in self.axioms)
        return axioms if violation is None else axioms + (violation,)


def model_symbols(s: Scenario) -> SymbolTable:
    """Every symbol of the model: POI cells, robot speeds, hazard flags and risks, done flags."""
    symbols = SymbolTable()
    try:
        for poi in s.pois:
            symbols.add_variable(poi.id, s.layout.ids)
        for agent in s.agents:
            if agent.kind == "robot":
                symbols.add_variable(s.speed_name(agent.id), SPEED_STATES)
        for hazard in s.hazards:
            symbols.add_proposition(s.hazard_flag_name(hazard.id))
            symbols.add_variable(s.risk_name(hazard.id), RISK_DOMAIN)
        for i in range(1, len(s.task) + 1):
            symbols.add_proposition(s.done_name(i))
    except ValueError as exc:
        raise ScenarioError(f"cannot declare the model's symbols: {exc}") from None
    return symbols


def compile_scenario(s: Scenario) -> CompiledModel:
    """The scenario's labelled axioms, the violation's terms and the model's symbols."""
    symbols = model_symbols(s)
    axioms: list[Axiom] = []
    for poi in s.pois:
        pos = poi.id
        # Adjacency: stepping away from a cell may only land on a neighbor.
        for loc in s.layout.locations:
            stay_or_neighbor = disjoin(
                [Eq(pos, loc.id)] + [Eq(pos, other) for other in sorted(loc.adjacent)]
            )
            axioms.append(Axiom("adjacency", pos,
                                Alw(Implies(Dist(Eq(pos, loc.id), -1), stay_or_neighbor))))
        # Dwell: arriving over an edge of travel time T >= 2 requires having
        # sat in the source cell for the T instants before; the last of them
        # is the arrival's own antecedent.
        for a, b, duration in s.travel_times:
            if duration == 1:
                continue
            lookback = _lookback(s, duration)
            for source, dest in ((a, b), (b, a)):
                history = conjoin([Dist(Eq(pos, source), -j) for j in range(2, lookback + 1)])
                arrival = And(Dist(Eq(pos, source), -1), Eq(pos, dest))
                axioms.append(Axiom("dwell", pos, Alw(Implies(arrival, history))))

    # Un-wrapped equalities anchor instant 0, where the model is asserted.
    axioms += (Axiom("start", poi_id, Eq(poi_id, loc)) for poi_id, loc in s.starts)

    # The flag holds iff both POIs share a cell, by two clauses per cell: sharing
    # L raises the flag, and a raised flag puts the robot POI where the human's is.
    for hazard in s.hazards:
        flag = Atom(s.hazard_flag_name(hazard.id))
        for loc in s.layout.ids:
            human, robot = Eq(hazard.human_poi, loc), Eq(hazard.robot_poi, loc)
            axioms.append(Axiom("flag", hazard.id, Alw(Implies(And(human, robot), flag))))
            axioms.append(Axiom("flag", hazard.id, Alw(Implies(And(flag, human), robot))))

    for i, step in enumerate(s.task, start=1):
        name = s.done_name(i)
        done, achieved = Atom(name), Eq(step.poi, step.goal)
        if step.partner is not None:  # a handover: both POIs at the goal
            achieved = And(achieved, Eq(step.partner, step.goal))
        onset = achieved if i == 1 else And(achieved, Atom(s.done_name(i - 1)))
        was_done = Dist(done, -1)
        axioms += (Axiom("task", name, f) for f in (
            Alw(Implies(was_done, done)),             # done is sticky
            Alw(Implies(done, Or(was_done, onset))),  # done only via its onset
            Alw(Implies(onset, done)),                # onset marks done at once
        ))
    if s.task:  # the last step is done by k
        last = s.done_name(len(s.task))
        axioms.append(Axiom("task", last, Som(Atom(last))))

    for mit in s.mitigations:
        hazard = s.hazard(mit.hazard)
        flag = Atom(s.hazard_flag_name(hazard.id))
        reaction = Eq(s.speed_name(s.poi(hazard.robot_poi).owner), REACTIONS[mit.kind])
        axioms.append(Axiom(mit.kind, hazard.id, Alw(Implies(flag, Dist(reaction, 1)))))

    # At t = k every Dist is false, so a term holds on the flag alone: the
    # base value, which exceeds the threshold for every hazard with a term.
    terms = []
    for h in s.hazards:
        over = over_speeds(h, s.threshold)
        if "normal" in over:
            speed = s.speed_name(s.poi(h.robot_poi).owner)
            under = [Not(Dist(Eq(speed, v), 1)) for v in SPEED_STATES if v not in over]
            terms.append((h.id, conjoin([Atom(s.hazard_flag_name(h.id))] + under)))

    return CompiledModel(tuple(axioms), tuple(terms), symbols)


def _lookback(s: Scenario, duration: int) -> int:
    """Instants a move over an edge of travel time ``duration`` >= 2 must sit in its source.

    Looking back past the bound is false at every instant, so one such look
    stands for all of them.
    """
    return min(duration, max(s.bound + 1, 2))


# ---------------------------------------------------------------------------
# Verification


@dataclass(frozen=True)
class RiskViolation:
    hazard: str
    instant: int
    risk: int


@dataclass(frozen=True)
class VerifyResult:
    """Safe (no trace violates the threshold) or a counterexample trace."""

    trace: Trace | None
    violations: tuple[RiskViolation, ...] = ()

    @property
    def safe(self) -> bool:
        return self.trace is None


def extract_violations(trace: Trace, s: Scenario) -> tuple[RiskViolation, ...]:
    """Every (hazard, instant) of the trace whose risk exceeds the threshold."""
    found = []
    for t in range(trace.bound + 1):
        for hazard in s.hazards:
            value = int(trace.var_value(s.risk_name(hazard.id), t))
            if value > s.threshold:
                found.append(RiskViolation(hazard.id, t, value))
    return tuple(found)


def _risk_column(trace: Trace, s: Scenario, h: Hazard) -> tuple[str, ...]:
    """The ``risk_<h>`` column ``verify`` gives the trace: each flag priced at the next speed."""
    flags = trace.propositions[s.hazard_flag_name(h.id)]
    speeds = trace.variables[s.speed_name(s.poi(h.robot_poi).owner)]
    price = {v: str(risk_value(h.severity, h.exposure, h.avoidability, v)) for v in SPEED_STATES}
    # No next instant after k: the unmitigated base value.
    next_speeds = speeds[1:] + ("normal",)
    return tuple(price[v] if flag else "0" for flag, v in zip(flags, next_speeds))


def _priced(trace: Trace, s: Scenario) -> Trace:
    """The trace with each ``risk_<h>`` column valued from its flag and the next speed."""
    variables = dict(trace.variables)
    for h in s.hazards:
        variables[s.risk_name(h.id)] = _risk_column(trace, s, h)
    return replace(trace, variables=variables)


def verify(s: Scenario) -> VerifyResult:
    """Safe iff no trace over [0, bound] satisfies the model and breaks the threshold."""
    model = compile_scenario(s)
    if model.violation is None:
        return VerifyResult(None)
    witness = check(conjoin(model.formulas), model.symbols, s.bound)
    if witness is None:
        return VerifyResult(None)
    trace = _priced(witness, s)
    violations = extract_violations(trace, s)
    if not violations:
        raise EncodingError("counterexample without a violating instant")
    return VerifyResult(trace, violations)


# ---------------------------------------------------------------------------
# Trace admissibility


@dataclass(frozen=True)
class BrokenRule:
    """A rule of the model that a trace breaks, the instant, and a message naming both."""

    rule: str  # start, adjacency, dwell, flag, task, slowdown, stop or risk
    instant: int
    message: str


def check_trace(trace: Trace, s: Scenario) -> BrokenRule | None:
    """The first rule of the model that the trace breaks, or None if it breaks none.

    The trace must hold every symbol of ``model_symbols(s)`` over [0, s.bound], as
    ``traceio.read_trace`` returns it.  Each rule reads the columns directly
    and stands for the compiled axioms whose ``Axiom.rule`` is its name, so
    a trace breaks none exactly when it satisfies every formula of
    ``compile_scenario(s).axioms`` and its ``risk_<h>`` columns hold the
    prices ``verify`` gives them.  The time is
    linear in the trace.  Of the broken rules it names the one at the
    earliest instant; at equal instants the first in the order start,
    adjacency, dwell, flag, task, slowdown and stop, risk, and
    within a rule the first in declaration order.
    """
    if trace.bound != s.bound:
        raise ValueError(f"trace bound {trace.bound} differs from scenario bound {s.bound}")
    cells = trace.variables
    adjacent = {loc.id: loc.adjacent for loc in s.layout.locations}
    timed: dict[tuple[str, str], tuple[int, int]] = {}  # move -> travel time, lookback
    for a, b, duration in s.travel_times:
        if duration > 1:
            timed[a, b] = timed[b, a] = (duration, _lookback(s, duration))
    rules = [
        *(_start_rule(poi, loc, cells[poi]) for poi, loc in s.starts),
        *(_adjacency_rule(poi.id, cells[poi.id], adjacent) for poi in s.pois),
        *(_dwell_rule(poi.id, cells[poi.id], timed) for poi in s.pois if timed),
        *(_flag_rule(trace, s, h) for h in s.hazards),
        *(_task_rule(trace, s, i) for i in range(1, len(s.task) + 1)),
        *(_speed_rule(trace, s, m) for m in s.mitigations),
        *(_risk_rule(trace, s, h) for h in s.hazards),
    ]
    # Each rule yields its breaks in time order, so its first is its earliest.
    firsts = [(broken.instant, n, broken) for n, broken in enumerate(next(r, None) for r in rules)
              if broken is not None]
    return min(firsts)[2] if firsts else None


def _start_rule(poi: str, loc: str, cells: tuple[str, ...]):
    if cells[0] != loc:
        yield BrokenRule("start", 0, f"start rule: {poi} is at {cells[0]} at t=0, "
                         f"not at its start {loc}")


def _adjacency_rule(poi: str, cells: tuple[str, ...], adjacent: dict[str, frozenset[str]]):
    for t, (prev, here) in enumerate(zip(cells, cells[1:]), start=1):
        if here != prev and here not in adjacent[prev]:
            yield BrokenRule("adjacency", t, f"adjacency rule: {poi} moves from {prev} to {here} "
                             f"at t={t}, but {here} is not adjacent to {prev}")


def _dwell_rule(poi: str, cells: tuple[str, ...], timed: dict[tuple[str, str], tuple[int, int]]):
    held = 1  # instants the POI has sat in cells[t - 1], up to and including t - 1
    for t, (prev, here) in enumerate(zip(cells, cells[1:]), start=1):
        if here == prev:
            held += 1
            continue
        duration, lookback = timed.get((prev, here), (1, 1))
        if held < lookback:
            yield BrokenRule("dwell", t, f"dwell rule: {poi} moves from {prev} to {here} at t={t} "
                             f"after {held} instant(s) at {prev}, but the edge's travel time "
                             f"is {duration}")
        held = 1


def _flag_rule(trace: Trace, s: Scenario, h: Hazard):
    flag = s.hazard_flag_name(h.id)
    humans, robots = trace.variables[h.human_poi], trace.variables[h.robot_poi]
    for t, (raised, human, robot) in enumerate(zip(trace.propositions[flag], humans, robots)):
        if raised != (human == robot):
            where = (f"{h.human_poi} is at {human} and {h.robot_poi} at {robot}" if raised
                     else f"{h.human_poi} and {h.robot_poi} share {human}")
            yield BrokenRule("flag", t, f"flag rule: {flag} is {'set' if raised else 'unset'} "
                             f"at t={t}, but {where}")


def _task_rule(trace: Trace, s: Scenario, i: int):
    step, name = s.task[i - 1], s.done_name(i)
    done = trace.propositions[name]
    onset = [cell == step.goal for cell in trace.variables[step.poi]]
    if step.partner is not None:
        onset = [a and cell == step.goal for a, cell in zip(onset, trace.variables[step.partner])]
    if i > 1:
        onset = [a and prior for a, prior in zip(onset, trace.propositions[s.done_name(i - 1)])]
    after = f" after {s.done_name(i - 1)}" if i > 1 else ""
    was_done = False
    for t, (now, starts) in enumerate(zip(done, onset)):
        if was_done and not now:
            yield BrokenRule("task", t, f"task rule: {name} is unset at t={t} "
                             f"after being set at t={t - 1}")
        elif now and not (was_done or starts):
            yield BrokenRule("task", t, f"task rule: {name} becomes set at t={t}, "
                             f"but step {i} is not achieved there{after}")
        elif starts and not now:
            yield BrokenRule("task", t, f"task rule: {name} is unset at t={t}, "
                             f"but step {i} is achieved there{after}")
        was_done = now
    if i == len(s.task) and not any(done):
        yield BrokenRule("task", s.bound, f"task rule: {name} is still unset at t={s.bound}, "
                         "the last instant, so the task does not finish")


def _speed_rule(trace: Trace, s: Scenario, m: Mitigation):
    h = s.hazard(m.hazard)
    flag, speed = s.hazard_flag_name(h.id), s.speed_name(s.poi(h.robot_poi).owner)
    want = REACTIONS[m.kind]
    speeds = trace.variables[speed]
    for t, raised in enumerate(trace.propositions[flag]):
        if raised and (t == s.bound or speeds[t + 1] != want):
            found = f"t={t} is the last instant" if t == s.bound else f"it is {speeds[t + 1]}"
            yield BrokenRule(m.kind, t, f"{m.kind} rule: {flag} is set at t={t}, so {speed} "
                             f"must be {want} at t={t + 1}, but {found}")


def _risk_rule(trace: Trace, s: Scenario, h: Hazard):
    name = s.risk_name(h.id)
    for t, (given, due) in enumerate(zip(trace.variables[name], _risk_column(trace, s, h))):
        if given != due:
            yield BrokenRule("risk", t, f"column {name} at t={t} reads {given}, but the hazard "
                             f"flag and the robot's next speed price it {due}")


def bundled_scenario_path(name: str):
    """Filesystem path of a scenario shipped with the package (e.g. 'handover')."""
    from importlib import resources

    candidate = resources.files("coverify").joinpath("data", f"{name}.scn")
    if not candidate.is_file():
        raise ScenarioError(f"no bundled scenario named {name!r}")
    return candidate
