"""Exhaustive cross-check of ``world.verify`` by explicit state enumeration.

Walks every behavior of a scenario layer by layer instead of going through
the SAT encoding, so the two verdicts come from entirely different machinery.
Tractable only for small scenarios.

A node is the task's progress, the number of steps done (steps complete in
order, so the done flags are always a prefix), and per POI a place: its cell
and its hold count, the consecutive instants it has sat in that cell (1 at
instant 0, one more per stay, 1 again after a move).  A node gets an int id
the first time it is seen.  A POI may stay, or step to a neighbor over an
edge of travel time T once its count is at least T: the model's adjacency
and dwell rules, the dwell's lookback past instant 0 being false.  Only
those comparisons read a count, so it is capped at the longest travel time
and at bound + 1, more than any move can read; under unit travel it is
always 1.  No robot speed is held: no move, progress or final check reads
one.

A layer is two sets of ids: ``hot`` holds the nodes that some path reaches
through a hazard instant whose risk exceeds the threshold, ``cold`` those
that only unflagged paths reach.  A hazard instant is priced against its
robot's speed one instant later, so each step takes the worst speed that the
active hazards' mitigations still allow; no other speed can raise the flag,
and nothing after a step reads the flag but the final check, so one flag per
node loses no verdict.  The speeds that price an instant over the threshold
are ``world.over_speeds``, the set the SAT model's violation reads too.

Every hazard has two speed sets: ``allowed`` prices an instant with a next
one, ``last`` the final instant, where no reaction window remains.  ``last``
is ``normal`` for an unmitigated hazard, its base value, and empty for a
mitigated one, which therefore cannot hold there.  One ``price`` rule reads
either set.

Each node is expanded once: its successors are kept as a tuple of ids, and
the pricing of an instant is kept per tuple of places, the only thing it
reads.  A step is then set unions of those tuples, and a node that both sets
reach stays hot only.  Memory therefore grows with the reachable state graph
(its nodes times their successors), not with one layer.

``exhaustive_verify`` returns True when the scenario is safe: no admissible
trace that completes the task carries a hazard instant whose risk exceeds
the threshold.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .world import SPEED_STATES, Scenario, over_speeds

__all__ = ["exhaustive_verify"]

_STATE_LIMIT = 2_000_000
_REQUIRED_SPEED = {"slowdown": {"slow"}, "stop": {"stopped"}}

_Place = tuple[str, int]  # a POI's cell and hold count


class _Hazard(NamedTuple):
    human: int  # index of the human POI in a node's places
    arm: int  # index of the robot POI
    robot: str
    allowed: frozenset[str]  # speeds its mitigation allows one instant after detection
    last: frozenset[str]  # speeds that price it at the final instant
    over: frozenset[str]  # speeds at which its risk exceeds the threshold


def exhaustive_verify(s: Scenario) -> bool:
    pois = [poi.id for poi in s.pois]
    locs = list(s.layout.ids)
    start_of = dict(s.starts)
    cap = min(max((t for _, _, t in s.travel_times), default=1), s.bound + 1)

    if (len(locs) * cap) ** len(pois) > _STATE_LIMIT:  # tuples of places
        raise ValueError("scenario too large for exhaustive enumeration")

    kind_of = {mit.hazard: mit.kind for mit in s.mitigations}
    hazards = []
    for h in s.hazards:
        kind = kind_of.get(h.id)
        allowed = frozenset(_REQUIRED_SPEED[kind] if kind else SPEED_STATES)
        last = frozenset() if kind else frozenset({"normal"})
        human, arm = pois.index(h.human_poi), pois.index(h.robot_poi)
        robot = s.poi(h.robot_poi).owner
        hazards.append(_Hazard(human, arm, robot, allowed, last, over_speeds(h, s.threshold)))

    # Per task step: its goal and the POIs that must stand on it (a handover's two).
    steps = [(step.goal, [pois.index(p) for p in (step.poi, step.partner) if p]) for step in s.task]

    def progress(done: int, places: tuple[_Place, ...]) -> int:
        while done < len(steps) and all(places[j][0] == steps[done][0] for j in steps[done][1]):
            done += 1
        return done

    # Per place: the places one step may end in, staying first.
    moves = {
        (loc.id, held): [(loc.id, min(held + 1, cap)),
                         *((d, 1) for d in sorted(loc.adjacent) if held >= s.travel_time(loc.id, d))]
        for loc in s.layout.locations
        for held in range(1, cap + 1)
    }

    Node = tuple[tuple[_Place, ...], int]
    node_ids: dict[Node, int] = {}
    nodes: list[Node] = []

    def intern(node: Node) -> int:
        i = node_ids.get(node)
        if i is None:
            i = node_ids[node] = len(nodes)
            nodes.append(node)
        return i

    pricing: dict[tuple[tuple[_Place, ...], bool], bool | None] = {}

    def price(places: tuple[_Place, ...], final: bool = False) -> bool | None:
        """Whether an instant at these places raises the flag; None if no speed is admissible."""
        key = places, final
        if key in pricing:
            return pricing[key]
        active = [h for h in hazards if places[h.human][0] == places[h.arm][0]]
        speeds: dict[str, frozenset[str]] = {}
        for h in active:
            ok = h.last if final else h.allowed
            speeds[h.robot] = speeds.get(h.robot, ok) & ok
        raises = None  # the hazards leave one robot no speed
        if all(speeds.values()):  # the worst speed still allowed prices this instant
            raises = any(speeds[h.robot] & h.over for h in active)
        pricing[key] = raises
        return raises

    successors: dict[int, tuple[int, ...]] = {}

    def expand(i: int) -> tuple[int, ...]:
        row = successors.get(i)
        if row is None:
            places, done = nodes[i]
            row = successors[i] = tuple(
                intern((new, progress(done, new))) for new in product(*map(moves.get, places))
            )
        return row

    # hot and cold, as in the module docstring; they never share a node.
    hot: set[int] = set()
    cold: set[int] = set()
    for cells in product(*([start_of[p]] if p in start_of else locs for p in pois)):
        places = tuple((c, 1) for c in cells)
        cold.add(intern((places, progress(0, places))))

    for _ in range(s.bound):
        next_hot: set[int] = set()
        next_cold: set[int] = set()
        for flagged, layer in ((True, hot), (False, cold)):
            for i in layer:
                raises = price(nodes[i][0])
                if raises is not None:
                    (next_hot if flagged or raises else next_cold).update(expand(i))
        next_cold -= next_hot
        hot, cold = next_hot, next_cold

    for flagged, layer in ((True, hot), (False, cold)):
        for i in layer:
            places, done = nodes[i]
            if done == len(steps):
                raises = price(places, final=True)
                if raises is not None and (flagged or raises):
                    return False
    return True
