"""The movement axioms with per-POI transit flags that ``coverify.world`` replaced, kept verbatim.

Every POI carried a ``transit_<poi>`` proposition: arriving over an edge of
travel time T required the source cell and transit at each of the T
instants before, and transit persisted by one clause per cell.  The current
model keeps only the dwell in the source cell; ``test_world.py`` checks that
both models give the same verdicts and that each new witness, with transit
raised everywhere, satisfies these axioms.  Only this docstring, ``__all__``,
the imports and the transit name, which ``Scenario`` no longer derives,
differ from the original code.
"""

from __future__ import annotations

from coverify.logic import Alw, And, Atom, Dist, Eq, Implies, Not, Or, conjoin, disjoin
from coverify.world import Scenario

__all__ = ["transit_name", "movement_axioms"]


def transit_name(poi_id: str) -> str:
    return f"transit_{poi_id}"


def movement_axioms(s: Scenario):
    for poi in s.pois:
        pos = poi.id
        transit = Atom(transit_name(pos))
        # Adjacency: stepping away from a cell may only land on a neighbor.
        for loc in s.layout.locations:
            stay_or_neighbor = disjoin(
                [Eq(pos, loc.id)] + [Eq(pos, other) for other in sorted(loc.adjacent)]
            )
            yield Alw(Implies(Dist(Eq(pos, loc.id), -1), stay_or_neighbor))
        # Arrival discipline: reaching a neighbor requires having sat in the
        # source cell, in transit, for the edge's whole travel time.
        for loc in s.layout.locations:
            for other in sorted(loc.adjacent):
                duration = s.travel_time(loc.id, other)
                history = conjoin(
                    [
                        And(Dist(Eq(pos, loc.id), -j), Dist(transit, -j))
                        for j in range(1, duration + 1)
                    ]
                )
                yield Alw(
                    Implies(And(Dist(Eq(pos, loc.id), -1), Eq(pos, other)), history)
                )
        # Transit persists until the position changes, by one clause per cell.
        transit_next = Dist(transit, 1)  # one shared object, so one encoded row
        for loc in s.layout.locations:
            here = Eq(pos, loc.id)
            yield Alw(Implies(And(transit, here), Or(transit_next, Not(Dist(here, 1)))))
