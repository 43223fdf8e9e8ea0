"""The explicit-state walker that ``coverify.exhaustive`` replaced, kept verbatim.

It holds every robot's speed in each node and a set of violation flags per
node. The current walker drops both; ``test_exhaustive.py`` checks that the
two give the same verdict. Only the import of ``coverify.world`` differs from
the original module.
"""

from __future__ import annotations

from itertools import product

from coverify.world import SPEED_STATES, Scenario, TaskStep, risk_value

__all__ = ["exhaustive_verify"]

_STATE_LIMIT = 2_000_000


def exhaustive_verify(s: Scenario) -> bool:
    for a, b, t in s.travel_times:
        if t != 1:
            raise ValueError("exhaustive check supports unit travel times only")
    for mit in s.mitigations:
        if mit.kind == "retract":
            raise ValueError("exhaustive check does not support retract mitigations")

    pois = [poi.id for poi in s.pois]
    robots = [agent.id for agent in s.agents if agent.kind == "robot"]
    locs = list(s.layout.ids)
    adjacent = {loc.id: sorted(loc.adjacent) for loc in s.layout.locations}
    start_of = dict(s.starts)

    if (len(locs) ** len(pois)) * (2 ** len(pois)) * (3 ** len(robots)) > _STATE_LIMIT:
        raise ValueError("scenario too large for exhaustive enumeration")

    def achieved(step: TaskStep, positions: dict[str, str]) -> bool:
        if positions[step.poi] != step.goal:
            return False
        if step.kind == "handover":
            assert step.partner is not None
            return positions[step.partner] == step.goal
        return True

    def done_row(prev_done: tuple[bool, ...] | None, positions: dict[str, str]) -> tuple[bool, ...]:
        row: list[bool] = []
        for i, step in enumerate(s.task):
            before = prev_done[i] if prev_done is not None else False
            ready = row[i - 1] if i > 0 else True
            row.append(before or (achieved(step, positions) and ready))
        return tuple(row)

    def hazards_at(positions: dict[str, str]) -> list:
        return [h for h in s.hazards if positions[h.human_poi] == positions[h.robot_poi]]

    mitigated: dict[str, set[str]] = {}
    for mit in s.mitigations:
        mitigated.setdefault(mit.hazard, set()).add(mit.kind)

    def required_speed(hazard_id: str) -> set[str]:
        kinds = mitigated.get(hazard_id, set())
        out = set(SPEED_STATES)
        if "slowdown" in kinds:
            out &= {"slow"}
        if "stop" in kinds:
            out &= {"stopped"}
        return out

    def position_choices(poi: str) -> list[str]:
        fixed = start_of.get(poi)
        return [fixed] if fixed is not None else locs

    # A node is (positions, transit flags, robot speeds, done flags); the
    # frontier maps nodes to the set of violation verdicts reachable with them.
    frontier: dict[tuple, set[bool]] = {}
    for pos_combo in product(*(position_choices(p) for p in pois)):
        positions = dict(zip(pois, pos_combo))
        done = done_row(None, positions)
        for transit in product((False, True), repeat=len(pois)):
            for speed_combo in product(SPEED_STATES, repeat=len(robots)):
                node = (pos_combo, transit, speed_combo, done)
                frontier.setdefault(node, set()).add(False)

    for _ in range(s.bound):
        next_frontier: dict[tuple, set[bool]] = {}
        for (pos_combo, transit, speed_combo, done), flags in frontier.items():
            positions = dict(zip(pois, pos_combo))
            speed_by_robot = dict(zip(robots, speed_combo))
            active = hazards_at(positions)

            next_positions: list[list[tuple[str, bool]]] = []
            for idx, poi in enumerate(pois):
                here = pos_combo[idx]
                options = [(here, False), (here, True)]  # stay; transit may idle
                if transit[idx]:
                    # A move may complete now; a run may also keep going only
                    # if the position eventually changes, enforced stepwise:
                    # staying put while dropping the flag would strand the run.
                    options = [(here, True)] + [(nxt, False) for nxt in adjacent[here]] + [
                        (nxt, True) for nxt in adjacent[here]
                    ]
                next_positions.append(options)

            allowed_speeds: list[set[str]] = [set(SPEED_STATES) for _ in robots]
            admissible = True
            for hazard in active:
                required = required_speed(hazard.id)
                if not required:
                    admissible = False
                    break
                robot = s.poi(hazard.robot_poi).owner
                allowed_speeds[robots.index(robot)] &= required
            if not admissible or any(not allowed for allowed in allowed_speeds):
                continue

            for combo in product(*next_positions):
                new_pos = tuple(choice[0] for choice in combo)
                new_transit = tuple(choice[1] for choice in combo)
                new_positions = dict(zip(pois, new_pos))
                new_done = done_row(done, new_positions)
                for new_speed in product(*(sorted(allowed) for allowed in allowed_speeds)):
                    new_speed_by_robot = dict(zip(robots, new_speed))
                    step_violates = any(
                        risk_value(
                            h.severity, h.exposure, h.avoidability,
                            new_speed_by_robot[s.poi(h.robot_poi).owner],
                        )
                        > s.threshold
                        for h in active
                    )
                    node = (new_pos, new_transit, new_speed, new_done)
                    bucket = next_frontier.setdefault(node, set())
                    for flag in flags:
                        bucket.add(flag or step_violates)
        frontier = next_frontier

    # Final instant: no reaction window remains, so hazards are priced at
    # their base value; hazards with a reaction mitigation cannot hold here.
    for (pos_combo, _transit, _speed, done), flags in frontier.items():
        if s.task and not done[-1]:
            continue
        positions = dict(zip(pois, pos_combo))
        active = hazards_at(positions)
        if any(mitigated.get(h.id) for h in active):
            continue
        end_violates = any(
            risk_value(h.severity, h.exposure, h.avoidability, "normal") > s.threshold
            for h in active
        )
        if end_violates or True in flags:
            return False
    return True
