"""The exhaustive walker against the walker it replaced and against ``verify``."""

import random
from dataclasses import replace

import pytest

from frozen_exhaustive import exhaustive_verify as frozen_exhaustive_verify

from coverify.exhaustive import exhaustive_verify
from coverify.world import bundled_scenario_path, loads_scenario, verify

# Each shape: (agent lines, POI lines, hazard pairs (human POI, robot POI), robot POIs, human POIs).
SHAPES = {
    "two_robots": (
        ["agent op human", "agent a1 robot", "agent a2 robot"],
        ["poi op h radius 0.05", "poi a1 g radius 0.05", "poi a2 r radius 0.05"],
        [("h", "g"), ("h", "r")], ("g", "r"), ("h",),
    ),
    "two_humans_one_robot": (
        ["agent op human", "agent arm robot"],
        ["poi op h radius 0.05", "poi op f radius 0.05", "poi arm g radius 0.05"],
        [("h", "g"), ("f", "g")], ("g",), ("h", "f"),
    ),
    "two_hazards_one_pair": (
        ["agent op human", "agent arm robot"],
        ["poi op h radius 0.05", "poi arm g radius 0.05"],
        [("h", "g"), ("h", "g")], ("g",), ("h",),
    ),
}


def _multi_hazard_text(rng: random.Random) -> tuple[str, str]:
    """2-3 unit cells, 2-3 POIs and two hazards: on two robots or on one robot."""
    shape = rng.choice(sorted(SHAPES))
    agents, pois, pairs, arms, humans = SHAPES[shape]
    cells = [f"C{i}" for i in range(rng.randint(2, 3))]
    lines = ["[layout]"]
    lines += [f"loc {cell} box {i} 0 0 {i + 1} 1 1" for i, cell in enumerate(cells)]
    lines += [f"adj {a} {b}" for a, b in zip(cells, cells[1:])]
    if len(cells) > 2 and rng.random() < 0.5:
        lines.append(f"adj {cells[-1]} {cells[0]}")
    lines += ["[agents]", *agents, *pois]
    lines += [f"start {poi} {rng.choice(cells)}" for poi in arms + humans if rng.random() < 0.5]
    lines.append("[task]")
    steps = rng.randint(0, 2)
    if steps >= 1:
        lines.append(f"step {rng.choice(arms + humans)} reach {rng.choice(cells)}")
    if steps == 2:
        lines.append(f"step handover {rng.choice(arms)} {rng.choice(humans)} {rng.choice(cells)}")
    lines.append("[hazards]")
    for i, (human, arm) in enumerate(pairs, start=1):
        grades = " ".join(f"{name} {rng.randint(0, 2)}" for name in ("sev", "exp", "avoid"))
        lines.append(f"hazard hz{i} {human} {arm} {grades}")
    lines.append("[mitigations]")
    for i in range(1, len(pairs) + 1):
        kinds = [kind for kind in ("stop", "slowdown") if rng.random() < 0.35]
        lines += [f"mitigate {kind} hz{i}" for kind in kinds[:1]]  # one mitigation per hazard
    lines += ["[params]", f"bound {rng.randint(0, 3)}", f"threshold {rng.randint(0, 5)}"]
    return shape, "\n".join(lines) + "\n"


class TestMultiHazardScenarios:
    """Speeds of two robots, or two hazards' mitigations on one robot, meet in one step."""

    SCENARIOS = 60  # the first scenarios drawn from the seed

    def test_walker_matches_frozen_walker_and_verify(self):
        rng = random.Random(2718)
        verdicts, shapes = [], set()
        for _ in range(self.SCENARIOS):
            shape, text = _multi_hazard_text(rng)
            scenario = loads_scenario(text)
            safe = exhaustive_verify(scenario)
            assert safe == frozen_exhaustive_verify(scenario), text
            assert safe == verify(scenario).safe, text
            verdicts.append(safe)
            shapes.add(shape)
        assert True in verdicts and False in verdicts
        assert shapes == set(SHAPES)


def _grid_text(rng: random.Random, n: int, kind: str | None, margin: int) -> str:
    """An n x n grid of unit cells, a pick-and-handover task and one hazard.

    The hazard's base risk is ``margin`` over the threshold, so a slowdown
    (``kind``) prices it at the threshold for margin 1 and over it for 2.

    Bounds run past the grid's diameter, so most nodes of a layer were
    already reached by an earlier one.  3x3 grids stop at bound 9: the frozen
    walker, which also holds speeds, takes seconds on one at bound 12.
    """
    names = [[f"R{r}C{c}" for c in range(n)] for r in range(n)]
    cells = [name for row in names for name in row]
    lines = ["[layout]"]
    lines += [f"loc {names[r][c]} box {c} {r} 0 {c + 1} {r + 1} 1" for r in range(n) for c in range(n)]
    lines += [f"adj {names[r][c]} {names[r][c + 1]}" for r in range(n) for c in range(n - 1)]
    lines += [f"adj {names[r][c]} {names[r + 1][c]}" for r in range(n - 1) for c in range(n)]
    lines += ["[agents]", "agent op human", "agent arm robot"]
    lines += ["poi op h radius 0.05", "poi arm g radius 0.05"]
    lines += [f"start {poi} {rng.choice(cells)}" for poi in ("g", "h") if rng.random() < 0.6]
    lines += ["[task]", f"step g pick {rng.choice(cells)}", f"step handover g h {rng.choice(cells)}"]
    grades = [rng.randint(1, 2), rng.randint(0, 2), rng.randint(1, 2)]  # base risk 2 or more
    lines += ["[hazards]", "hazard hz1 h g sev {} exp {} avoid {}".format(*grades), "[mitigations]"]
    lines += [f"mitigate {kind} hz1"] if kind else []
    threshold = sum(grades) - margin
    bound = rng.randint(6, 12 if n == 2 else 9)
    lines += ["[params]", f"bound {bound}", f"threshold {threshold}"]
    return "\n".join(lines) + "\n"


class TestGridScenarios:
    """Grids at bounds where the walker meets the same node on many layers."""

    # (grid size, mitigation, margin of the base risk over the threshold)
    CASES = [(2, None, 1), (2, "stop", 2), (2, "slowdown", 1), (2, "slowdown", 2), (3, "slowdown", 2)]

    def test_walker_matches_frozen_walker_and_verify(self):
        rng = random.Random(1414)
        verdicts = []
        for n, kind, margin in self.CASES:
            text = _grid_text(rng, n, kind, margin)
            scenario = loads_scenario(text)
            safe = exhaustive_verify(scenario)
            assert safe == frozen_exhaustive_verify(scenario), text
            assert safe == verify(scenario).safe, text
            verdicts.append((safe, bool(scenario.mitigations)))
        assert (True, True) in verdicts and (False, False) in verdicts
        # Only a flag carried from an earlier instant can make a mitigated scenario unsafe.
        assert (False, True) in verdicts


def _row_text(rng: random.Random) -> str:
    """A row of 4-6 unit cells, both POIs pinned, and a slowdown too weak for its hazard.

    The hazard's risk is 5 at normal speed and 4 at slow, over threshold 3, so
    every hazard instant before the last raises the flag, and a mitigated
    hazard cannot hold at the final instant.  A scenario is then unsafe only
    through a flag raised before the last instant and carried to the end.
    """
    cells = [f"C{i}" for i in range(rng.randint(4, 6))]
    lines = ["[layout]"]
    lines += [f"loc {cell} box {i} 0 0 {i + 1} 1 1" for i, cell in enumerate(cells)]
    lines += [f"adj {a} {b}" for a, b in zip(cells, cells[1:])]
    lines += ["[agents]", "agent op human", "agent arm robot"]
    lines += ["poi op h radius 0.05", "poi arm g radius 0.05"]
    lines += [f"start {poi} {rng.choice(cells)}" for poi in ("h", "g")]
    lines.append("[task]")
    for _ in range(rng.randint(1, 3)):
        lines.append(rng.choice(["step g pick {}", "step h reach {}"]).format(rng.choice(cells)))
    lines += ["[hazards]", "hazard hz1 h g sev 2 exp 2 avoid 1"]
    lines += ["[mitigations]", "mitigate slowdown hz1"]
    lines += ["[params]", f"bound {rng.randint(2, 8)}", "threshold 3"]
    return "\n".join(lines) + "\n"


class TestRowScenarios:
    """Ordered steps on a row, where a flag raised early decides the verdict."""

    SCENARIOS = 60  # the first scenarios drawn from the seed

    def test_walker_matches_frozen_walker_and_verify(self):
        rng = random.Random(3141)
        verdicts = []
        for _ in range(self.SCENARIOS):
            text = _row_text(rng)
            scenario = loads_scenario(text)
            safe = exhaustive_verify(scenario)
            assert safe == frozen_exhaustive_verify(scenario), text
            assert safe == verify(scenario).safe, text
            verdicts.append(safe)
        assert True in verdicts and False in verdicts

    def test_conflicting_mitigations_on_one_robot(self):
        rng = random.Random(1618)
        verdicts, conflict_at_start = [], False
        for _ in range(self.SCENARIOS):
            text = _conflict_text(rng)
            scenario = loads_scenario(text)
            # Not the frozen walker: it also holds 2**3 transit flags and takes seconds here.
            safe = exhaustive_verify(scenario)
            assert safe == verify(scenario).safe, text
            verdicts.append(safe)
            conflict_at_start |= len(set(dict(scenario.starts).values())) == 1
        assert True in verdicts and False in verdicts
        assert conflict_at_start


def _conflict_text(rng: random.Random) -> str:
    """A row of 2-4 unit cells where a stop and a slowdown bind one robot POI.

    hz1 (human POI h) is stopped and hz2 (human POI f) slowed, both on the
    arm's g, so an instant where h, f and g share a cell leaves the arm no
    admissible speed and no trace passes it.  The slowdown still prices hz2
    at 4, over threshold 3.  Every POI is pinned, so some draws start all
    three in one cell and have no admissible trace at all.
    """
    cells = [f"C{i}" for i in range(rng.randint(2, 4))]
    lines = ["[layout]"]
    lines += [f"loc {cell} box {i} 0 0 {i + 1} 1 1" for i, cell in enumerate(cells)]
    lines += [f"adj {a} {b}" for a, b in zip(cells, cells[1:])]
    lines += ["[agents]", "agent op human", "agent arm robot"]
    lines += ["poi op h radius 0.05", "poi op f radius 0.05", "poi arm g radius 0.05"]
    lines += [f"start {poi} {rng.choice(cells)}" for poi in ("h", "f", "g")]
    lines.append("[task]")
    for _ in range(rng.randint(0, 2)):
        lines.append(f"step {rng.choice('hfg')} reach {rng.choice(cells)}")
    lines += ["[hazards]", "hazard hz1 h g sev 2 exp 2 avoid 1", "hazard hz2 f g sev 2 exp 2 avoid 1"]
    lines += ["[mitigations]", "mitigate stop hz1", "mitigate slowdown hz2"]
    lines += ["[params]", f"bound {rng.randint(1, 5)}", "threshold 3"]
    return "\n".join(lines) + "\n"


def _long_row_text(cells: int) -> str:
    """Four POIs on two robots and one operator, all pinned, in a row of unit cells."""
    names = [f"C{i}" for i in range(cells)]
    lines = ["[layout]"]
    lines += [f"loc {cell} box {i} 0 0 {i + 1} 1 1" for i, cell in enumerate(names)]
    lines += [f"adj {a} {b}" for a, b in zip(names, names[1:])]
    lines += ["[agents]", "agent op human", "agent a1 robot", "agent a2 robot"]
    lines += ["poi op h radius 0.05", "poi op f radius 0.05"]
    lines += ["poi a1 g radius 0.05", "poi a2 r radius 0.05"]
    lines += ["start h C0", "start f C5", "start g C1", "start r C6"]
    lines += ["[hazards]", "hazard hz1 h g sev 2 exp 2 avoid 1", "hazard hz2 f r sev 2 exp 1 avoid 1"]
    lines += ["[mitigations]", "mitigate stop hz2", "[params]", "bound 2"]
    return "\n".join(lines) + "\n"


def test_state_limit_counts_only_what_a_node_holds():
    # 12 cells and 4 POIs: 12**4 = 20,736 tuples of cells, under the limit;
    # the frozen walker also counted 2**4 transit and 3**2 speed states and refuses.
    scenario = loads_scenario(_long_row_text(12))
    with pytest.raises(ValueError, match="too large"):
        frozen_exhaustive_verify(scenario)
    assert exhaustive_verify(scenario) is False
    assert verify(scenario).safe is False
    with pytest.raises(ValueError, match="too large"):
        exhaustive_verify(loads_scenario(_long_row_text(38)))  # 38**4 > 2,000,000


def _profile(s, safe) -> str:
    return "".join("S" if safe(replace(s, bound=k)) else "U" for k in range(31))


class TestTravelTimes:
    """Edges of travel time 2 or more: a POI leaves a cell only after holding it that long."""

    # The verdicts at k = 0..30.  Below k = 5 no behaviour of handover or handover_point
    # finishes the task, so both oracles answer SAFE vacuously there; handover_stop's
    # reaction keeps it SAFE at every bound.  "<name>+<kind>" is the bundled scenario
    # with h1 mitigated by that kind: stop keeps handover_mini SAFE, while slowdown
    # still prices h1 at 4, over threshold 3, once the task can finish.
    PROFILES = {
        "handover": "S" * 5 + "U" * 26,
        "handover_point": "S" * 5 + "U" * 26,
        "handover_stop": "S" * 31,
        "handover_mini": "S" + "U" * 30,
        "handover_mini+stop": "S" * 31,
        "handover_mini+slowdown": "SS" + "U" * 29,
    }
    GRIDS = 100  # the first grids drawn from the seed

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_bundled_scenarios_at_every_bound(self, name):
        bundled, _, kind = name.partition("+")
        text = bundled_scenario_path(bundled).read_text(encoding="utf-8")
        mitigation = f"[mitigations]\nmitigate {kind} h1\n" if kind else ""
        s = loads_scenario(text + mitigation)
        walked = _profile(s, exhaustive_verify)
        assert walked == _profile(s, lambda s: verify(s).safe)
        assert walked == self.PROFILES[name]

    def test_grids_with_travel_lines(self):
        rng = random.Random(20261019)
        verdicts = []
        for _ in range(self.GRIDS):
            n = rng.choice((2, 3))
            text = _grid_text(rng, n, rng.choice((None, "stop", "slowdown")), rng.choice((1, 2)))
            names = [[f"R{r}C{c}" for c in range(n)] for r in range(n)]
            edges = [(names[r][c], names[r][c + 1]) for r in range(n) for c in range(n - 1)]
            edges += [(names[r][c], names[r + 1][c]) for r in range(n - 1) for c in range(n)]
            for a, b in rng.sample(edges, rng.randint(1, 2)):
                text += f"travel {a} {b} {rng.randint(2, 4)}\n"
            scenario = loads_scenario(text)
            safe = exhaustive_verify(scenario)
            assert safe == verify(scenario).safe, text
            verdicts.append(safe)
        assert True in verdicts and False in verdicts
