"""Seeded workcell instances whose verdicts are known by construction.

The grid family is an n x n layout of unit cells.  The arm's POI starts in a
corner, picks at a cell next to it and hands the piece over at one of the far
cells; the operator wanders freely.  The seed picks the corner, the pick
cell, the handover cell, the hazard grades and up to two removed interior
adjacencies (the grid stays connected).  Every hazard grade has a base risk
above the threshold, so:

* without a mitigation the operator can always meet the arm at full speed,
  and the instance is UNSAFE;
* with ``mitigate stop`` every contact is followed by a halt, which prices
  it at 0, and the instance is SAFE -- provided the bound leaves room to
  finish the task, which the benchmark's set-up checks (``task_horizon``).

The bundled ``handover*`` scenarios are fixed and carry their documented
verdicts.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

THRESHOLD = 3
RADIUS = 0.05

SAFE = "SAFE"
UNSAFE = "UNSAFE"

# (severity, exposure, avoidability) with sev + exp + avoid > THRESHOLD.
HIGH_GRADES = tuple(
    (s, e, a) for s in range(3) for e in range(3) for a in range(3) if s + e + a > THRESHOLD
)


@dataclass(frozen=True)
class Instance:
    """One benchmark instance: a scenario source plus its expected answers."""

    id: str
    why: str
    expected: str  # SAFE | UNSAFE
    bound: int
    bundled: str | None = None  # name of a bundled scenario, else `text` is the source
    text: str | None = None
    verdicts: frozenset[str] = frozenset()  # expected classify verdict set (UNSAFE only)
    enumerable: bool = False  # small enough to cross-check with exhaustive_verify


def cell(r: int, c: int) -> str:
    return f"C{r}_{c}"


def _grid_edges(n: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    edges = []
    for r in range(n):
        for c in range(n):
            if c + 1 < n:
                edges.append(((r, c), (r, c + 1)))
            if r + 1 < n:
                edges.append(((r, c), (r + 1, c)))
    return edges


def _reachable(edges, source: tuple[int, int]) -> set[tuple[int, int]]:
    """Cells reachable from source over the given edges (breadth-first)."""
    neighbours: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for a, b in edges:
        neighbours.setdefault(a, []).append(b)
        neighbours.setdefault(b, []).append(a)
    seen = {source}
    queue = deque([source])
    while queue:
        for nxt in neighbours.get(queue.popleft(), ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


@dataclass(frozen=True)
class GridLayout:
    n: int
    start: tuple[int, int]
    pick: tuple[int, int]
    handover: tuple[int, int]
    grades: tuple[int, int, int]
    edges: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    removed: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    def scn(self, mitigated: bool, bound: int) -> str:
        sev, exp, avoid = self.grades
        lines = [
            f"# {self.n}x{self.n} grid; arm starts at {cell(*self.start)}, picks at "
            f"{cell(*self.pick)}, hands over at {cell(*self.handover)}",
            f"# removed adjacencies: {[(cell(*a), cell(*b)) for a, b in self.removed]}",
            "[layout]",
        ]
        for r in range(self.n):
            for c in range(self.n):
                lines.append(f"loc {cell(r, c)} box {c} {r} 0 {c + 1} {r + 1} 1")
        for a, b in self.edges:
            lines.append(f"adj {cell(*a)} {cell(*b)}")
        lines += [
            "[agents]",
            "agent operator human",
            "agent arm robot",
            f"poi operator p_a radius {RADIUS}",
            f"poi arm p_g radius {RADIUS}",
            f"start p_g {cell(*self.start)}",
            "[task]",
            f"step p_g pick {cell(*self.pick)}",
            f"step handover p_g p_a {cell(*self.handover)}",
            "[hazards]",
            f"hazard h1 p_a p_g sev {sev} exp {exp} avoid {avoid}",
        ]
        if mitigated:
            lines += ["[mitigations]", "mitigate stop h1"]
        lines += ["[params]", f"bound {bound}", f"threshold {THRESHOLD}", "dt 1.0"]
        return "\n".join(lines) + "\n"


def grid_layout(n: int, rng: random.Random) -> GridLayout:
    """Draw one grid of the family; every draw comes from rng, in a fixed order."""
    if n < 3:
        raise ValueError("grid family needs n >= 3")
    last = n - 1
    start = rng.choice([(0, 0), (0, last), (last, 0), (last, last)])
    pick = rng.choice(
        [(r, c) for r, c in ((start[0] + 1, start[1]), (start[0] - 1, start[1]),
                             (start[0], start[1] + 1), (start[0], start[1] - 1))
         if 0 <= r < n and 0 <= c < n]
    )
    # Far cells: the opposite corner and its two neighbours.
    far = sorted(
        (r, c) for r in range(n) for c in range(n)
        if abs(r - start[0]) + abs(c - start[1]) >= 2 * last - 1
    )
    handover = rng.choice(far)
    grades = rng.choice(HIGH_GRADES)

    # Interior adjacencies: those touching none of the start, pick and
    # handover cells.  A draw that would disconnect the grid is skipped.
    edges = _grid_edges(n)
    pinned = {start, pick, handover}
    interior = [e for e in edges if e[0] not in pinned and e[1] not in pinned]
    removed = []
    for _ in range(rng.randint(0, 2)):
        candidate = rng.choice(interior)
        kept = [e for e in edges if e != candidate]
        if len(_reachable(kept, start)) == n * n:
            edges = kept
            interior.remove(candidate)
            removed.append(candidate)
    return GridLayout(n, start, pick, handover, grades, tuple(edges), tuple(removed))


def grid_instance(n: int, mitigated: bool, bound: int, rng: random.Random, why: str,
                  draw: int | None = None, enumerable: bool = False) -> Instance:
    layout = grid_layout(n, rng)
    kind = "stop" if mitigated else "open"
    return Instance(
        id=f"grid{n}_{kind}_k{bound}" + ("" if draw is None else f"_d{draw}"),
        why=why,
        expected=SAFE if mitigated else UNSAFE,
        bound=bound,
        text=layout.scn(mitigated, bound),
        verdicts=frozenset() if mitigated else frozenset({"POSSIBLE"}),
        enumerable=enumerable,
    )


def safe_proof(seed: int, tiny: bool = False) -> list[Instance]:
    """Stop-mitigated instances: every verdict is a refutation (SAFE, exit 0).

    Only a 3x3 grid is drawn: a 4x4 stop grid at bound 16 takes 3.5 to 6.4 s
    depending on the draw, which alone would spread the pass time by about
    15% from seed to seed.  A 3x3 draw still varies by about 20% (0.43 to
    0.79 s over fifteen draws).  The rest of the pass (about 3.6 s) depends
    on no seed, so more draws would add more seed-dependent time than they
    average out: there is one.  It is small enough to cross-check by
    enumeration (about 3 s in every set-up).
    """
    rng = random.Random(f"safe-proof:{seed}")
    bounds = (14,) if tiny else (14, 22, 30)
    out = [
        Instance(
            id=f"handover_stop_k{k}",
            why="bound sweep of the bundled stop variant: refutation cost grows with k",
            expected=SAFE,
            bound=k,
            bundled="handover_stop",
        )
        for k in bounds
    ]
    out.append(grid_instance(
        3, True, 12, rng,
        "seeded stop grid at bound 4n: a 2-D layout with more paths to refute; "
        "small enough to cross-check by enumeration",
        enumerable=True,
    ))
    return out


# Open grids per size in `counterexample`.  The solver's search time on one
# draw is luck: mirror images of one 6x6 layout took 1.8 to 3.4 s, and ten
# seeded 6x6 draws 1.4 to 3.1 s.  One 6x6 draw would spread the pass time by
# about 15% from seed to seed, so the pass takes several smaller draws,
# whose luck averages out.
OPEN_GRID_DRAWS = 3
OPEN_GRID_SIZES = (4, 5)


def counterexample(seed: int, tiny: bool = False) -> list[Instance]:
    """Unmitigated instances: every verdict is a model search (UNSAFE, exit 1)."""
    rng = random.Random(f"counterexample:{seed}")
    possible = frozenset({"POSSIBLE"})
    out = [
        Instance("handover_point", "point cells: every contact is CONFIRMED, classify exits 0",
                 UNSAFE, 14, bundled="handover_point", verdicts=frozenset({"CONFIRMED"})),
        Instance("handover_mini", "smallest bundled scenario, cross-checked by enumeration",
                 UNSAFE, 6, bundled="handover_mini", verdicts=possible, enumerable=True),
    ]
    if tiny:
        return out
    out += [
        Instance("handover_k14", "bundled scenario at its own bound", UNSAFE, 14,
                 bundled="handover", verdicts=possible),
        Instance("handover_k30", "same scenario at bound 30: a larger CNF for the same answer",
                 UNSAFE, 30, bundled="handover", verdicts=possible),
    ]
    for n in OPEN_GRID_SIZES:
        for draw in range(OPEN_GRID_DRAWS):
            out.append(grid_instance(
                n, False, 4 * n, rng,
                "seeded open grid at bound 4n: encode, decode and witness re-check grow "
                "with n*n*k; several draws so that search luck averages out",
                draw,
            ))
    return out


def replay(seed: int, tiny: bool = False) -> list[Instance]:
    """The `counterexample` instances with one draw per grid size: replay costs the same on each."""
    return [inst for inst in counterexample(seed, tiny)
            if inst.text is None or inst.id.endswith("_d0")]
