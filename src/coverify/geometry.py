"""Axis-aligned box geometry: distance bounds and contact probability.

Cells of the workcell layout are axis-aligned boxes; a point of interest is
somewhere inside its cell, so the distance between two points of interest is
only known up to the interval [aabb_min_distance, aabb_max_distance] of
their cells.  ``contact_probability`` quantifies the remaining uncertainty
for uniform placements.  Two points in the same box with a threshold no
longer than its shortest edge have a closed form; every other pair goes to
``sample_contact_probability``, a seeded Monte Carlo estimate drawn from one
PCG64 stream, the same to the bit on any machine.

numpy is imported inside ``sample_contact_probability``, on the first
estimate that neither the interval bounds nor the closed form decide.  It
is the slowest import of the package by far, and ``verify``, ``export`` and
``oracle`` never draw a sample, so they never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Box",
    "aabb_min_distance",
    "aabb_max_distance",
    "contact_probability",
    "sample_contact_probability",
]

# Rows of uniforms drawn and processed per block.  Only the working set
# depends on it (about 0.9 MB of buffers, sized to stay in a core's L2
# cache); the estimate does not, because every sample takes its own six
# uniforms of the PCG64 stream and the same arithmetic whatever the block
# size.
_MC_BLOCK = 1 << 13


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by min and max corners (meters). May be degenerate."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def __post_init__(self) -> None:
        if len(self.lo) != 3 or len(self.hi) != 3:
            raise ValueError("box corners must be 3-dimensional")
        if not all(math.isfinite(c) for c in (*self.lo, *self.hi)):
            raise ValueError(f"box corners {self.lo}, {self.hi} must be finite")
        for a, b in zip(self.lo, self.hi):
            if a > b:
                raise ValueError(f"box min corner {self.lo} exceeds max corner {self.hi}")

    @property
    def center(self) -> tuple[float, float, float]:
        return tuple((a + b) / 2.0 for a, b in zip(self.lo, self.hi))

    @property
    def edges(self) -> tuple[float, float, float]:
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    def interior_overlaps(self, other: "Box") -> bool:
        return all(a0 < b1 and b0 < a1 for a0, a1, b0, b1 in zip(self.lo, self.hi, other.lo, other.hi))


def aabb_min_distance(a: Box, b: Box) -> float:
    """Euclidean distance between the closest points of a and b (0 if touching)."""
    gaps = [
        max(0.0, a_lo - b_hi, b_lo - a_hi)
        for a_lo, a_hi, b_lo, b_hi in zip(a.lo, a.hi, b.lo, b.hi)
    ]
    return math.sqrt(sum(g * g for g in gaps))


def aabb_max_distance(a: Box, b: Box) -> float:
    """Maximum distance between any point of a and any point of b."""
    spans = [
        max(abs(a_hi - b_lo), abs(b_hi - a_lo))
        for a_lo, a_hi, b_lo, b_hi in zip(a.lo, a.hi, b.lo, b.hi)
    ]
    return math.sqrt(sum(s * s for s in spans))


def _same_box_contact(box: Box, r: float) -> float:
    """P(|X - Y| <= r) for X, Y uniform in one box with edges a, b, c > 0 and
    r <= min(a, b, c): the volume of {(x, y): |x - y| <= r} over (abc)^2,

        [abc (4 pi/3) r^3 - (ab + bc + ca) (pi/2) r^4
         + (a + b + c) (8/15) r^5 - r^6/6] / (abc)^2.

    On the unit cube it is the distance CDF of ``tools/mc_reference.py``.
    """
    a, b, c = box.edges
    volume = a * b * c
    return (
        volume * (4 * math.pi / 3) * r**3
        - (a * b + b * c + c * a) * (math.pi / 2) * r**4
        + (a + b + c) * (8 / 15) * r**5
        - r**6 / 6
    ) / (volume * volume)


def _check_arguments(threshold: float, samples: int) -> None:
    if samples < 1:
        raise ValueError("sample count must be >= 1")
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError("threshold must be a finite number >= 0")


def contact_probability(a: Box, b: Box, threshold: float, samples: int, seed: int) -> float:
    """P(|X - Y| <= threshold), X uniform in a and Y uniform in b.

    Exact where the geometry decides it: 1.0 when the boxes' largest
    distance is within the threshold, 0.0 when their smallest distance is
    beyond it, and the closed form of ``_same_box_contact`` when a == b, every
    edge is > 0 and the threshold is at most the shortest edge.  Every other
    pair returns ``sample_contact_probability(a, b, threshold, samples,
    seed)``, so ``samples`` and ``seed`` matter only there.  The arguments
    are checked first, whichever answer follows.
    """
    _check_arguments(threshold, samples)
    if aabb_max_distance(a, b) <= threshold:
        return 1.0
    if aabb_min_distance(a, b) > threshold:
        return 0.0
    if a == b and 0 < min(a.edges) and threshold <= min(a.edges):
        return _same_box_contact(a, threshold)
    return sample_contact_probability(a, b, threshold, samples, seed)


def sample_contact_probability(a: Box, b: Box, threshold: float, samples: int, seed: int) -> float:
    """Monte Carlo estimate of P(|X - Y| <= threshold), X uniform in a, Y in b.

    It takes no shortcut: every call draws ``samples`` samples, even where
    ``contact_probability`` would answer exactly.

    Deterministic for a fixed seed and sample count: sample i takes the six
    uniforms 6i..6i+5 of one PCG64 stream seeded with ``seed``,
    X = a.lo + u[:3] * a.edges and Y = b.lo + u[3:] * b.edges, and is a hit
    when ((x0-y0)^2 + (x1-y1)^2) + (x2-y2)^2 <= threshold^2.  The result is
    the integer hit count over ``samples``, so it does not depend on how the
    samples are batched.  They are drawn and counted ``_MC_BLOCK`` at a time
    into buffers allocated once, so memory stays bounded for any count.
    """
    _check_arguments(threshold, samples)
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(seed))
    # Rows 0-2 hold X, rows 3-5 hold Y: the coordinate-major layout keeps
    # every ufunc's inner loop running along the samples of one block.
    lo = np.array([*a.lo, *b.lo], dtype=float)[:, None]
    span = np.array([*a.edges, *b.edges], dtype=float)[:, None]
    thr_sq = threshold * threshold

    block = min(samples, _MC_BLOCK)
    u = np.empty((block, 6))
    xy = np.empty((6, block))
    d_sq = np.empty(block)
    hit = np.empty(block, dtype=bool)

    hits = 0
    remaining = samples
    while remaining > 0:
        m = min(remaining, block)
        u_m, xy_m, d_m, hit_m = u[:m], xy[:, :m], d_sq[:m], hit[:m]
        rng.random(out=u_m)
        np.multiply(u_m.T, span, out=xy_m)
        np.add(xy_m, lo, out=xy_m)
        diff = xy_m[:3]
        np.subtract(diff, xy_m[3:], out=diff)
        np.multiply(diff, diff, out=diff)
        np.add(diff[0], diff[1], out=d_m)
        np.add(d_m, diff[2], out=d_m)
        np.less_equal(d_m, thr_sq, out=hit_m)
        hits += int(np.count_nonzero(hit_m))
        remaining -= m
    return hits / samples
