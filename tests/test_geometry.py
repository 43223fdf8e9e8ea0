"""Box distance bounds against independent oracles, and contact probability:
its closed form and its Monte Carlo sampler."""

import importlib.util
import math
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from coverify import geometry
from coverify.geometry import (
    Box,
    aabb_max_distance,
    aabb_min_distance,
    contact_probability,
    sample_contact_probability,
)

# Reference for P(|X-Y| <= 0.1), X, Y uniform in the same unit cube, frozen
# from a 1e8-sample run (tools/mc_reference.py, seed 987654321); it agrees
# with the exact distance CDF 3.73338e-3 within 1.3 standard errors.
SAME_CUBE_CONTACT_P = 3.74081e-3

UNIT = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


def load_mc_reference():
    path = Path(__file__).resolve().parents[1] / "tools" / "mc_reference.py"
    spec = importlib.util.spec_from_file_location("mc_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_box(rng):
    lo = rng.uniform(-5, 5, size=3)
    hi = lo + rng.uniform(0, 4, size=3)
    return Box(tuple(lo), tuple(hi))


def chunked_squared_distances(a: Box, b: Box, samples: int, seed: int):
    """The sampling loop contact_probability had before its blocked kernel,
    kept as the exact reference: row-major (m, 6) uniforms in chunks of
    2**19, x and y per row, squared differences summed along the row.
    Yields each chunk's squared distances."""
    rng = np.random.default_rng(seed)
    a_lo = np.asarray(a.lo)
    a_span = np.asarray(a.edges)
    b_lo = np.asarray(b.lo)
    b_span = np.asarray(b.edges)
    remaining = samples
    while remaining > 0:
        m = min(remaining, 1 << 19)
        u = rng.random((m, 6))
        x = a_lo + u[:, :3] * a_span
        y = b_lo + u[:, 3:] * b_span
        yield ((x - y) ** 2).sum(axis=1)
        remaining -= m


def chunked_contact_probability(a: Box, b: Box, threshold: float, samples: int, seed: int) -> float:
    if aabb_max_distance(a, b) <= threshold:
        return 1.0
    if aabb_min_distance(a, b) > threshold:
        return 0.0
    thr_sq = threshold * threshold
    hits = sum(int((d_sq <= thr_sq).sum()) for d_sq in chunked_squared_distances(a, b, samples, seed))
    return hits / samples


def threshold_squaring_to(target: float) -> float | None:
    """A threshold t with t * t == target exactly, if one of the floats next
    to sqrt(target) has it."""
    root = math.sqrt(target)
    for t in (root, math.nextafter(root, 0.0), math.nextafter(root, math.inf)):
        if t * t == target:
            return t
    return None


def uncertain_pairs(seed: int, count: int):
    """Seeded box pairs whose threshold lies strictly inside (d_min, d_max),
    so every pair reaches the Monte Carlo loop: same box, overlapping,
    touching, a point box against a box, and a flat box against a box."""
    rng = np.random.default_rng(seed)
    kinds = ("same", "overlap", "touch", "point", "flat")
    for i in range(count):
        kind = kinds[i % len(kinds)]
        a = random_box(rng)
        if kind == "same":
            b = a
        elif kind == "overlap":
            shift = rng.uniform(0, 1, size=3) * np.asarray(a.edges)
            b = Box(tuple(np.add(a.lo, shift)), tuple(np.add(a.hi, shift)))
        elif kind == "touch":
            lo = list(a.lo)
            lo[0] = a.hi[0]
            b = Box(tuple(lo), tuple(np.add(lo, rng.uniform(0.1, 4, size=3))))
        elif kind == "point":
            p = tuple(rng.uniform(a.lo, a.hi))
            b = Box(p, p)
        else:
            b = random_box(rng)
            b = Box(b.lo, (b.hi[0], b.hi[1], b.lo[2]))
        d_min, d_max = aabb_min_distance(a, b), aabb_max_distance(a, b)
        threshold = d_min + rng.uniform(0.05, 0.6) * (d_max - d_min)
        yield kind, a, b, threshold


def corner_pairs_max(a: Box, b: Box) -> float:
    corners = lambda box: [
        (x, y, z) for x in (box.lo[0], box.hi[0]) for y in (box.lo[1], box.hi[1]) for z in (box.lo[2], box.hi[2])
    ]
    return max(
        math.dist(ca, cb) for ca, cb in product(corners(a), corners(b))
    )


def grid_points(box: Box, per_axis: int = 6) -> np.ndarray:
    axes = [np.linspace(box.lo[i], box.hi[i], per_axis) for i in range(3)]
    return np.array([(x, y, z) for x in axes[0] for y in axes[1] for z in axes[2]])


def cover_radius(box: Box, per_axis: int = 6) -> float:
    steps = [(hi - lo) / (per_axis - 1) for lo, hi in zip(box.lo, box.hi)]
    return 0.5 * math.sqrt(sum(s * s for s in steps))


class TestMinDistance:
    def test_identical_boxes(self):
        assert aabb_min_distance(UNIT, UNIT) == 0.0

    def test_single_axis_gap(self):
        other = Box((2.0, 0.0, 0.0), (3.0, 1.0, 1.0))
        assert aabb_min_distance(UNIT, other) == 1.0

    def test_three_axis_gap(self):
        other = Box((2.0, 2.0, 2.0), (3.0, 3.0, 3.0))
        assert aabb_min_distance(UNIT, other) == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_touching_faces_is_zero(self):
        other = Box((1.0, 0.0, 0.0), (2.0, 1.0, 1.0))
        assert aabb_min_distance(UNIT, other) == 0.0


class TestMaxDistance:
    def test_identical_unit_cubes(self):
        assert aabb_max_distance(UNIT, UNIT) == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_adjacent_unit_cubes(self):
        other = Box((1.0, 0.0, 0.0), (2.0, 1.0, 1.0))
        # oracle first: exact corner-pair enumeration
        assert corner_pairs_max(UNIT, other) == pytest.approx(math.sqrt(6), abs=1e-12)
        assert aabb_max_distance(UNIT, other) == pytest.approx(math.sqrt(6), abs=1e-12)

    def test_coincident_point_boxes(self):
        point = Box((0.5, 0.5, 0.5), (0.5, 0.5, 0.5))
        assert aabb_max_distance(point, point) == 0.0


class TestOracles:
    def test_max_matches_corner_enumeration_on_1000_pairs(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            a, b = random_box(rng), random_box(rng)
            exact = corner_pairs_max(a, b)
            got = aabb_max_distance(a, b)
            assert got == pytest.approx(exact, rel=1e-9, abs=1e-12)

    def test_min_sandwiched_by_dense_sampling_on_1000_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            a, b = random_box(rng), random_box(rng)
            d_min = aabb_min_distance(a, b)
            pa, pb = grid_points(a), grid_points(b)
            sampled = math.sqrt(
                float(np.min(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)))
            )
            lower = sampled - cover_radius(a) - cover_radius(b)
            assert d_min <= sampled + 1e-9  # sampling can only overshoot the min
            assert lower <= d_min + 1e-6  # and not by more than the cover radius

    def test_bound_sandwich_on_random_point_pairs(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            a, b = random_box(rng), random_box(rng)
            d_min, d_max = aabb_min_distance(a, b), aabb_max_distance(a, b)
            xs = rng.uniform(a.lo, a.hi, size=(100, 3))
            ys = rng.uniform(b.lo, b.hi, size=(100, 3))
            distances = np.sqrt(((xs - ys) ** 2).sum(axis=1))
            assert float(distances.min()) >= d_min - 1e-9
            assert float(distances.max()) <= d_max + 1e-9


class TestContactProbability:
    def test_coincident_point_boxes_is_one(self):
        point = Box((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))
        assert contact_probability(point, point, 0.1, 100, seed=1) == 1.0

    def test_distant_cubes_is_zero(self):
        far = Box((10.0, 0.0, 0.0), (11.0, 1.0, 1.0))
        assert contact_probability(UNIT, far, 0.1, 100, seed=1) == 0.0

    def test_same_unit_cube_matches_frozen_oracle(self):
        n = 1_000_000
        p = sample_contact_probability(UNIT, UNIT, 0.1, n, seed=20240801)
        se = math.sqrt(SAME_CUBE_CONTACT_P * (1 - SAME_CUBE_CONTACT_P) / n)
        assert abs(p - SAME_CUBE_CONTACT_P) <= 3 * se

    def test_bit_reproducible_for_fixed_seed(self):
        first = sample_contact_probability(UNIT, UNIT, 0.1, 300_000, seed=99)
        second = sample_contact_probability(UNIT, UNIT, 0.1, 300_000, seed=99)
        assert first == second

    def test_seed_changes_the_estimate(self):
        a = sample_contact_probability(UNIT, UNIT, 0.25, 50_000, seed=1)
        b = sample_contact_probability(UNIT, UNIT, 0.25, 50_000, seed=2)
        assert a != b  # distinct streams (equality would be a seeding bug)

    def test_equals_chunked_reference_loop(self):
        block = geometry._MC_BLOCK
        counts = (1, block - 1, block, block + 1, 3 * block + 17)
        for i, (kind, a, b, threshold) in enumerate(uncertain_pairs(seed=51, count=30)):
            for samples in counts:
                got = sample_contact_probability(a, b, threshold, samples, seed=i)
                want = chunked_contact_probability(a, b, threshold, samples, seed=i)
                assert got == want, (kind, a, b, threshold, samples)
        # Large counts, which run many blocks and end on a partial one, on
        # three fixed pairs: the same cube, overlapping cubes, offset cubes.
        counts = (2 * block - 1, 2 * block + 1, 100_000, 2_000_001)
        shifted = Box((0.5, 0.25, 0.0), (1.5, 1.25, 1.0))
        offset = Box((1.2, 0.0, 0.3), (2.2, 1.0, 1.3))
        pairs = (("same", UNIT, UNIT, 0.3), ("overlap", UNIT, shifted, 0.4), ("offset", UNIT, offset, 0.6))
        for i, (kind, a, b, threshold) in enumerate(pairs):
            assert aabb_min_distance(a, b) < threshold < aabb_max_distance(a, b)
            for samples in counts:
                got = sample_contact_probability(a, b, threshold, samples, seed=i)
                want = chunked_contact_probability(a, b, threshold, samples, seed=i)
                assert got == want, (kind, samples)

    def test_equals_reference_at_thresholds_on_a_sampled_distance(self):
        # A threshold whose square is a sampled d_sq (a hit) or the float just
        # below it (a miss) flips that sample's verdict if the kernel's d_sq
        # moves by one ulp, so equality here pins each d_sq, not only the count.
        samples = geometry._MC_BLOCK + 5
        checked = 0
        for i, (kind, a, b, _) in enumerate(uncertain_pairs(seed=53, count=20)):
            d_sq = np.concatenate(list(chunked_squared_distances(a, b, samples, seed=i)))
            for target in d_sq[-8:]:
                for thr_sq in (target, math.nextafter(target, 0.0)):
                    threshold = threshold_squaring_to(thr_sq)
                    if threshold is None:
                        continue
                    got = sample_contact_probability(a, b, threshold, samples, seed=i)
                    assert got == chunked_contact_probability(a, b, threshold, samples, seed=i), kind
                    checked += 1
        assert checked >= 100

    def test_equals_reference_across_the_old_chunk_boundary(self):
        samples = (1 << 19) + 3
        got = sample_contact_probability(UNIT, UNIT, 0.3, samples, seed=5)
        assert got == chunked_contact_probability(UNIT, UNIT, 0.3, samples, seed=5)

    @pytest.mark.parametrize("block", [1, 7, 1000, None])
    def test_estimate_does_not_depend_on_block_size(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(geometry, "_MC_BLOCK", block)
        for i, (kind, a, b, threshold) in enumerate(uncertain_pairs(seed=52, count=10)):
            for samples in (1, 13, 2_000):
                got = sample_contact_probability(a, b, threshold, samples, seed=100 + i)
                want = chunked_contact_probability(a, b, threshold, samples, seed=100 + i)
                assert got == want, (kind, block, samples)

    def test_bad_seed_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            sample_contact_probability(UNIT, UNIT, 0.3, 100_000, seed=-1)

    def test_validation(self):
        # Each pair has a shortcut for a good threshold: the interval bounds
        # (a point box, distant cubes) or the closed form (the unit cube).
        point = Box((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))
        far = Box((10.0, 0.0, 0.0), (11.0, 1.0, 1.0))
        for probability in (contact_probability, sample_contact_probability):
            for a, b in ((UNIT, UNIT), (point, point), (UNIT, far)):
                with pytest.raises(ValueError, match="sample count"):
                    probability(a, b, 0.1, 0, seed=1)
                for threshold in (-0.1, math.nan, math.inf, -math.inf):
                    with pytest.raises(ValueError, match="threshold must be a finite number"):
                        probability(a, b, threshold, 10, seed=1)


class TestSameBoxClosedForm:
    """Two points in one box, threshold at most its shortest edge."""

    @pytest.fixture
    def sampler_calls(self, monkeypatch):
        """Arguments of every call contact_probability hands to the sampler."""
        calls = []

        def spy(*args):
            calls.append(args)
            return sample_contact_probability(*args)

        monkeypatch.setattr(geometry, "sample_contact_probability", spy)
        return calls

    def test_matches_exact_cdf_on_the_unit_cube(self, sampler_calls):
        exact_cdf = load_mc_reference().exact_cdf
        for r in (0.0, 1e-3, 0.05, 0.1, 0.25, 0.5, 0.75, 0.999, 1.0):
            assert abs(contact_probability(UNIT, UNIT, r, 10, seed=1) - exact_cdf(r)) <= 1e-15, r
        assert sampler_calls == []

    def test_sampler_agrees_on_random_boxes(self):
        rng = np.random.default_rng(61)
        samples = 200_000
        for i in range(20):
            lo = rng.uniform(-5, 5, size=3)
            box = Box(tuple(lo), tuple(lo + rng.uniform(0.2, 3, size=3)))
            r = rng.uniform(0.1, 1.0) * min(box.edges)
            exact = contact_probability(box, box, r, samples, seed=i)
            estimate = sample_contact_probability(box, box, r, samples, seed=i)
            se = math.sqrt(exact * (1 - exact) / samples)
            assert abs(estimate - exact) <= 4 * se, (box, r, estimate, exact)

    def test_threshold_equal_to_shortest_edge_is_exact(self, sampler_calls):
        box = Box((0.0, -1.0, 2.0), (2.0, 0.5, 2.75))
        r = min(box.edges)
        assert r == 0.75
        p = contact_probability(box, box, r, 10, seed=1)
        assert sampler_calls == []
        assert p == geometry._same_box_contact(box, r)
        assert 0.0 < p < 1.0

    def test_other_pairs_go_to_the_sampler(self, sampler_calls):
        box = Box((0.0, -1.0, 2.0), (2.0, 0.5, 2.75))
        shifted = Box((0.5, -0.5, 2.0), (2.5, 1.0, 2.75))
        flat = Box((0.0, 0.0, 1.0), (1.0, 2.0, 1.0))
        cases = (
            (box, box, math.nextafter(min(box.edges), math.inf)),
            (box, shifted, 0.5),
            # A zero-width edge: no division by zero, even at threshold 0,
            # which is not above the shortest edge.
            (flat, flat, 0.5),
            (flat, flat, 0.0),
        )
        for i, (a, b, threshold) in enumerate(cases):
            assert aabb_min_distance(a, b) <= threshold < aabb_max_distance(a, b)
            got = contact_probability(a, b, threshold, 5_000, seed=i)
            assert sampler_calls[-1] == (a, b, threshold, 5_000, i)
            assert got == sample_contact_probability(a, b, threshold, 5_000, seed=i)
        assert len(sampler_calls) == len(cases)


class TestBox:
    def test_rejects_inverted_corners(self):
        with pytest.raises(ValueError, match="exceeds"):
            Box((1.0, 0.0, 0.0), (0.0, 1.0, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_corners(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            Box((0.0, 0.0, bad), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="must be finite"):
            Box((0.0, 0.0, 0.0), (1.0, bad, 1.0))

    def test_degenerate_allowed(self):
        point = Box((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        assert point.center == (0.0, 0.0, 0.0)
        assert point.edges == (0.0, 0.0, 0.0)

    def test_center(self):
        assert UNIT.center == (0.5, 0.5, 0.5)

    def test_interior_overlap(self):
        shifted = Box((0.5, 0.0, 0.0), (1.5, 1.0, 1.0))
        touching = Box((1.0, 0.0, 0.0), (2.0, 1.0, 1.0))
        assert UNIT.interior_overlaps(shifted)
        assert not UNIT.interior_overlaps(touching)
