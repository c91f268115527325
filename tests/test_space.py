import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from curebo.problems import analytical_problem, four_point_problem
from curebo.space import DesignSpace, drop_near_duplicates, lhs_sample, sieve


@pytest.fixture
def cure_space():
    return DesignSpace(lower=[1.0, 125.0], upper=[110.0, 180.0], names=("t1", "T1"))


def test_normalize_corners_and_midpoint(cure_space):
    assert np.allclose(cure_space.normalize([1.0, 125.0]), [0.0, 0.0])
    assert np.allclose(cure_space.normalize([110.0, 180.0]), [1.0, 1.0])
    assert np.allclose(cure_space.normalize([55.5, 152.5]), [0.5, 0.5])


def test_normalize_rejects_out_of_bounds_naming_dimension(cure_space):
    with pytest.raises(ValueError, match="T1"):
        cure_space.normalize([50.0, 200.0])
    with pytest.raises(ValueError, match="t1"):
        cure_space.normalize([0.5, 150.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_normalize_rejects_non_finite_coordinates_naming_dimension(bad):
    space = DesignSpace([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="x0 is not finite"):
        space.normalize([bad, 0.5])
    with pytest.raises(ValueError, match="x1 is not finite"):
        space.normalize([[0.5, 0.5], [0.5, bad]])


def test_round_trip_is_exact_to_1e12_relative(cure_space):
    rng = np.random.default_rng(42)
    raw = cure_space.lower + rng.random((1000, 2)) * (cure_space.upper - cure_space.lower)
    back = cure_space.denormalize(cure_space.normalize(raw))
    assert np.all(np.abs(back - raw) <= 1e-12 * np.maximum(np.abs(raw), 1.0))


def test_space_validation():
    with pytest.raises(ValueError):
        DesignSpace(lower=[1.0], upper=[1.0])
    with pytest.raises(ValueError):
        DesignSpace(lower=[0.0, 0.0], upper=[1.0])
    with pytest.raises(ValueError):
        DesignSpace(lower=[0.0], upper=[1.0], names=("a", "b"))


@pytest.mark.parametrize("lower, upper, dim", [
    ([0.0], [np.inf], 0),
    ([0.0, -np.inf], [1.0, 0.0], 1),
    ([0.0, np.nan], [1.0, 1.0], 1),
    ([0.0, -1e308], [1.0, 1e308], 1),  # each bound finite, the width not
])
def test_space_rejects_bounds_or_a_width_that_are_not_finite(lower, upper, dim):
    with np.errstate(all="raise"):  # a check, not an overflow, must reject them
        with pytest.raises(ValueError, match=f"finite in dimension {dim}$"):
            DesignSpace(lower, upper)


def test_spaces_compare_and_hash_by_identity():
    a, b = DesignSpace([0.0, 0.0], [1.0, 1.0]), DesignSpace([0.0, 0.0], [1.0, 1.0])
    assert a == a and a != b and len({a, b, a}) == 2
    problem = analytical_problem()
    assert problem == problem and hash(problem) == hash(problem)


def test_lhs_one_point_per_stratum_1d():
    space = DesignSpace(lower=[0.0], upper=[1.0])
    pool = lhs_sample(space, 4, seed=0)
    strata = np.floor(pool[:, 0] * 4).astype(int)
    assert sorted(strata) == [0, 1, 2, 3]


def test_lhs_stratification_2d_and_general():
    for d, m, seed in [(2, 2, 0), (2, 17, 3), (4, 9, 11), (1, 50, 5)]:
        space = DesignSpace(lower=[0.0] * d, upper=[1.0] * d)
        pool = lhs_sample(space, m, seed=seed)
        assert pool.shape == (m, d)
        assert np.all(pool >= 0.0) and np.all(pool < 1.0)
        for h in range(d):
            strata = np.floor(pool[:, h] * m).astype(int)
            assert sorted(strata) == list(range(m)), f"dim {h} not stratified"


def test_lhs_deterministic_given_seed(cure_space):
    a = lhs_sample(cure_space, 25, seed=123)
    b = lhs_sample(cure_space, 25, seed=123)
    c = lhs_sample(cure_space, 25, seed=124)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_lhs_rejects_zero_samples(cure_space):
    with pytest.raises(ValueError):
        lhs_sample(cure_space, 0, seed=1)


def test_sieve_identity_and_empty(cure_space):
    pool = lhs_sample(cure_space, 20, seed=7)
    kept = sieve(pool, lambda p: True, cure_space)
    assert np.array_equal(kept, pool)
    gone = sieve(pool, lambda p: False, cure_space)
    assert gone.shape == (0, 2)


def test_sieve_slope_predicate_matches_direct_arithmetic(cure_space):
    # heating slopes of a two-point cycle through (t1, T1): 20 C start,
    # second segment ends at (120, 180)
    def slopes_ok(raw):
        s1 = (raw[1] - 20.0) / raw[0]
        s2 = (180.0 - raw[1]) / (120.0 - raw[0])
        return s1 > s2

    pool = lhs_sample(cure_space, 200, seed=9)
    # append the baseline-rate point A = (61.538, 180): slope1 = 2.6, slope2 = 0
    baseline_raw = np.array([(180.0 - 20.0) / 2.6, 180.0])
    pool = np.vstack([pool, cure_space.normalize(baseline_raw)])

    kept = sieve(pool, slopes_ok, cure_space)
    raws = cure_space.denormalize(pool)
    expected = np.array([(r[1] - 20.0) / r[0] > (180.0 - r[1]) / (120.0 - r[0]) for r in raws])
    assert np.array_equal(kept, pool[expected])
    assert slopes_ok(baseline_raw)  # 2.6 > 0: baseline retained
    assert any(np.array_equal(p, pool[-1]) for p in kept)


def test_sieve_preserves_order_and_is_idempotent(cure_space):
    pool = lhs_sample(cure_space, 100, seed=2)
    pred = lambda raw: raw[0] > 50.0
    once = sieve(pool, pred, cure_space)
    twice = sieve(once, pred, cure_space)
    assert np.array_equal(once, twice)
    # order preserved: kept points appear in original relative order
    idx = [np.flatnonzero((pool == p).all(axis=1))[0] for p in once]
    assert idx == sorted(idx)


@settings(max_examples=60, deadline=None)
@given(
    points=st.integers(1, 60).flatmap(
        lambda k: arrays(np.float64, (k, 4), elements=st.floats(0.0, 1.0))
    ),
)
def test_vectorized_slope_sieve_matches_a_per_row_loop(points):
    problem = four_point_problem()
    kept = sieve(points, problem.sieve_raw, problem.space)
    raws = problem.space.denormalize(points)
    expected = [bool(problem.sieve_raw(row)) for row in raws]
    assert np.array_equal(kept, points[expected])


@st.composite
def boxes_and_points(draw):
    d = draw(st.integers(1, 4))
    lower = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d)))
    span = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=d, max_size=d)))
    space = DesignSpace(lower, lower + span)
    unit = draw(arrays(np.float64, (draw(st.integers(1, 20)), d), elements=st.floats(0.0, 1.0)))
    return space, space.lower + unit * (space.upper - space.lower)


@settings(max_examples=200, deadline=None)
@given(boxes_and_points())
def test_normalize_denormalize_round_trip(case):
    space, raw = case
    # raw is inside the box, so every coordinate normalizes into [0, 1]
    raw = np.clip(raw, space.lower, space.upper)
    unit = space.normalize(raw)
    assert np.all((unit >= 0.0) & (unit <= 1.0))
    # the round trip rounds four times (the span cancels), each time by at
    # most half an ulp of a number no larger than |lower| + |upper|
    tol = 4 * np.finfo(float).eps * (np.abs(space.lower) + np.abs(space.upper))
    assert np.all(np.abs(space.denormalize(unit) - raw) <= tol)


@settings(max_examples=200, deadline=None)
@given(boxes_and_points())
def test_normalize_and_denormalize_keep_the_bits_of_the_inline_width(case):
    # the width made once at construction is the difference each call made
    space, raw = case
    raw = np.clip(raw, space.lower, space.upper)
    lower, upper = np.array(space.lower), np.array(space.upper)
    for rows in (raw[0], raw):  # one point, then many
        unit = space.normalize(rows)
        assert unit.tobytes() == ((rows - lower) / (upper - lower)).tobytes()
        assert space.denormalize(unit).tobytes() == (lower + unit * (upper - lower)).tobytes()


def test_space_owns_read_only_copies_of_its_bounds():
    lower, upper = np.array([0.0, 10.0]), np.array([1.0, 20.0])
    space = DesignSpace(lower, upper)
    lower[0], upper[1] = -5.0, 50.0
    assert space.lower.tolist() == [0.0, 10.0] and space.upper.tolist() == [1.0, 20.0]
    assert space.denormalize([1.0, 1.0]).tolist() == [1.0, 20.0]
    for bound in (space.lower, space.upper, space.width):
        with pytest.raises(ValueError, match="read-only"):
            bound[0] = 3.0
    assert space.width.tolist() == [1.0, 10.0]


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 300), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_lhs_puts_one_point_in_each_stratum(m, d, seed):
    pool = lhs_sample(DesignSpace([0.0] * d, [1.0] * d), m, seed=seed)
    assert pool.shape == (m, d)
    assert np.all((pool >= 0.0) & (pool < 1.0))
    for h in range(d):
        assert np.array_equal(np.sort(np.floor(pool[:, h] * m)), np.arange(m))


def test_drop_near_duplicates():
    space = DesignSpace(lower=[0.0, 0.0], upper=[1.0, 1.0])
    pool = lhs_sample(space, 50, seed=4)
    evaluated = np.vstack([pool[10] + 5e-10, pool[20]])
    kept = drop_near_duplicates(pool, evaluated, tol=1e-9)
    assert len(kept) == 48
    for gone in (pool[10], pool[20]):
        assert not any(np.array_equal(p, gone) for p in kept)
    untouched = drop_near_duplicates(pool, np.empty((0, 2)))
    assert np.array_equal(untouched, pool)
    with pytest.raises(ValueError, match="expected 2 coordinates, got 1"):
        drop_near_duplicates(pool, np.array([[0.5]]))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    arrays(float, st.tuples(st.integers(1, 5), st.just(d)), elements=st.floats(0, 1)),
    arrays(float, st.tuples(st.integers(1, 6), st.just(d)), elements=st.floats(0, 1)),
)), st.integers(0, 29))
def test_near_duplicate_gaps_are_those_of_a_chebyshev_cdist(sets, pick):
    # the tolerance is one of the exact gaps, so a gap off by one bit shows
    points, evaluated = sets
    gaps = cdist(points, evaluated, metric="chebyshev")
    for tol in (gaps.ravel()[pick % gaps.size], 1e-9):
        kept = drop_near_duplicates(points, evaluated, tol)
        assert np.array_equal(kept, points[gaps.min(axis=1) > tol])
