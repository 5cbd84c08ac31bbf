"""Property tests of the u(n) coordinates, of transport, of the CF4
quaternion tree and of the flowout diagnostic's nearest-pair search,
with hypothesis.

Every test runs a fixed number of derandomized examples, so the suite
stays deterministic. The transport tolerances are the acceptance
tolerances of test_acceptance.py.
"""

import copy
import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm_frechet

from lorentz_gauge.cli import _admissible_queries
from lorentz_gauge.config import DEFAULT_SCENARIO, Fixture
from lorentz_gauge.gauge import gauge_act
from lorentz_gauge.geometry import integrate_geodesics, null_vector
from lorentz_gauge.linalg import (
    expm_frechet_skew,
    expm_skew,
    from_coords,
    hamilton,
    quat_exp,
    u2_matrix,
)
from lorentz_gauge.symcalc import _min_distance
from lorentz_gauge.transport import (
    CutTimeCache,
    broken_transform,
    _quat_tree,
    transport_identities,
)

FAST = settings(max_examples=60, derandomize=True, deadline=None, database=None)
SLOW = settings(max_examples=20, derandomize=True, deadline=None, database=None)

reals = st.floats(-2.0, 2.0)
quaternions = st.lists(reals, min_size=4, max_size=4).map(np.array)
# the rotation angle theta = |b|: zero, the switch of the derivative's
# small-angle limit at 1e-4, pi, and anything between
angles = st.one_of(st.sampled_from([0.0, 1e-8, 1e-4, np.nextafter(1e-4, 1.0), math.pi]),
                   st.floats(0.0, math.pi))

METRICS = {
    "minkowski": {"kind": "minkowski", "dim": 3},
    "time-only-warp": {"kind": "warped", "dim": 3, "beta_time_only": True,
                       "beta": {"dim": 3, "constant": 1.0,
                                "waves": [{"amp": 0.3, "freq": [0.5, 0, 0], "phase": 0}]}},
}


def fixture(metric, n, seed):
    scenario = copy.deepcopy(DEFAULT_SCENARIO)
    scenario["metric"] = METRICS[metric]
    scenario["connection"]["n"] = n
    return Fixture(scenario, seed=seed)


@FAST
@given(phase=st.floats(-3.0, 3.0), theta=angles, axis=st.lists(reals, min_size=3, max_size=3),
       direction=quaternions)
def test_coordinate_exponential_matches_scipy(phase, theta, axis, direction):
    axis = np.array(axis)
    assume(np.linalg.norm(axis) > 0.1)
    x = from_coords(np.concatenate([[phase], theta * axis / np.linalg.norm(axis)]))
    e = from_coords(direction)
    ref_u, ref_d = expm_frechet(x, e)
    u, d = expm_frechet_skew(x, e)
    assert np.max(np.abs(expm_skew(x) - ref_u)) < 1e-13
    assert np.max(np.abs(u - ref_u)) < 1e-13
    assert np.max(np.abs(d - ref_d)) < 1e-13


def hamilton_tree(q):
    """Row-major pairwise tree of hamilton products, later elements on the left."""
    while len(q) > 1:
        if len(q) % 2:
            q = np.concatenate([q, [[1.0, 0.0, 0.0, 0.0]]])
        q = hamilton(q[1::2], q[::2])
    return q[0]


@FAST
@example(length=1, seed=0)
@example(length=257, seed=0)
@example(length=300, seed=1)
@given(length=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_quaternion_tree_has_the_bits_of_the_hamilton_tree(length, seed):
    # 257 is odd at the first level and 300 at the third (75), so both pad with the identity
    q = quat_exp(np.random.default_rng(seed).uniform(-0.3, 0.3, (length, 3)))
    tree = _quat_tree(q.T)
    assert tree.view(np.uint64).tolist() == hamilton_tree(q).view(np.uint64).tolist()


@FAST
@given(alpha=st.floats(-3.0, 3.0), p=quaternions, q=quaternions)
def test_hamilton_product_is_the_matrix_product(alpha, p, q):
    product = u2_matrix(alpha, p) @ u2_matrix(0.0, q)
    assert np.max(np.abs(u2_matrix(alpha, hamilton(p, q)) - product)) < 1e-13


@SLOW
@given(metric=st.sampled_from(sorted(METRICS)), n=st.sampled_from([1, 2, 3]),
       seed=st.integers(0, 2**31 - 1))
def test_transport_unitary_group_law_and_reversal(metric, n, seed):
    fx = fixture(metric, n, seed)
    conn = fx.connection()
    x0 = np.concatenate([[fx.rng.uniform(0.5, 1.5)], fx.rng.uniform(-0.5, 0.5, 2)])
    v = null_vector(fx.metric, x0, fx.rng.standard_normal(2))
    fwd, rev = integrate_geodesics(fx.metric, np.stack([x0, x0]), np.stack([v, -v]), [2.0, 0.0],
                                   min(1e-2, 2.0 / 50), s_min=[0.0, -2.0])
    residuals = transport_identities(conn, fwd, rev, 0.9, h=1e-3)
    assert residuals["unitarity"] <= 1e-10
    assert residuals["group"] <= 1e-8
    assert residuals["reversal"] <= 1e-8


@SLOW
@given(metric=st.sampled_from(sorted(METRICS)), n=st.sampled_from([1, 2, 3]),
       seed=st.integers(0, 2**31 - 1))
def test_broken_transform_gauge_invariant(metric, n, seed):
    fx = fixture(metric, n, seed)
    conn = fx.connection()
    conn_b = gauge_act(conn, fx.gauge().inverse())
    cache = CutTimeCache(fx.metric)
    queries = _admissible_queries(fx, 2, cache)
    assert queries
    for q, _ in queries:
        sa = broken_transform(fx.metric, conn, q, observation=fx.observation, cache=cache)
        sb = broken_transform(fx.metric, conn_b, q, observation=fx.observation, cache=cache)
        assert np.linalg.norm(sa - sb) <= 1e-6


@st.composite
def point_sets(draw):
    """Two point sets of 1-100 rows in dimension 2-4, in one of four layouts.

    "lattice" puts both on a small integer grid, with duplicate points and
    exact ties among the distances; "cluster" is a tight cluster against a
    far set; "spread" and "scaled" are Gaussian at unit and at drawn
    scale. Every layout may be offset by 1e3 in every coordinate.
    """
    dim, na, nb = draw(st.integers(2, 4)), draw(st.integers(1, 100)), draw(st.integers(1, 100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["lattice", "cluster", "spread", "scaled"]))
    offset = draw(st.sampled_from([0.0, 1e3]))
    if layout == "lattice":
        a, b = (rng.integers(-2, 3, (n, dim)).astype(float) for n in (na, nb))
    elif layout == "cluster":
        a = 1e-6 * rng.standard_normal((na, dim))
        b = 30.0 + rng.standard_normal((nb, dim))
    else:
        scale = 10.0 ** draw(st.integers(-6, 2)) if layout == "scaled" else 1.0
        a, b = (scale * rng.standard_normal((n, dim)) for n in (na, nb))
    return offset + a, offset + b


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(sets=point_sets())
def test_pruned_min_distance_is_the_brute_force_minimum(sets):
    a, b = sets
    assert _min_distance(a, b) == float(np.linalg.norm(a[:, None] - b[None], axis=2).min())
