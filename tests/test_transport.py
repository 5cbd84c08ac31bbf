import copy
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from lorentz_gauge.config import DEFAULT_SCENARIO, Fixture
from lorentz_gauge.errors import AdmissibilityError, DomainError
from lorentz_gauge.expansions import ScalarExpansion
from lorentz_gauge.gauge import (
    ConnectionField,
    GaugeField,
    MatrixExpansion,
    gauge_act,
    random_connection,
    random_gauge,
)
from lorentz_gauge.geometry import (
    Cylinder,
    Minkowski,
    ObservationSet,
    TimeWarp,
    integrate_geodesic,
    integrate_geodesics,
    null_cut_time,
    null_vector,
)
from lorentz_gauge.linalg import (
    expm_skew,
    from_coords,
    polar_project,
    random_skew_hermitian,
    to_coords,
    unitarity_residual,
)
from lorentz_gauge.transport import (
    _A1,
    _A2,
    BrokenRayQuery,
    CutTimeCache,
    _cf4_product,
    _stage_generators,
    broken_transform,
    inverse_transport,
    leg_segments,
    matrix_from_json,
    matrix_to_json,
    parallel_transport,
    parallel_transports,
    read_queries,
    run_batch,
    transport_identities,
    validate_query,
    write_results,
)

DIM = 3
M3 = Minkowski(DIM)
NULL_V = np.array([1.0, 1.0, 0.0])


def constant_connection(n, mats):
    comps = [
        MatrixExpansion(DIM, n, [(ScalarExpansion(DIM, constant=1.0), m)]) for m in mats
    ]
    return ConnectionField(comps)


def abelian_dt(lam):
    zero = np.zeros((1, 1), dtype=complex)
    return constant_connection(1, [np.array([[1j * lam]]), zero, zero])


def null_segment(s_max=2.0):
    return integrate_geodesic(M3, np.zeros(DIM), NULL_V, s_max, h=0.05)


def null_legs(s_max=2.0, reach=None):
    """gamma_{0,v} on [0, s_max] and gamma_{0,-v} on [-reach, 0] (reach s_max by default)."""
    reach = s_max if reach is None else reach
    return integrate_geodesics(M3, np.zeros((2, DIM)), np.stack([NULL_V, -NULL_V]),
                               [s_max, 0.0], min(1e-2, s_max / 50), s_min=[0.0, -reach])


def identities(a, b=0.7, **kwargs):
    """transport_identities of a along null_legs(), split at b."""
    return transport_identities(a, *null_legs(), b, **kwargs)


# -- parallel transport -------------------------------------------------------


def test_zero_connection_gives_identity():
    a = ConnectionField.zero(DIM, 2)
    p = parallel_transport(M3, a, null_segment(), 0.0, 2.0)
    assert np.array_equal(p, np.eye(2))


def test_abelian_closed_form():
    # [DERIVED] A = (i lam) dt along gamma(s) = (s, s, 0): U(s0) = e^{-i lam s0}
    lam = 0.83
    a = abelian_dt(lam)
    p = parallel_transport(M3, a, null_segment(), 0.0, 2.0)
    assert abs(p[0, 0] - np.exp(-1j * lam * 2.0)) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_constant_pairing_matrix_exponential(n, rng):
    # [DERIVED] constant pairing X => U(s0) = exp(-s0 X), at any step size
    mats = [random_skew_hermitian(n, rng) for _ in range(DIM)]
    a = constant_connection(n, mats)
    x_eff = sum(vi * m for vi, m in zip(NULL_V, mats))
    for h in (0.5, 1e-2):
        p = parallel_transport(M3, a, null_segment(), 0.0, 2.0, h=h)
        assert np.linalg.norm(p - expm(-2.0 * x_eff)) < 1e-10


def test_transport_unitarity(rng):
    a = random_connection(DIM, 3, rng, amplitude=2.0)
    p = parallel_transport(M3, a, null_segment(), 0.0, 2.0)
    assert unitarity_residual(p) < 1e-10


def test_transport_fourth_order(rng):
    a = random_connection(DIM, 2, rng)
    seg = null_segment()

    def at(h):
        return parallel_transport(M3, a, seg, 0.0, 2.0, h=h)

    ref = at(1e-4)
    e1 = np.linalg.norm(at(0.02) - ref)
    e2 = np.linalg.norm(at(0.01) - ref)
    assert 8.0 <= e1 / e2 <= 32.0


def test_transport_out_of_range():
    a = ConnectionField.zero(DIM, 2)
    with pytest.raises(DomainError):
        parallel_transport(M3, a, null_segment(), 0.0, 3.0)


def test_reversed_parameters_give_inverse(rng):
    a = random_connection(DIM, 2, rng)
    seg = null_segment()
    fwd = parallel_transport(M3, a, seg, 0.0, 2.0)
    bwd = parallel_transport(M3, a, seg, 2.0, 0.0)
    assert np.linalg.norm(bwd @ fwd - np.eye(2)) < 1e-9


# -- inverse transport --------------------------------------------------------


def test_inverse_transport_zero_connection():
    a = ConnectionField.zero(DIM, 2)
    assert np.array_equal(inverse_transport(a, null_segment(), 0.0, 2.0), np.eye(2))


def test_inverse_transport_inverts(rng):
    a = random_connection(DIM, 2, rng)
    seg = null_segment()
    u = parallel_transport(M3, a, seg, 0.0, 2.0)
    w = inverse_transport(a, seg, 0.0, 2.0)
    assert np.linalg.norm(w @ u - np.eye(2)) < 1e-9


def test_inverse_transport_abelian_conjugate():
    a = abelian_dt(1.1)
    seg = null_segment()
    u = parallel_transport(M3, a, seg, 0.0, 2.0)
    w = inverse_transport(a, seg, 0.0, 2.0)
    assert abs(w[0, 0] - np.conj(u[0, 0])) < 1e-12


# -- algebraic identities -----------------------------------------------------


def test_group_property_zero_and_constant(rng):
    assert identities(ConnectionField.zero(DIM, 2), b=1.0)["group"] == 0.0
    mats = [random_skew_hermitian(2, rng) for _ in range(DIM)]
    a = constant_connection(2, mats)
    assert identities(a)["group"] < 1e-12


def test_group_property_random(rng):
    a = random_connection(DIM, 2, rng)
    assert identities(a, h=1e-3)["group"] < 1e-8


def test_group_property_ordering():
    # the split point must lie strictly inside (0, s0), and the reverse leg must reach -s0
    zero = ConnectionField.zero(DIM, 2)
    for b in (-0.5, 0.0, 2.0, 2.5):
        with pytest.raises(DomainError):
            identities(zero, b=b)
    with pytest.raises(DomainError):
        transport_identities(zero, *null_legs(reach=1.0), 0.7)


def test_reversal_identity(rng):
    assert identities(ConnectionField.zero(DIM, 2))["reversal"] == 0.0
    a = random_connection(DIM, 2, rng)
    assert identities(a, h=1e-3)["reversal"] < 1e-8
    # abelian closed form: both orientations must give e^{-i lam s0}
    lam = 0.6
    assert identities(abelian_dt(lam))["reversal"] < 1e-10


def test_determinant_track(rng):
    a = random_connection(DIM, 3, rng)
    assert identities(a, h=1e-3)["det"] < 1e-8


@pytest.mark.parametrize("metric", ["minkowski", "time-only-warp"])
def test_transport_identities_have_the_bits_of_separate_transports(metric):
    scenario = copy.deepcopy(DEFAULT_SCENARIO)
    if metric != "minkowski":
        scenario["metric"] = {"kind": "warped", "dim": 3, "beta_time_only": True,
                              "beta": {"dim": 3, "constant": 1.0, "waves": [
                                  {"amp": 0.3, "freq": [0.5, 0, 0], "phase": 0}]}}
    fx = Fixture(scenario, seed=5)
    m, conn, x0 = fx.metric, fx.connection(), np.array([1.0, 0.2, -0.1])
    v = null_vector(m, x0, np.array([0.6, 0.8]))
    fwd, rev = integrate_geodesics(m, np.stack([x0, x0]), np.stack([v, -v]), [2.0, 0.0], 1e-2,
                                   s_min=[0.0, -2.0])
    got = transport_identities(conn, fwd, rev, 0.9)
    p = parallel_transport(m, conn, fwd, 0.0, 2.0)
    w = inverse_transport(conn, fwd, 0.0, 2.0)
    [(k1, k2)], hs = _stage_generators([conn], fwd, 0.0, 2.0, 1e-3)
    trace = np.trace(from_coords(k1 + k2), axis1=-2, axis2=-1)
    expected = {
        "unitarity": float(unitarity_residual(p)),
        "group": float(np.linalg.norm(parallel_transport(m, conn, fwd, 0.9, 2.0)
                                      @ parallel_transport(m, conn, fwd, 0.0, 0.9) - p)),
        "reversal": float(np.linalg.norm(parallel_transport(m, conn, rev, 0.0, -2.0) - p)),
        "inverse": float(np.linalg.norm(w @ p - np.eye(fx.n))),
        "det": float(abs(np.linalg.det(p) - np.exp(0.5 * hs * np.sum(trace)))),
    }
    assert got.keys() == expected.keys()
    for name in expected:
        assert np.float64(got[name]).tobytes() == np.float64(expected[name]).tobytes(), name
    assert 0.0 < max(got.values()) < 1e-8


def test_gauge_equivariance_pointwise(rng):
    # P^{A <| phi} = phi(end)^{-1} P^A phi(start)
    a = random_connection(DIM, 2, rng)
    phi = GaugeField.random(DIM, 2, rng)
    seg = null_segment()
    pa = parallel_transport(M3, a, seg, 0.0, 2.0)
    pb = parallel_transport(M3, gauge_act(a, phi), seg, 0.0, 2.0)
    rhs = np.conj(phi.value(seg.endpoint)).T @ pa @ phi.value(np.zeros(DIM))
    assert np.linalg.norm(pb - rhs) < 1e-6


# -- broken transform ---------------------------------------------------------

OBS = ObservationSet(M3, T=6.0, radius=2.0)
Y0 = np.array([3.0, 0.5, 0.0])
V_IN = np.array([-1.0, 1.0, 0.0])
W_OUT = np.array([1.0, 0.6, 0.8])


def good_query(s_in=1.0, s_out=1.2):
    return BrokenRayQuery(Y0, V_IN, W_OUT, s_in, s_out)


def test_broken_transform_zero_connection():
    s = broken_transform(M3, ConnectionField.zero(DIM, 2), good_query(), observation=OBS)
    assert np.allclose(s, np.eye(2), atol=1e-12)


def test_broken_transform_abelian_closed_form():
    # [DERIVED] S = e^{-i lam (dt_in + dt_out)}; both legs have unit time speed
    lam = 0.7
    s = broken_transform(M3, abelian_dt(lam), good_query(), observation=OBS)
    assert abs(s[0, 0] - np.exp(-1j * lam * (1.0 + 1.2))) < 1e-10


def test_broken_transform_is_leg_product(rng):
    a = random_connection(DIM, 2, rng)
    q = good_query()
    seg_in, seg_out = leg_segments(M3, q)
    p_in = parallel_transport(M3, a, seg_in, q.s_in, 0.0)
    p_out = parallel_transport(M3, a, seg_out, 0.0, q.s_out)
    s = broken_transform(M3, a, q, observation=OBS)
    assert np.array_equal(s, p_out @ p_in)


def test_broken_transform_gauge_invariance(rng):
    # phi = id on the observation set => S^{A <| phi^{-1}} = S^A
    a = random_connection(DIM, 2, rng)
    from lorentz_gauge.gauge import random_gauge

    phi = random_gauge(DIM, 2, rng, observation=OBS)
    b = gauge_act(a, phi.inverse())
    q = good_query()
    sa = broken_transform(M3, a, q, observation=OBS)
    sb = broken_transform(M3, b, q, observation=OBS)
    assert np.linalg.norm(sa - sb) < 1e-6


def test_admissibility_conditions_named():
    a = abelian_dt(0.5)
    checks = [
        (BrokenRayQuery(Y0, [-1, 1, 0], [1, -1, 0], 1.0, 1.0), "colinear"),
        (BrokenRayQuery(Y0, [-1, 1, 0], [1, 0.6, 0.8], 1.0, 5.0), "observation"),
        (BrokenRayQuery(Y0, [-1, 0.5, 0], [1, 0.6, 0.8], 1.0, 1.0), "lightlike"),
        (BrokenRayQuery(Y0, [1, 1, 0], [1, 0.6, 0.8], 1.0, 1.0), "past-pointing"),
        (BrokenRayQuery(Y0, [-1, 1, 0], [-1, 0.6, 0.8][:2] + [0.8], 1.0, 1.0), "future-pointing"),
        (BrokenRayQuery(Y0, [-1, 1, 0], [1, 0.6, 0.8], -1.0, 1.0), "positive"),
    ]
    for q, word in checks:
        with pytest.raises(AdmissibilityError) as err:
            broken_transform(M3, a, q, observation=OBS)
        assert word in str(err.value)


def test_cut_time_admissibility_on_cylinder():
    c = Cylinder()
    obs = ObservationSet(c, T=20.0, radius=100.0)  # no spatial restriction in effect
    a = ConnectionField.zero(2, 1)
    y = np.array([5.0, 1.0])
    ok = BrokenRayQuery(y, [-1.0, 1.0], [1.0, 1.0], 2.0, 2.0)
    broken_transform(c, a, ok, observation=obs)
    past_cut = BrokenRayQuery(y, [-1.0, 1.0], [1.0, 1.0], 2.0, 4.0)
    with pytest.raises(AdmissibilityError) as err:
        broken_transform(c, a, past_cut, observation=obs)
    assert "cut time" in str(err.value)


def test_lightness_of_huge_legs_is_decided_without_overflow():
    # g is homogeneous of degree 2, so lightness is decided on v scaled to entries
    # below 1; the suite turns an overflow's RuntimeWarning into an error
    huge = BrokenRayQuery(Y0, [-1e200, 1e200, 0.0], W_OUT, 1.0, 1.0)
    with pytest.raises(AdmissibilityError, match="incoming endpoint outside the observation set"):
        validate_query(M3, huge, OBS)
    not_null = BrokenRayQuery(Y0, [-1e200, 0.5e200, 0.0], W_OUT, 1.0, 1.0)
    with pytest.raises(AdmissibilityError, match="v is not lightlike"):
        validate_query(M3, not_null, OBS)
    assert null_cut_time(M3, Y0, np.array([1e200, 0.6e200, 0.8e200])) == math.inf
    with pytest.raises(DomainError, match="not null"):
        null_cut_time(M3, Y0, np.array([1e200, 1e200, 1e200]))


def test_cut_time_cache_reuse():
    # [DERIVED] gamma_{x,cv}(s) = gamma_{x,v}(cs): scaling v by c divides the
    # cut time by c, inf on Minkowski and pi/|v^0| on the cylinder
    cases = [
        (M3, np.zeros(DIM), NULL_V, math.inf),
        (Cylinder(), np.array([5.0, 1.0]), np.array([1.0, 1.0]), math.pi),
    ]
    for metric, x, v, expected in cases:
        cache = CutTimeCache(metric)
        t1 = cache.cut_time(x, v)
        t2 = cache.cut_time(x, v * 2.0)  # same direction bucket
        assert t1 == expected
        assert t2 == expected / 2.0 == null_cut_time(metric, x, v * 2.0)
        assert len(cache) == 1


def test_validation_sees_the_transported_legs(monkeypatch):
    # on a warped metric the endpoint tests of validate_query run on the
    # same segments that broken_transform transports
    import lorentz_gauge.transport as tr

    beta = ScalarExpansion(3, constant=1.0, waves=[(0.3, [0.5, 0.0, 0.0], 0.0)])
    m = TimeWarp(3, beta)
    y = np.array([3.0, 0.2, 0.1])
    v = null_vector(m, y, np.array([1.0, 0.0]), time_sign=-1.0)
    w = null_vector(m, y, np.array([0.0, 1.0]))
    q = BrokenRayQuery(y, v, w, 0.5, 0.6)
    ends = []

    def recording(*args, **kwargs):
        segs = integrate_geodesics(*args, **kwargs)
        ends.extend(seg.endpoint for seg in segs)
        return segs

    monkeypatch.setattr(tr, "integrate_geodesics", recording)
    validate_query(m, q, ObservationSet(m, T=6.0, radius=2.0))
    checked = list(ends)
    ends.clear()
    broken_transform(m, ConnectionField.zero(3, 1), q, validate=False)
    assert len(checked) == 2
    assert np.array_equal(checked, ends)


def test_validated_broken_transform_integrates_each_leg_once(monkeypatch):
    import lorentz_gauge.transport as tr

    beta = ScalarExpansion(3, constant=1.0, waves=[(0.3, [0.5, 0.0, 0.0], 0.0)])
    m = TimeWarp(3, beta)
    y = np.array([3.0, 0.2, 0.1])
    v = null_vector(m, y, np.array([1.0, 0.0]), time_sign=-1.0)
    w = null_vector(m, y, np.array([0.0, 1.0]))
    q = BrokenRayQuery(y, v, w, 1.0, 1.0)
    calls = []

    def counting(*args, **kwargs):
        calls.extend(np.broadcast_to(args[3], len(args[1])))
        return integrate_geodesics(*args, **kwargs)

    monkeypatch.setattr(tr, "integrate_geodesics", counting)
    s = broken_transform(m, random_connection(3, 2, np.random.default_rng(3)), q,
                         observation=ObservationSet(m, T=6.0, radius=2.0))
    assert calls == [1.0, 1.0]
    assert unitarity_residual(s) < 1e-12


def test_batch_roundtrip(tmp_path, rng):
    a = random_connection(DIM, 2, rng)
    queries = [good_query(s_out=1.0 + 0.05 * i) for i in range(6)]
    queries.append(BrokenRayQuery(Y0, [-1, 1, 0], [1, 0.6, 0.8], 1.0, 50.0))  # inadmissible
    qfile = tmp_path / "queries.jsonl"
    with qfile.open("w") as fh:
        import json

        for q in queries:
            fh.write(json.dumps(q.to_json()) + "\n")
    loaded = read_queries(qfile)
    assert len(loaded) == 7
    recs = run_batch(M3, a, loaded, observation=OBS)
    assert [r["status"] for r in recs] == ["ok"] * 6 + ["inadmissible"]
    assert all(r["unitarity_residual"] < 1e-10 for r in recs if r["status"] == "ok")
    out = tmp_path / "results.jsonl"
    write_results(out, recs)
    assert [json.loads(line) for line in out.read_text().splitlines()] == recs


def test_matrix_json_roundtrip(rng):
    u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    assert np.allclose(matrix_from_json(matrix_to_json(u)), u)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 7, 64])
def test_cf4_product_matches_sequential_loop(rng, m, n):
    k1 = np.stack([random_skew_hermitian(n, rng) for _ in range(m)])
    k2 = np.stack([random_skew_hermitian(n, rng) for _ in range(m)])
    hs = 0.05
    u = np.eye(n, dtype=complex)
    for i in range(m):
        first = expm_skew(hs * (_A1 * k1[i] + _A2 * k2[i]))
        second = expm_skew(hs * (_A2 * k1[i] + _A1 * k2[i]))
        u = second @ (first @ u)
    assert np.max(np.abs(_cf4_product(to_coords(k1), to_coords(k2), hs) - polar_project(u))) < 1e-13


def test_gauged_transport_memory_peak():
    # one 3000-step transport of A <| phi with the default scenario's fields;
    # the stage arrays are (6000, 4) reals, so the peak stays a few MB
    fx = Fixture(copy.deepcopy(DEFAULT_SCENARIO))
    b = gauge_act(fx.connection(), fx.gauge())
    seg = integrate_geodesic(fx.metric, np.zeros(3), np.array([1.0, 1.0, 0.0]), 3.0)
    tracemalloc.start()
    try:
        parallel_transport(fx.metric, b, seg, 0.0, 3.0, h=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def time_only_warp():
    beta = ScalarExpansion(DIM, constant=1.0, waves=[(0.3, [0.5, 0.0, 0.0], 0.0)])
    return TimeWarp(DIM, beta)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("metric", [M3, time_only_warp()], ids=["minkowski", "time-only-warp"])
def test_shared_pass_has_the_bits_of_separate_transports(metric, n):
    # A, A <| phi^-1 (phi = id on the observation set), and an independent C, along
    # a leg that enters the observation set (the gauge is live on part of it) and
    # along one inside it (the gauge is the identity at every node), both ways
    obs = ObservationSet(metric, T=6.0, radius=1.0)
    rng = np.random.default_rng(40 + n)
    a = random_connection(DIM, n, rng, amplitude=0.6)
    b = gauge_act(a, random_gauge(DIM, n, rng, observation=obs, amplitude=0.8).inverse())
    c = random_connection(DIM, n, rng, amplitude=0.6)
    legs = []
    for y, aim, s in (([3.0, 1.8, 0.5], [-1.8, -0.5], 1.6), ([2.0, 0.3, 0.2], [0.6, 0.8], 0.4)):
        seg = integrate_geodesic(metric, np.array(y), null_vector(metric, np.array(y), aim), s,
                                 h=min(1e-2, s / 50))
        legs += [(seg, 0.0, s), (seg, s, 0.0)]
    for conns in ([a, b], [a, a], [a, c]):
        for seg, lo, hi in legs:
            shared = parallel_transports(conns, seg, lo, hi, h=4e-3)
            for u, conn in zip(shared, conns):
                assert u.tobytes() == parallel_transport(metric, conn, seg, lo, hi,
                                                         h=4e-3).tobytes()
