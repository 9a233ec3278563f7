import math

import numpy as np
import pytest

import kaczlab as kl
from kaczlab import (
    LiseWindow,
    ReferenceUnavailable,
    StoppingRule,
    WindowNotReady,
    aise_check,
    ase_check,
    build_matrix,
    grak_native_check,
    lise_check,
    rek_native_check,
    rres_check,
    rse_check,
)
from kaczlab.solvers import init_state, agrak_step, rek_step, run
from kaczlab.stopping import make_monitor

from conftest import make_gaussian_system


def test_rule_validation():
    with pytest.raises(ValueError):
        StoppingRule("bogus", 1e-4)
    with pytest.raises(ValueError):
        StoppingRule("lise", 0.0)
    with pytest.raises(ValueError):
        StoppingRule("lise", 1e-4, window=0)
    # the lag L is the windowed rule's cadence; a period would be ignored
    with pytest.raises(ValueError, match="check_period"):
        StoppingRule("lise", 1e-4, check_period=7)
    # a zero period fell back to the default cadence, a negative one ran
    for period in (0, -3):
        with pytest.raises(ValueError, match="check_period"):
            StoppingRule("rse", 1e-4, check_period=period)


# ---------------------------------------------------------------------------
# windowed lagged-iterate rule
# ---------------------------------------------------------------------------


def test_lise_constant_sequence_fires_immediately():
    window = LiseWindow(snapshot=np.array([3.0, 4.0]))
    fired, value = lise_check(window, np.array([3.0, 4.0]), k=10, L=10, tol=1e-12)
    assert fired and value == 0.0


def test_lise_geometric_sequence_value():
    rho, L = 0.99, 10
    v = np.array([1.0])
    window = LiseWindow(snapshot=v)
    fired, value = lise_check(window, rho**L * v, k=L, L=L, tol=1e-4)
    assert value == pytest.approx((1 - rho**L) / L, rel=1e-12)
    assert value == pytest.approx(0.0095618, abs=1e-7)
    assert not fired
    # the snapshot advanced: the next window difference is (rho^L - rho^2L)
    fired, value = lise_check(window, rho ** (2 * L) * v, k=2 * L, L=L, tol=1e-4)
    assert value == pytest.approx((rho**L - rho ** (2 * L)) / L, rel=1e-12)
    # the window advanced its own copy, never the caller's array
    np.testing.assert_array_equal(v, [1.0])
    np.testing.assert_array_equal(window.snapshot, rho ** (2 * L) * v)


def test_lise_off_schedule_rejected():
    window = LiseWindow(snapshot=np.zeros(2))
    with pytest.raises(WindowNotReady):
        lise_check(window, np.zeros(2), k=7, L=10, tol=1e-4)
    with pytest.raises(WindowNotReady):
        lise_check(window, np.zeros(2), k=0, L=10, tol=1e-4)


def test_lise_soundness_on_decreasing_sequences():
    # shape of the windowed-rule guarantee: pick eps, find the first window
    # index k1 with error <= eps/2, set the tolerance to eps / (2 L k1);
    # whenever the window value is at or below it, the error is below eps
    rng = np.random.default_rng(5)
    L = 8
    sequences = [
        0.97 ** np.arange(0, 4000, L),
        5.0 / (1.0 + np.arange(0, 4000, L)) ** 1.5,
        3.0 * 0.999 ** np.arange(0, 40000, L),
    ]
    for g in sequences:
        assert np.all(np.diff(g) < 0)
        for eps in (g[0] / 10, g[0] / 100):
            k1 = int(np.argmax(g <= eps / 2))
            assert g[k1] <= eps / 2
            tol = eps / (2 * L * k1) if k1 else eps
            # iterates move along a direction that slowly rotates
            angles = 1e-3 * np.arange(len(g))
            xs = g[:, None] * np.c_[np.cos(angles), np.sin(angles)]
            window = LiseWindow(snapshot=xs[0].copy())
            for step in range(1, len(g)):
                fired, _ = lise_check(window, xs[step], k=step * L, L=L, tol=tol)
                if fired:
                    assert g[step] < eps
                    break


def test_monotone_window_exists_for_engine_iterates():
    # some lag at or below 64 makes the windowed stacked error strictly
    # decrease along a convergent run
    system = make_gaussian_system(40, 10, seed=13)
    target = np.concatenate([system.z_star, system.x_star])
    st = init_state(system, seed=3)
    errors = [np.linalg.norm(np.concatenate([st.z, st.x]) - target)]
    for _ in range(3200):
        agrak_step(st, system)
        errors.append(np.linalg.norm(np.concatenate([st.z, st.x]) - target))
    errors = np.array(errors)
    found = None
    for lag in range(1, 65):
        window = errors[::lag]
        if np.all(np.diff(window) < 0):
            found = lag
            break
    assert found is not None


# ---------------------------------------------------------------------------
# reference- and residual-based rules
# ---------------------------------------------------------------------------


def test_rse_values():
    x_star = np.array([3.0, 4.0])
    fired, value = rse_check(x_star, x_star, tol=1e-12)
    assert fired and value == 0.0
    fired, value = rse_check(2 * x_star, x_star, tol=0.5)
    assert value == pytest.approx(1.0) and not fired
    with pytest.raises(ReferenceUnavailable):
        rse_check(x_star, None, tol=1e-4)
    with pytest.raises(ReferenceUnavailable):
        rse_check(x_star, np.zeros(2), tol=1e-4)
    fired, value = ase_check(2 * x_star, x_star, tol=5.0)
    assert fired and value == 5.0
    with pytest.raises(ReferenceUnavailable):
        ase_check(x_star, None, tol=1e-4)


def test_aise_values_and_sandwich(rng):
    b = np.array([3.0, 0.0])
    _, value = aise_check(np.ones(2), np.ones(2), b, tol=1e-4)
    assert value == 0.0
    x_prev = np.zeros(2)
    _, value = aise_check(x_prev + b, x_prev, b, tol=1e-4)
    assert value == pytest.approx(1.0)
    for _ in range(1000):
        x_k = rng.standard_normal(5)
        x_p = rng.standard_normal(5)
        x_s = rng.standard_normal(5)
        bb = rng.standard_normal(5)
        _, v = aise_check(x_k, x_p, bb, tol=1.0)
        bn = np.linalg.norm(bb)
        lo = abs(np.linalg.norm(x_k - x_s) - np.linalg.norm(x_p - x_s)) / bn
        hi = (np.linalg.norm(x_k - x_s) + np.linalg.norm(x_p - x_s)) / bn
        assert lo - 1e-12 <= v <= hi + 1e-12


def test_rek_native_values():
    system = make_gaussian_system(10, 4, seed=14)
    fired, (v1, v2) = rek_native_check(system.x_star, system.z_star, system, tol=1e-6)
    assert fired and v1 <= 1e-6 and v2 <= 1e-6
    fired, values = rek_native_check(np.zeros(4), system.b, system, tol=1e-6)
    assert not fired and values == (math.inf, math.inf)

    ident = kl.LinearSystem(build_matrix(np.eye(2)), [1.0, 1.0])
    fired, (v1, v2) = rek_native_check(np.array([1.0, 1.0]), np.zeros(2), ident, tol=1e-12)
    assert fired and v1 == 0.0 and v2 == 0.0


def test_grak_native_values():
    x_star = np.array([1.0, 0.0])
    z_star = np.array([0.5, -0.5])
    b = z_star.copy()  # reference range component is zero
    fired, value = grak_native_check(x_star, z_star, x_star, z_star, b, tol=1e-9)
    assert fired and value == 0.0
    fired, value = grak_native_check(2 * x_star, z_star, x_star, z_star, b, tol=0.5)
    assert value == pytest.approx(1.0) and not fired
    with pytest.raises(ReferenceUnavailable):
        grak_native_check(x_star, z_star, None, None, b, tol=0.1)


def test_rres_consistent_vs_inconsistent():
    system = make_gaussian_system(30, 6, seed=15, noise_scale=0.5)
    noise_level = np.linalg.norm(system.z_star) / np.linalg.norm(system.b)
    _, value = rres_check(system.x_star, system, tol=1e-12)
    assert value == pytest.approx(noise_level, rel=1e-10)

    consistent = kl.LinearSystem(system.mat, system.mat.matvec(system.x_star))
    _, value = rres_check(system.x_star, consistent, tol=1e-12)
    assert value <= 1e-10


def test_ase_equals_rse_times_reference_norm():
    system = make_gaussian_system(20, 5, seed=16)
    x = system.x_star + 0.25 * np.ones(5)
    _, rse_value = rse_check(x, system.x_star, tol=1.0)
    mon = make_monitor(StoppingRule("ase", 1.0), system, "grak")
    st = init_state(system, seed=0)
    mon.start(st, system)
    st.x = x
    _, ase_value = mon.observe(400, st, system)
    assert ase_value == pytest.approx(rse_value * np.linalg.norm(system.x_star), rel=1e-12)


# ---------------------------------------------------------------------------
# monitors inside the run loop
# ---------------------------------------------------------------------------


def test_monitor_periods():
    system = make_gaussian_system(12, 4, seed=17)
    st = init_state(system, seed=0)
    lise = make_monitor(StoppingRule("lise", 1e-4, window=32), system, "grak")
    assert lise.period == 32
    rek = make_monitor(StoppingRule("rek-native", 1e-4), system, "rek")
    assert rek.period == 8 * 4  # set when built, not by start()
    rek.start(st, system)
    assert rek.period == 8 * 4
    aise = make_monitor(StoppingRule("aise", 1e-4), system, "grak")
    assert aise.period == 1
    custom = make_monitor(StoppingRule("rse", 1e-4, check_period=7), system, "grak")
    assert custom.period == 7


def test_monitor_needs_reference():
    system = make_gaussian_system(12, 4, seed=18, with_reference=False)
    st = init_state(system, seed=0)
    for kind in ("rse", "ase", "grak-native"):
        mon = make_monitor(StoppingRule(kind, 1e-4), system, "grak")
        with pytest.raises(ReferenceUnavailable):
            mon.start(st, system)
    # a zero b leaves the residual rules undefined; start() says so, not
    # the first evaluation
    zero_b = kl.LinearSystem(system.mat, np.zeros(12))
    for kind in ("rres", "aise"):
        mon = make_monitor(StoppingRule(kind, 1e-4), zero_b, "grak")
        with pytest.raises(ValueError, match="b is zero"):
            mon.start(st, zero_b)


def test_checks_do_not_mutate_state():
    system = make_gaussian_system(12, 4, seed=19)
    st = init_state(system, seed=1)
    for _ in range(40):
        agrak_step(st, system)
    x0, z0 = st.x.copy(), st.z.copy()
    for kind in ("lise", "rse", "ase", "aise", "rres", "rek-native", "grak-native"):
        mon = make_monitor(StoppingRule(kind, 1e-4, window=40), system, "grak")
        mon.start(st, system)
        mon.observe(40, st, system)
        np.testing.assert_array_equal(st.x, x0)
        np.testing.assert_array_equal(st.z, z0)


def test_lise_monitors_stacked_state_for_augmented_engines():
    system = make_gaussian_system(12, 4, seed=20)
    stacked = make_monitor(StoppingRule("lise", 1e-4, window=10), system, "agrak")
    plain = make_monitor(StoppingRule("lise", 1e-4, window=10), system, "rek")
    st = init_state(system, seed=2)
    stacked.start(st, system)
    plain.start(st, system)
    assert tuple(s.shape[0] for s in stacked.snaps) == (12, 4)
    assert tuple(s.shape[0] for s in plain.snaps) == (4,)


def test_lise_monitor_matches_public_check():
    system = make_gaussian_system(12, 4, seed=22)
    mon = make_monitor(StoppingRule("lise", 1e-4, window=5), system, "agrak")
    st = init_state(system, seed=3)
    mon.start(st, system)
    window = LiseWindow(snapshot=np.concatenate([st.z, st.x]))
    for step in range(1, 4):
        for _ in range(5):
            agrak_step(st, system)
        fired_m, value_m = mon.observe(5 * step, st, system)
        fired_w, value_w = lise_check(window, np.concatenate([st.z, st.x]),
                                      k=5 * step, L=5, tol=1e-4)
        assert fired_m == fired_w
        assert value_m == pytest.approx(value_w, rel=1e-12)


def test_aise_monitor_matches_public_check():
    # the monitor compares the parts lise compares: [z; x] for the stacked
    # engines, x for rek
    system = make_gaussian_system(12, 4, seed=26)
    for engine, stacked in (("grak", True), ("rek", False)):
        mon = make_monitor(StoppingRule("aise", 1e-9), system, engine)
        st = init_state(system, seed=4)
        mon.start(st, system)

        def iterate():
            return np.concatenate([st.z, st.x]) if stacked else st.x.copy()

        for step in range(1, 30):
            prev = iterate()
            (agrak_step if stacked else rek_step)(st, system)
            fired_m, value_m = mon.observe(step, st, system)
            fired_c, value_c = aise_check(iterate(), prev, system.b, tol=1e-9)
            assert fired_m == fired_c
            assert value_m == pytest.approx(value_c, rel=1e-12)
            assert value_m > 0.0 or not stacked


def test_run_stops_on_each_rule_kind():
    system = make_gaussian_system(60, 12, seed=21)
    rules = [
        StoppingRule("lise", 1e-5, window=40),
        StoppingRule("rse", 1e-3, check_period=40),
        StoppingRule("aise", 1e-6),
        StoppingRule("rek-native", 1e-3),
        StoppingRule("grak-native", 1e-6, check_period=40),
    ]
    for rule in rules:
        report = run("agrak", system, rule=rule, max_iters=100_000, seed=3)
        assert report.converged, rule.kind
        assert report.stop_kind == rule.kind
        assert report.stop_trace, rule.kind
