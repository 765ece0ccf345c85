import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cohesive_transport import (ControllerConfig, StiffnessChain,
                                UnstableControllerWarning, baseline_gamma_bound,
                                baseline_spectral_radius,
                                build_pinned_laplacian, dsr_mode_roots,
                                jury_stable, closed_form_stable, simulate,
                                spectral_radius)
from cohesive_transport.cli import main
from cohesive_transport.stability import ModalTail, _mode_roots, mode_roots
from cohesive_transport.trajectory import _tustin_pole

from conftest import CONFIG_DIR, unit_step_scenario
from test_trajectory import _POLE_AT_ROOT, _POLE_NEAR_ROOT
from test_tuning import _NEARLY_REPEATED_ALPHA, _REPEATED_ALPHA

DT = 0.03

gains_alpha = st.floats(1e-3, 2.0, allow_nan=False)
gains_beta = st.floats(1e-3, 22.0, allow_nan=False)
mode_lambda = st.floats(1e-3, 0.5, allow_nan=False)


def quadratic_residual(lam, alpha, beta, z):
    coeff_b = -(2.0 - beta * lam - alpha * beta * DT * lam)
    coeff_c = 1.0 - beta * lam
    return abs(z * z + coeff_b * z + coeff_c)


def test_gamma_bound_reference_chain(lap4):
    assert baseline_gamma_bound(lap4) == 2.0 / lap4.lambda_max
    assert baseline_gamma_bound(lap4) == pytest.approx(11.36, abs=0.05)


def test_gamma_bound_single_modes():
    lap_one = build_pinned_laplacian(StiffnessChain((), (1.0,)))
    assert baseline_gamma_bound(lap_one) == pytest.approx(2.0)
    lap_two = build_pinned_laplacian(StiffnessChain((), (2.0,)))
    assert baseline_gamma_bound(lap_two) == pytest.approx(1.0)


def test_baseline_modes_inside_unit_circle(lap4):
    gbar = baseline_gamma_bound(lap4)
    for gamma in np.linspace(0.05 * gbar, 0.95 * gbar, 12):
        assert baseline_spectral_radius(lap4, gamma) < 1.0
    assert baseline_spectral_radius(lap4, 1.02 * gbar) > 1.0


def test_roots_zero_alpha_boundary():
    lam, beta = 0.2, 2.0  # beta*lam = 0.4
    z1, z2 = dsr_mode_roots(lam, 0.0, beta, DT)
    mags = sorted([abs(z1), abs(z2)])
    assert mags[1] == pytest.approx(1.0, abs=1e-12)
    assert mags[0] == pytest.approx(1.0 - beta * lam, abs=1e-12)


def test_roots_deadbeat():
    lam, beta = 0.1, 10.0               # beta*lam = 1
    alpha = 1.0 / (beta * DT * lam)     # alpha*beta*dt*lam = 1
    z1, z2 = dsr_mode_roots(lam, alpha, beta, DT)
    assert z1 == 0 and z2 == 0


def test_roots_reference_mode_satisfy_quadratic():
    for lam in (0.176, 0.00603, 0.05, 0.1174):
        z1, z2 = dsr_mode_roots(lam, 0.39, 10.92, DT)
        assert quadratic_residual(lam, 0.39, 10.92, z1) < 1e-10
        assert quadratic_residual(lam, 0.39, 10.92, z2) < 1e-10
        assert abs(z1) >= abs(z2)


def test_roots_rejects_bad_lambda():
    with pytest.raises(ValueError):
        dsr_mode_roots(0.0, 0.4, 10.0, DT)


@settings(max_examples=150, deadline=None)
@given(mode_lambda, gains_alpha, gains_beta)
def test_root_sum_and_product_identities(lam, alpha, beta):
    z1, z2 = dsr_mode_roots(lam, alpha, beta, DT)
    product = z1 * z2
    total = z1 + z2
    assert abs(product.real - (1.0 - beta * lam)) < 1e-12 * max(1.0, abs(1 - beta * lam))
    assert abs(product.imag) < 1e-12
    expected_sum = 2.0 - beta * lam - alpha * beta * DT * lam
    assert abs(total.real - expected_sum) < 1e-12 * max(1.0, abs(expected_sum))
    assert abs(total.imag) < 1e-14


@settings(max_examples=150, deadline=None)
@given(mode_lambda, st.floats(0.05, 0.95), st.floats(1.1, 4.0))
def test_complex_pair_magnitude_is_sqrt_product(lam, blam, excess):
    # underdamping requires alpha*beta*dt*lam above (1 - sqrt(1-beta*lam))^2
    beta = blam / lam
    threshold = (1.0 - math.sqrt(1.0 - blam)) ** 2
    alpha = threshold * excess / (beta * DT * lam)
    z1, z2 = dsr_mode_roots(lam, alpha, beta, DT)
    assume(z1.imag != 0)  # excess = 1.1 can still be numerically borderline
    expected = math.sqrt(1.0 - blam)
    assert abs(z1) == pytest.approx(expected, rel=1e-12)
    assert abs(z2) == pytest.approx(expected, rel=1e-12)


def test_jury_reference_gains_stable():
    assert jury_stable(0.176, 0.39, 10.92, DT)


def test_jury_boundary_is_unstable():
    lam, alpha = 0.176, 0.5
    beta = 4.0 / (lam * (alpha * DT + 2.0))
    assert not jury_stable(lam, alpha, beta, DT)


def test_jury_large_beta_unstable():
    lam = 0.25
    beta = 2.5 / lam  # |1 - beta*lam| = 1.5
    assert not jury_stable(lam, 1.0, beta, DT)


@settings(max_examples=200, deadline=None)
@given(mode_lambda, st.floats(-0.5, 2.0), st.floats(1e-4, 30.0))
def test_jury_matches_root_magnitudes(lam, alpha, beta):
    # skip points within tolerance of any boundary quantity: both tests
    # deliberately count marginal systems as unstable
    coeff_b = -(2.0 - beta * lam - alpha * beta * DT * lam)
    coeff_c = 1.0 - beta * lam
    assume(abs(1.0 + coeff_b + coeff_c) > 1e-8)
    assume(abs(1.0 - coeff_b + coeff_c) > 1e-8)
    assume(abs(abs(coeff_c) - 1.0) > 1e-8)
    z1, _ = dsr_mode_roots(lam, alpha, beta, DT)
    assume(abs(abs(z1) - 1.0) > 1e-8)
    assert jury_stable(lam, alpha, beta, DT) == (abs(z1) < 1.0)


def test_closed_form_reference_gains(lap4):
    bound = 4.0 / (lap4.lambda_max * (0.39 * DT + 2.0))
    assert bound == pytest.approx(11.3, abs=0.05)
    assert closed_form_stable(lap4, 0.39, 10.92, DT)
    assert not closed_form_stable(lap4, 0.0, 10.92, DT)
    assert not closed_form_stable(lap4, -1.0, 10.92, DT)
    assert not closed_form_stable(lap4, 0.39, 0.0, DT)
    assert not closed_form_stable(lap4, 0.39, bound, DT)  # open interval
    assert closed_form_stable(lap4, 0.39, 0.999 * bound, DT)


def test_spectral_radius_reference_gains(lap4):
    report = spectral_radius(lap4, 0.39, 10.92, DT)
    assert report.stable
    assert not report.marginal
    assert report.spectral_radius < 1.0
    assert report.spectral_radius == pytest.approx(0.98837, abs=2e-5)
    assert report.eigenvalues.shape == report.z1.shape == report.z2.shape == (4,)
    mags = [abs(z) for z in report.z1.tolist()]
    assert report.spectral_radius == max(mags)
    assert report.binding_mode == int(np.argmax(mags))
    for mode in report.as_dict()["per_mode"]:
        assert mode["magnitude1"] == abs(complex(*mode["z1"]))
        assert mode["magnitude2"] == abs(complex(*mode["z2"]))
        assert mode["magnitude1"] >= mode["magnitude2"]
    with pytest.raises(ValueError):
        report.z1[0] = 0.0


def test_spectral_radius_deadbeat_single_mode():
    lap = build_pinned_laplacian(StiffnessChain((), (0.1,)))
    alpha = 1.0 / (10.0 * DT * 0.1)
    report = spectral_radius(lap, alpha, 10.0, DT)
    assert report.spectral_radius == 0.0
    assert report.stable


def test_spectral_radius_unstable_gains(lap4):
    report = spectral_radius(lap4, 0.39, 20.0, DT)
    assert not report.stable
    assert report.spectral_radius >= 1.0
    assert not closed_form_stable(lap4, 0.39, 20.0, DT)


def test_report_serializes(lap4):
    payload = spectral_radius(lap4, 0.39, 10.92, DT).as_dict()
    assert payload["stable"] is True
    assert len(payload["per_mode"]) == 4
    assert payload["per_mode"][0]["z1"][0] == (
        spectral_radius(lap4, 0.39, 10.92, DT).z1[0].real)


def test_three_way_equivalence_moderate_grid(lap4):
    """Closed form, Jury conditions, and exact root magnitudes agree
    away from stability boundaries (finer grid in the acceptance suite)."""
    alphas = np.linspace(0.04, 2.0, 50)
    betas = np.linspace(0.09, 2.0 * baseline_gamma_bound(lap4), 50)
    # every grid point's dominant roots in one call, as criterion 6 takes them
    z1, _ = _mode_roots(lap4.eigenvalues, alphas[:, None, None], betas[:, None], DT)
    magnitudes = np.hypot(z1.real, z1.imag).tolist()
    checked = 0
    for i, alpha in enumerate(alphas):
        for j, beta in enumerate(betas):
            verdicts = _three_way(lap4, alpha, beta, magnitudes[i][j])
            if verdicts is None:
                continue
            checked += 1
            closed_form, jury, roots = verdicts
            assert closed_form == jury == roots, (alpha, beta)
    assert checked > 2000


def _three_way(lap, alpha, beta, magnitudes, boundary_tol=1e-9):
    """(closed_form, jury, roots) verdicts, the last from every mode's dominant
    root ``magnitudes``, or None when any quantity sits within boundary_tol
    of an equality condition."""
    bound = 4.0 / (lap.lambda_max * (alpha * DT + 2.0))
    if abs(beta - bound) < boundary_tol * max(1.0, bound):
        return None
    jury = True
    for lam in lap.eigenvalues.tolist():
        coeff_b = -(2.0 - beta * lam - alpha * beta * DT * lam)
        coeff_c = 1.0 - beta * lam
        d_plus, d_minus = 1.0 + coeff_b + coeff_c, 1.0 - coeff_b + coeff_c
        if (abs(d_plus) < boundary_tol or abs(d_minus) < boundary_tol
                or abs(abs(coeff_c) - 1.0) < boundary_tol):
            return None
        jury = jury and jury_stable(lam, alpha, beta, DT)
    if any(abs(m - 1.0) < boundary_tol for m in magnitudes):
        return None
    return closed_form_stable(lap, alpha, beta, DT), jury, all(m < 1.0 for m in magnitudes)


def test_random_unstable_gains_diverge(lap4, chain4, rng):
    """Any gain pair with spectral radius above 1.05 visibly blows up
    a unit-step response within a few thousand steps."""
    k = lap4.matrix
    b = lap4.leader_vector
    found = 0
    while found < 20:
        alpha = float(rng.uniform(0.05, 2.0))
        beta = float(rng.uniform(0.1, 40.0))
        report = spectral_radius(lap4, alpha, beta, DT)
        if report.spectral_radius <= 1.05:
            continue
        found += 1
        y = np.zeros(4)
        y_old = np.zeros(4)
        peak = 0.0
        for _ in range(5000):
            nxt = (y - alpha * beta * DT * (k @ y) + alpha * beta * DT * b * 1.0
                   + (y - y_old) - beta * (k @ (y - y_old)))
            y_old, y = y, nxt
            peak = max(peak, float(np.max(np.abs(y))))
            if peak > 1e3:
                break
        assert peak > 1e3, (alpha, beta, report.spectral_radius)


def _stacked_delay_radius(lap, alpha, beta, delay):
    """Spectral radius of the stacked cohesive law as one linear map on
    the state (Y[m], Y[m-1], ..., Y[m-N]); independent of the per-mode
    polynomial."""
    n = lap.n
    eye = np.eye(n)
    reinforce = (eye - beta * lap.matrix) / delay
    transition = np.zeros(((delay + 1) * n,) * 2)
    transition[:n, :n] = eye - alpha * beta * DT * lap.matrix + reinforce
    transition[:n, -n:] -= reinforce
    transition[n:, :-n] = np.eye(delay * n)
    return float(np.max(np.abs(np.linalg.eigvals(transition))))


@pytest.mark.parametrize("beta, delay, radius", [
    (15.0, 3, 0.988469),    # the N = 1 quadratic says 1.668, unstable
    (10.92, 4, 0.988464),   # the N = 1 quadratic says 0.988366
    (20.0, 2, 1.131744),
])
def test_spectral_radius_under_a_delay_of_several_samples(lap4, beta, delay, radius):
    report = spectral_radius(lap4, 0.39, beta, DT, delay)
    assert report.spectral_radius == pytest.approx(radius, abs=1e-6)
    assert report.spectral_radius == pytest.approx(
        _stacked_delay_radius(lap4, 0.39, beta, delay), rel=1e-9)
    assert report.stable is (radius < 1.0)
    assert closed_form_stable(lap4, 0.39, beta, DT, delay) is (radius < 1.0)
    for lam, z1, z2 in zip(report.eigenvalues, report.z1, report.z2):
        c = (1.0 - beta * lam) / delay
        lead = 1.0 - 0.39 * beta * DT * lam + c
        for z in (z1, z2):
            assert abs(z ** (delay + 1) - lead * z ** delay + c) < 1e-12
        assert abs(z1) >= abs(z2)


def test_spectral_radius_with_a_one_sample_delay_is_the_quadratic(lap4):
    report = spectral_radius(lap4, 0.39, 10.92, DT, 1)
    assert report.as_dict() == spectral_radius(lap4, 0.39, 10.92, DT).as_dict()
    for lam, z1, z2 in zip(report.eigenvalues, report.z1, report.z2):
        assert (z1, z2) == dsr_mode_roots(float(lam), 0.39, 10.92, DT)
    assert report.spectral_radius == pytest.approx(
        _stacked_delay_radius(lap4, 0.39, 10.92, 1), rel=1e-9)


def test_spectral_radius_with_overflowing_delayed_gains_is_infinite(lap4):
    # a*b*dt*lam overflows a coefficient of every mode's polynomial, as the
    # quadratic's does at one sample of delay
    for delay in (1, 2):
        report = spectral_radius(lap4, 1e300, 1e300, DT, delay)
        assert report.spectral_radius == math.inf
        assert not report.stable and not report.marginal
    assert closed_form_stable(lap4, 1e300, 1e300, DT, 2) is False


@pytest.mark.parametrize("beta, delay, stable", [(15.0, 3, True), (20.0, 2, False)])
def test_simulate_warns_on_the_delayed_dynamics(chain4, beta, delay, stable):
    scenario = unit_step_scenario(chain4, ControllerConfig.dsr(0.39, beta, DT, delay),
                                  duration=300.0 if stable else 3.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trace = simulate(scenario)
    if stable:
        assert caught == []
        assert np.max(np.abs(trace.positions[-1] - 1.0)) < 1e-9
    else:
        assert [w.category for w in caught] == [UnstableControllerWarning]
        assert np.max(np.abs(trace.positions[-1])) > 100.0


def _one_mode_roots(lam, alpha, beta, dt, delay):
    """One mode's two largest roots, solved one mode at a time as before
    the array path: the cancellation-free quadratic at N = 1, np.roots on
    the mode's polynomial at N > 1."""
    if delay == 1:
        b = -(2.0 - beta * lam - alpha * beta * dt * lam)
        c = 1.0 - beta * lam
        disc = b * b - 4.0 * c
        if disc < 0:
            root = complex(-b / 2.0, math.sqrt(-disc) / 2.0)
            return root, root.conjugate()
        q = -(b + math.copysign(math.sqrt(disc), b)) / 2.0
        if q == 0.0:
            return 0j, 0j
        z1, z2 = complex(q), complex(c / q)
        return (z2, z1) if abs(z2) > abs(z1) else (z1, z2)
    c = (1.0 - beta * lam) / delay
    coefficients = np.zeros(delay + 2)
    coefficients[:2] = 1.0, -(1.0 - alpha * beta * dt * lam + c)
    coefficients[-1] = c
    if not np.isfinite(coefficients).all():
        return complex(math.inf), 0j
    roots = sorted(np.roots(coefficients), key=abs, reverse=True)
    return complex(roots[0]), complex(roots[1])


@st.composite
def mode_root_cases(draw):
    """(eigenvalues, alpha, beta, delay): gains over six decades, so the
    modes mix real and complex root pairs, gains whose coefficients
    overflow, and gains that put one mode at beta*lam = 1 exactly."""
    lams = draw(st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=70))
    delay = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["gains", "overflow", "unit"]))
    if kind == "overflow":
        return lams, 1e300, 1e300, delay
    alpha, beta = draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-3, 1e3))
    if kind == "unit":
        lam = 2.0 ** draw(st.integers(-9, 1))
        lams[draw(st.integers(0, len(lams) - 1))] = lam
        beta = 1.0 / lam
    return lams, alpha, beta, delay


@settings(max_examples=100, deadline=None)
@given(mode_root_cases())
# near critical damping, where c/q rounds above q and the real roots swap
@example(([0.42503440039561075], 4.296073211941175, 0.9517690779677398, 1))
@example(([0.06357932684998133, 0.05], 5.4431531079730116, 7.591654797987212, 1))
def test_mode_roots_equal_the_one_mode_solutions_bit_for_bit(case):
    lams, alpha, beta, delay = case
    z1, z2 = _mode_roots(np.array(lams), alpha, beta, DT, delay)
    expected = [_one_mode_roots(lam, alpha, beta, DT, delay) for lam in lams]
    bits = np.array(expected, dtype=complex).view(np.uint64)
    assert np.array_equal(np.stack([z1, z2], axis=1).view(np.uint64), bits)


def test_mode_roots_broadcast_gains_at_one_sample_of_delay(lap4):
    alphas, betas = np.linspace(0.01, 2.0, 7), np.linspace(0.1, 25.0, 9)
    z1, z2 = _mode_roots(lap4.eigenvalues, alphas[:, None, None], betas[:, None], DT)
    assert z1.shape == z2.shape == (7, 9, 4)
    for i, alpha in enumerate(alphas):
        for j, beta in enumerate(betas):
            one = np.stack(_mode_roots(lap4.eigenvalues, alpha, beta, DT))
            assert np.array_equal(np.stack([z1[i, j], z2[i, j]]).view(np.uint64),
                                  one.view(np.uint64))


@pytest.mark.parametrize("config, edits, digest", [
    ("chain4_baseline.cfg", {},
     "24ecba403eb24e3f59e1623efbd21bd66ab9b5882a3bb58b0f4fe9da3461131b"),
    ("chain4_dsr.cfg", {},
     "06a36bfab269d4ae5bcf7f86bc4b3b23f2df198f200a87cf0cf1c635919e82f1"),
    ("chain4_dsr.cfg", {"delay_multiple = 1": "delay_multiple = 2"},
     "481877ff3afa54f32c4a42a8acac660678954de571e6344764abe6b4dfd3781d"),
    ("chain4_dsr.cfg", {"delay_multiple = 1": "delay_multiple = 3"},
     "8a7fff1527b5880887aef69b3360c35d8337ab802a437a8ca28d5acf274e04f8"),
    ("chain4_dsr.cfg", {"beta = 10.92": "beta = 20.0"},
     "6fa45d58593f8b8a7452ff2433459f53bfdb0c57171830ffa6e60ff3fef9f6dc"),
    ("chain4_dsr.cfg", {"alpha = 0.39": "alpha = 1e300", "beta = 10.92": "beta = 1e300"},
     "4e2d6bcca0861a2c6b0bbe2f8fd40fe6ac4e0ea07008b6869f1566f3cbb4ac5d"),
])
def test_stability_json_keeps_its_bytes(tmp_path, config, edits, digest):
    # digests of the reports written when each mode was solved on its own
    text = (CONFIG_DIR / config).read_text()
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    (tmp_path / "edited.cfg").write_text(text)
    assert main(["stability", "--config", str(tmp_path / "edited.cfg"),
                 "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "stability.json").read_bytes()).hexdigest() == digest


def test_mode_roots_are_the_multipliers_and_the_reported_roots(lap4):
    """The baseline's one column is 1 - gamma*lam_k, and the cohesive law's two
    are the z1 and z2 that ``spectral_radius`` reports, at every delay: bit for
    bit."""
    roots = mode_roots(lap4, ControllerConfig.baseline(1.93, DT))
    assert roots.shape == (lap4.n, 1)
    assert roots[:, 0].tobytes() == (1.0 - 1.93 * lap4.eigenvalues).tobytes()
    for delay in (1, 2, 3):
        roots = mode_roots(lap4, ControllerConfig.dsr(0.39, 10.92, DT, delay))
        report = spectral_radius(lap4, 0.39, 10.92, DT, delay)
        assert roots.shape == (lap4.n, 2)
        assert roots[:, 0].tobytes() == report.z1.tobytes()
        assert roots[:, 1].tobytes() == report.z2.tobytes()


@pytest.mark.parametrize("controller", [ControllerConfig.baseline(1.93, DT),
                                        ControllerConfig.dsr(0.39, 10.92, DT)])   # bundled
@pytest.mark.parametrize("poles", [None, _tustin_pole(np.array([0.1, 0.4]) * DT)])
def test_modal_tail_keeps_the_roots_and_the_poles_it_was_built_for(lap4, controller, poles):
    tail = ModalTail.of(lap4, controller, poles)
    assert tail is not None
    assert tail.roots.tobytes() == mode_roots(lap4, controller).tobytes()
    assert tail.poles is poles


@pytest.mark.parametrize("controller", [
    ControllerConfig.dsr(0.39, 10.92, DT, 2),                # N = 2
    ControllerConfig.baseline(15.0, DT),                     # a root outside the circle
    ControllerConfig.dsr(_REPEATED_ALPHA, 8.0, DT),          # a repeated pair
    ControllerConfig.dsr(_NEARLY_REPEATED_ALPHA, 10.92, DT),  # one apart by 2.1e-8
])
def test_modal_tail_of_is_none_where_no_bound_holds(lap4, controller):
    assert ModalTail.of(lap4, controller) is None


@pytest.mark.parametrize("cutoff, bounded", [(_POLE_NEAR_ROOT, True), (_POLE_AT_ROOT, False)])
def test_modal_tail_of_a_pole_near_a_root(lap4, cutoff, bounded):
    """At half its bound the baseline's slowest root is 0.96585172: a pole 3e-6
    from it is bounded, one 5e-7 from it is not, and the roots alone are."""
    controller = ControllerConfig.baseline(0.5 * 2.0 / lap4.lambda_max, DT)
    assert ModalTail.of(lap4, controller) is not None
    assert (ModalTail.of(lap4, controller, _tustin_pole(np.array([cutoff]) * DT))
            is not None) == bounded
