"""ZIP and electronic load: table rows, tracker recursion, curvature check.

The electronic load's running minimum voltage is a plain float: elec_vmin_update
gives it after each step (and at t = 0 from V0 itself), and elec_power_at(Vt, vmin,
params) gives (P, Q, ct, mode) with vmin already updated for Vt.
"""

import numpy as np
import pytest

from clm_sim.config import elec_component
from clm_sim.staticloads import (
    ElecParams,
    ZipParams,
    elec_power_at,
    elec_vmin_update,
    zip_power,
)

ZIP = ZipParams(p0=1.2, q0=0.4, v0=1.0, a_p=0.4, b_p=0.35, c_p=0.25,
                a_q=0.5, b_q=0.3, c_q=0.2)
ELEC = ElecParams(pe0=1.0, qe0=0.25, vd1=0.7, vd2=0.5, alpha=0.6)


def test_zip_nominal_point():
    assert zip_power(ZIP.v0, ZIP) == (ZIP.p0, ZIP.q0)


def test_zip_zero_voltage_leaves_constant_power_term():
    P, Q = zip_power(0.0, ZIP)
    assert P == ZIP.c_p * ZIP.p0
    assert Q == ZIP.c_q * ZIP.q0


def test_zip_pure_impedance_quadratic():
    pure_z = ZipParams(p0=2.0, q0=1.0, v0=1.0, a_p=1.0, b_p=0.0, c_p=0.0,
                       a_q=1.0, b_q=0.0, c_q=0.0)
    P, Q = zip_power(0.9, pure_z)
    assert P == pytest.approx(0.81 * 2.0, abs=1e-15)
    assert Q == pytest.approx(0.81 * 1.0, abs=1e-15)


def test_zip_second_derivative_matches_impedance_fraction():
    # Central finite difference of P(V): P'' = 2 * ap * P0 / V0^2.
    h = 1e-3
    for v in (0.6, 0.9, 1.0, 1.1):
        pp = (zip_power(v + h, ZIP)[0] - 2 * zip_power(v, ZIP)[0]
              + zip_power(v - h, ZIP)[0]) / h**2
        assert abs(pp - 2.0 * ZIP.a_p * ZIP.p0 / ZIP.v0**2) < 1e-6


def test_zip_fraction_sum_enforced():
    with pytest.raises(ValueError):
        ZipParams(p0=1, q0=1, v0=1, a_p=0.5, b_p=0.3, c_p=0.1, a_q=0.5, b_q=0.3, c_q=0.2)
    with pytest.raises(ValueError):
        ZipParams(p0=1, q0=1, v0=0.0, a_p=0.4, b_p=0.3, c_p=0.3, a_q=0.4, b_q=0.3, c_q=0.3)


def test_elec_tracker_recursion():
    assert elec_vmin_update(1.0, 0.6, ELEC) == 0.6  # above running min
    assert elec_vmin_update(0.4, 0.6, ELEC) == 0.5  # floored at Vd2
    assert elec_vmin_update(0.55, 0.6, ELEC) == 0.55


def test_elec_memory_at_t0_floors_at_vd2():
    # The component's memory at t = 0 is the running minimum of V0 alone.
    for v0, vmin in ((1.0, 1.0), (0.3, ELEC.vd2)):
        assert elec_vmin_update(v0, v0, ELEC) == vmin
        assert elec_component(ELEC, v0, 1.0)("elec", 0.2, 1e-3).memory0 == (vmin,)


def test_elec_mode_1_disconnected():
    assert elec_power_at(0.45, 0.5, ELEC)[2:] == (0.0, 1)


def test_elec_mode_2_linear_disconnection():
    vt = 0.6
    ct, mode = elec_power_at(vt, 0.6, ELEC)[2:]  # at the running minimum
    assert mode == 2
    assert ct == (vt - ELEC.vd2) / (ELEC.vd1 - ELEC.vd2)


def test_elec_mode_3_partial_reconnection_inside_band():
    vt, vmin = 0.65, 0.55
    ct, mode = elec_power_at(vt, vmin, ELEC)[2:]
    assert mode == 3
    assert ct == (vmin - ELEC.vd2 + ELEC.alpha * (vt - vmin)) / (ELEC.vd1 - ELEC.vd2)


def test_elec_mode_4_full_output():
    ct, mode = elec_power_at(1.0, 1.0, ELEC)[2:]
    assert (ct, mode) == (1.0, 4)
    ct, mode = elec_power_at(ELEC.vd1, ELEC.vd1, ELEC)[2:]
    assert (ct, mode) == (1.0, 4)


def test_elec_mode_5_partial_recovery_above_band():
    vmin = 0.55
    ct, mode = elec_power_at(1.0, vmin, ELEC)[2:]
    assert mode == 5
    assert ct == (vmin - ELEC.vd2 + ELEC.alpha * (ELEC.vd1 - vmin)) / (ELEC.vd1 - ELEC.vd2)


def test_elec_full_alpha_gives_full_recovery():
    full = ElecParams(pe0=1.0, qe0=0.2, vd1=0.7, vd2=0.5, alpha=1.0)
    for vmin in (0.5, 0.55, 0.69):
        ct, mode = elec_power_at(0.9, vmin, full)[2:]
        assert mode == 5
        assert ct == pytest.approx(1.0, abs=1e-15)


def test_elec_coefficient_bounded_and_modes_partition():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        vt = float(rng.uniform(0.0, 1.3))
        vmin_raw = float(rng.uniform(0.0, 1.3))
        vmin = elec_vmin_update(vt, max(ELEC.vd2, vmin_raw), ELEC)
        ct, mode = elec_power_at(vt, vmin, ELEC)[2:]
        assert 0.0 <= ct <= 1.0
        assert mode in (1, 2, 3, 4, 5)


def test_elec_continuity_at_mode_2_3_boundary():
    # Modes 2 and 3 agree where Vt equals the running minimum.
    vt = 0.6
    c2, m2 = elec_power_at(vt, vt, ELEC)[2:]
    c3, m3 = elec_power_at(vt + 1e-12, vt, ELEC)[2:]
    assert m2 == 2 and m3 == 3
    assert abs(c3 - c2) < 1e-9


def test_elec_tracker_monotone_until_floor():
    vmin = elec_vmin_update(1.0, 1.0, ELEC)
    rng = np.random.default_rng(6)
    prev = vmin
    for _ in range(500):
        vmin = elec_vmin_update(float(rng.uniform(0.2, 1.2)), vmin, ELEC)
        assert vmin <= prev
        assert vmin >= ELEC.vd2
        prev = vmin


def test_elec_power_scales_base():
    p, q, ct, mode = elec_power_at(0.9, 0.55, ELEC)
    assert p == ct * ELEC.pe0 and q == ct * ELEC.qe0
    assert mode == 5


def test_elec_param_validation():
    with pytest.raises(ValueError):
        ElecParams(pe0=1, qe0=0, vd1=0.5, vd2=0.7, alpha=0.5)
    with pytest.raises(ValueError):
        ElecParams(pe0=1, qe0=0, vd1=0.7, vd2=0.5, alpha=1.5)
