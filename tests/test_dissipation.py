import numpy as np
import pytest

from kepes.dissipation import (
    MATRIX_LAWS,
    DissipationSpec,
    FaceAverage,
    assemble_q,
    eigen_system,
    eigenvalue_law,
    face_average,
    jst_dissipation,
    jst_switches,
    matrix_dissipation,
    scalar_d_vector,
    scalar_quadratic_form,
)
from kepes.thermo import FaceMeans, PrimState, entropy_vars

from conftest import inner_pairs, random_states, stencil


def entropy_jacobian(rho, u, a, gamma):
    """Analytic du/dv for the entropy -rho s/(gamma-1), from (rho, u, a)."""
    p = rho * a * a / gamma
    E = p / (gamma - 1.0) + 0.5 * rho * u * u
    H = (E + p) / rho
    return np.array([
        [rho, rho * u, E],
        [rho * u, rho * u * u + p, (E + p) * u],
        [E, (E + p) * u, rho * H * H - a * a * p / (gamma - 1.0)],
    ])


def dv_array(left, right, gas):
    return (entropy_vars(right, gas) - entropy_vars(left, gas)).T


class TestScalarDVector:
    def test_equal_states_vanish(self, gas):
        q = PrimState(1.3, 0.4, 2.0)
        D, _ = scalar_d_vector(q, q, gas)
        assert np.allclose([D[0], D[1], D[2]], 0.0, atol=1e-15)

    def test_mass_and_momentum_slots(self, gas):
        left, right = PrimState(1.0, 0.5, 1.0), PrimState(2.0, -0.25, 1.5)
        D, _ = scalar_d_vector(left, right, gas)
        assert np.isclose(D[0], 1.0, rtol=1e-15)
        assert np.isclose(D[1], 2.0 * (-0.25) - 1.0 * 0.5, rtol=1e-14)

    def test_entropy_identity_two_sided(self, gas):
        left, right = PrimState(1.0, 0.0, 1.0), PrimState(2.0, 0.0, 1.0)
        D, _ = scalar_d_vector(left, right, gas, "logarithmic")
        dv = dv_array(left, right, gas)
        lhs = dv[0] * D[0] + dv[1] * D[1] + dv[2] * D[2]
        rhs = scalar_quadratic_form(left, right, gas)
        assert np.isclose(lhs, rhs, rtol=1e-13)
        assert rhs > 0.0

    def test_entropy_identity_random_bulk(self, gas):
        rng = np.random.default_rng(21)
        left, right = random_states(rng, 20000, span=0.5)
        D, _ = scalar_d_vector(left, right, gas, "logarithmic")
        dv = dv_array(left, right, gas)
        lhs = dv[..., 0] * D[0] + dv[..., 1] * D[1] + dv[..., 2] * D[2]
        rhs = scalar_quadratic_form(left, right, gas)
        assert np.abs(lhs - rhs).max() < 1e-12
        assert rhs.min() >= 0.0

    def test_wave_speed_reference(self, gas):
        q = PrimState(1.0, 0.0, 1.4)
        _, lam = scalar_d_vector(q, q, gas)
        assert np.isclose(lam, 1.4, rtol=1e-14)

    def test_arithmetic_variant_residual_high_order(self, gas):
        # with the arithmetic beta mean the identity holds to O(jump^3+)
        base = np.array([1.0, 0.4, 1.2])
        direction = np.array([0.5, 0.2, -0.6])
        hs = np.logspace(-1, -2.5, 7)
        res = []
        for h in hs:
            left = PrimState(*(base * (1 - 0.5 * h * direction)))
            right = PrimState(*(base * (1 + 0.5 * h * direction)))
            D, _ = scalar_d_vector(left, right, gas, "arithmetic")
            dv = dv_array(left, right, gas)
            lhs = dv[0] * D[0] + dv[1] * D[1] + dv[2] * D[2]
            res.append(abs(float(lhs - scalar_quadratic_form(left, right, gas))))
        slope = np.polyfit(np.log(hs), np.log(res), 1)[0]
        assert slope >= 3.0


class TestJstSwitches:
    def test_uniform_pressure(self):
        eps2, eps4 = jst_switches((1.0, 1.0, 1.0, 1.0), 0.5, 0.04)
        assert eps2 == 0.0
        assert eps4 == 0.04

    def test_hand_worked_sensor(self):
        # cell sensor |1 - 4 + 1|/(1 + 4 + 1) = 1/3 dominates the face
        eps2, eps4 = jst_switches((1.0, 2.0, 1.0, 1.0), 0.5, 0.5)
        assert np.isclose(eps2, 1.0 / 6.0, rtol=1e-14)
        assert np.isclose(eps4, 0.5 - 1.0 / 6.0, rtol=1e-14)

    def test_disabled_second_difference(self):
        eps2, eps4 = jst_switches((1.0, 3.0, 0.5, 2.0), 0.0, 0.25)
        assert eps2 == 0.0
        assert eps4 == 0.25

    def test_switch_bounds(self):
        rng = np.random.default_rng(2)
        p = 10 ** rng.uniform(-1, 1, (4, 1000))
        eps2, eps4 = jst_switches(p, 50.0, 0.1)
        assert np.all(eps2 <= 1.0) and np.all(eps2 >= 0.0)
        assert np.all(eps4 <= 0.1) and np.all(eps4 >= 0.0)


class TestJstDissipation:
    spec = DissipationSpec(kind="scalar", kappa2=0.5, kappa4=1 / 32)

    def test_uniform_flow_no_correction(self, gas):
        q = PrimState(1.0, 0.5, 1.0)
        cells = stencil(q, q, q, q)
        d = jst_dissipation(cells, inner_pairs(cells), gas,
                            self.spec)[..., 0]
        assert np.allclose([d[0], d[1], d[2]], 0.0, atol=1e-15)

    def test_smooth_field_third_order(self, gas):
        slopes = []
        hs = np.logspace(-2, -4, 5)
        for h in hs:
            x = np.array([-1.5, -0.5, 0.5, 1.5]) * h + 0.3
            cells = stencil(*(PrimState(1.0 + 0.3 * np.sin(xi),
                                        0.2 * np.cos(xi),
                                        1.0 + 0.2 * np.sin(2 * xi))
                              for xi in x))
            d = jst_dissipation(cells, inner_pairs(cells), gas,
                                self.spec)[..., 0]
            slopes.append(max(abs(float(d[0])), abs(float(d[1])),
                              abs(float(d[2]))))
        fit = np.polyfit(np.log(hs), np.log(slopes), 1)[0]
        assert fit >= 3.0

    def test_blend_reduces_to_scalar_vector(self, gas):
        qm1 = PrimState(1.1, 0.1, 1.2)
        q0 = PrimState(1.0, 0.5, 1.0)
        q1 = PrimState(2.0, -0.25, 1.5)
        q2 = PrimState(1.8, 0.0, 1.4)
        # both cell sensors (0.149 and 0.111) exceed 1/kappa2, so eps2 = 1
        # and eps4 = 0 exactly
        spec = DissipationSpec(kind="scalar", kappa2=10.0)
        cells = stencil(qm1, q0, q1, q2)
        d = jst_dissipation(cells, inner_pairs(cells), gas, spec)[..., 0]
        D, lam = scalar_d_vector(q0, q1, gas)
        assert np.isclose(d[0], -0.5 * lam * D[0], rtol=1e-13)
        assert np.isclose(d[1], -0.5 * lam * D[1], rtol=1e-13)
        assert np.isclose(d[2], -0.5 * lam * D[2], rtol=1e-13)


class TestEigenSystem:
    def test_stagnant_middle_column(self, gas):
        R, S = eigen_system(FaceAverage(1.0, 0.0, 1.2, 3.6), gas)
        assert np.allclose(R[:, 1], [1.0, 0.0, 0.0])

    def test_q_symmetric(self, gas):
        rng = np.random.default_rng(31)
        for _ in range(20):
            rho, a = 10 ** rng.uniform(-1, 1, 2)
            u = rng.uniform(-2, 2)
            H = a * a / 0.4 + 0.5 * u * u
            R, S = eigen_system(FaceAverage(rho, u, a, H), gas)
            lam = np.abs(rng.uniform(0, 3, 3))
            Q = assemble_q(R, lam, S)
            assert np.abs(Q - Q.T).max() < 1e-13 * max(1.0, np.abs(Q).max())

    def test_q_positive_definite_probe(self, gas):
        rng = np.random.default_rng(32)
        rho, u, a = 1.3, 0.7, 1.1
        H = a * a / 0.4 + 0.5 * u * u
        R, S = eigen_system(FaceAverage(rho, u, a, H), gas)
        Q = assemble_q(R, np.ones(3), S)
        for _ in range(100):
            x = rng.normal(size=3)
            assert x @ Q @ x > 0.0

    def test_rsrt_equals_entropy_jacobian(self, gas):
        rng = np.random.default_rng(33)
        for _ in range(50):
            rho, a = 10 ** rng.uniform(-1, 1, 2)
            u = rng.uniform(-3, 3)
            H = a * a / (gas.gamma - 1.0) + 0.5 * u * u
            R, S = eigen_system(FaceAverage(rho, u, a, H), gas)
            A = np.einsum("ik,k,jk->ij", R, S, R)
            J = entropy_jacobian(rho, u, a, gas.gamma)
            assert np.abs(A - J).max() <= 1e-10 * np.abs(J).max()


class TestFaceAverage:
    def test_equal_states_sound_speed(self, gas):
        q = PrimState(1.0, 0.0, 1.0)
        avg = face_average(FaceMeans(q, q), gas, "kepec")
        assert np.isclose(avg.a, np.sqrt(1.4), rtol=1e-6)
        assert np.isclose(avg.a, 1.18322, atol=1e-5)

    def test_enthalpy_consistency(self, gas):
        q = PrimState(2.0, 0.7, 1.3)
        avg = face_average(FaceMeans(q, q), gas, "kepec")
        assert np.isclose(avg.H, avg.a ** 2 / 0.4 + 0.5 * avg.u ** 2,
                          rtol=1e-14)

    def test_density_average_follows_flux_pairing(self, gas):
        left, right = PrimState(1.0, 0.0, 1.0), PrimState(4.0, 0.0, 1.0)
        from kepes.thermo import log_mean

        m = FaceMeans(left, right)
        assert np.isclose(face_average(m, gas, "kepec").rho,
                          log_mean(1.0, 4.0), rtol=1e-14)
        assert face_average(m, gas, "kepec_ac").rho == 2.5


class TestEigenvalueLaw:
    def spec(self, law, beta=1 / 6):
        return DissipationSpec(kind="matrix", matrix_law=law, ec1_beta=beta)

    def test_rusanov(self, gas):
        q = PrimState(1.0, 1.0, 1.0)
        lam = eigenvalue_law(1.0, 2.0, FaceMeans(q, q), gas, self.spec("rus"))
        assert np.allclose(lam, [3.0, 3.0, 3.0])

    def test_roe_ordering(self, gas):
        q = PrimState(1.0, 0.5, 1.0)
        lam = eigenvalue_law(0.5, 2.0, FaceMeans(q, q), gas, self.spec("roe"))
        assert np.allclose(lam, [1.5, 0.5, 2.5])

    def test_kes_equal_acoustics(self, gas):
        q = PrimState(1.0, 0.5, 1.0)
        lam = eigenvalue_law(0.5, 2.0, FaceMeans(q, q), gas, self.spec("kes"))
        assert np.allclose(lam, [2.5, 0.5, 2.5])

    def test_hyb_without_pressure_jump_is_roe(self, gas):
        left = PrimState(1.0, 0.5, 1.0)
        right = PrimState(2.0, 0.1, 1.0)
        m = FaceMeans(left, right)
        roe = eigenvalue_law(0.3, 1.1, m, gas, self.spec("roe"))
        hyb = eigenvalue_law(0.3, 1.1, m, gas, self.spec("hyb"))
        assert np.allclose(hyb, roe, rtol=1e-14)

    def test_hyb_switch_value(self, gas):
        left = PrimState(1.0, 0.0, 1.0)
        right = PrimState(1.0, 0.0, 3.0)
        phi = np.sqrt(2.0 / 4.0)
        m = FaceMeans(left, right)
        roe = eigenvalue_law(0.2, 1.0, m, gas, self.spec("roe"))
        rus = eigenvalue_law(0.2, 1.0, m, gas, self.spec("rus"))
        hyb = eigenvalue_law(0.2, 1.0, m, gas, self.spec("hyb"))
        assert np.isclose(phi, 0.70711, atol=1e-5)
        assert np.allclose(hyb, (1 - phi) * roe + phi * rus, rtol=1e-14)

    def test_hyb_is_convex_blend(self, gas):
        # phi = sqrt(|dp|/(p_L + p_R)) < 1 for any positive pressures (the
        # clip is a safety net); hyb always sits between roe and rus
        rng = np.random.default_rng(42)
        left, right = random_states(rng, 1000)
        m = FaceMeans(left, right)
        avg = face_average(m, gas, "kepec")
        roe = eigenvalue_law(avg.u, avg.a, m, gas, self.spec("roe"))
        rus = eigenvalue_law(avg.u, avg.a, m, gas, self.spec("rus"))
        hyb = eigenvalue_law(avg.u, avg.a, m, gas, self.spec("hyb"))
        lo, hi = np.minimum(roe, rus), np.maximum(roe, rus)
        assert np.all(hyb >= lo - 1e-14) and np.all(hyb <= hi + 1e-14)
        extreme = eigenvalue_law(
            0.2, 1.0,
            FaceMeans(PrimState(1.0, 0.0, 1.0), PrimState(1.0, 0.0, 1e4)),
            gas, self.spec("hyb"))
        assert np.all(extreme <= 1.2 + 1e-14)

    @pytest.mark.parametrize("law", MATRIX_LAWS)
    def test_faces_broadcast_against_states(self, gas, law):
        # scalar face speeds with three pairs of states, and three face
        # speeds with one pair on three faces, match one call per face
        left = PrimState(np.array([1.0, 0.5, 2.0]), np.array([0.1, -0.3, 0.0]),
                         np.array([1.0, 0.4, 3.0]))
        right = PrimState(np.array([0.8, 0.6, 1.0]), np.array([0.2, 0.1, 0.5]),
                          np.array([2.0, 0.5, 1.0]))
        u_f, a_f = np.array([0.3, -0.2, 0.1]), np.array([1.1, 0.9, 1.6])
        spec = self.spec(law)
        lam = eigenvalue_law(0.3, 1.1, FaceMeans(left, right), gas, spec)
        assert lam.shape == (3, 3)
        for i in range(3):
            one = PrimState(left.rho[i], left.u[i], left.p[i])
            other = PrimState(right.rho[i], right.u[i], right.p[i])
            assert np.array_equal(
                lam[i],
                eigenvalue_law(0.3, 1.1, FaceMeans(one, other), gas, spec))
        one = PrimState(1.0, 0.1, 1.0)
        other = PrimState(0.8, 0.2, 2.0)
        lam = eigenvalue_law(u_f, a_f, FaceMeans(
            PrimState(np.full(3, 1.0), 0.1, 1.0), other), gas, spec)
        assert lam.shape == (3, 3)
        m = FaceMeans(one, other)
        for i in range(3):
            assert np.array_equal(
                lam[i], eigenvalue_law(u_f[i], a_f[i], m, gas, spec))

    def test_ec1_augmentation(self, gas):
        left = PrimState(1.0, 0.0, 1.0)    # a = sqrt(1.4)
        right = PrimState(1.0, 0.0, 2.0)   # a = sqrt(2.8)
        a_l, a_r = np.sqrt(1.4), np.sqrt(2.8)
        lam = eigenvalue_law(0.0, 1.0, FaceMeans(left, right), gas,
                             self.spec("ec1"))
        assert np.isclose(lam[0], 1.0 + (a_r - a_l) / 6, rtol=1e-13)
        assert np.isclose(lam[1], 0.0, atol=1e-15)
        assert np.isclose(lam[2], 1.0 + (a_r - a_l) / 6, rtol=1e-13)

    def test_all_nonnegative(self, gas):
        rng = np.random.default_rng(41)
        left, right = random_states(rng, 2000)
        m = FaceMeans(left, right)
        avg = face_average(m, gas, "kepec")
        for law in ("roe", "ec1", "kes", "rus", "hyb"):
            lam = eigenvalue_law(avg.u, avg.a, m, gas, self.spec(law))
            assert lam.min() >= 0.0


class TestMatrixDissipation:
    contact_laws = ("roe", "ec1", "kes", "hyb")

    def test_equal_states(self, gas):
        q = PrimState(1.0, 0.7, 1.0)
        d = matrix_dissipation(FaceMeans(q, q), gas,
                               DissipationSpec(kind="matrix"))
        assert np.allclose([d[0], d[1], d[2]], 0.0, atol=1e-15)

    @pytest.mark.parametrize("law", contact_laws)
    def test_stationary_contact_transparent(self, law, gas):
        left, right = PrimState(10.0, 0.0, 1.0), PrimState(1.0, 0.0, 1.0)
        spec = DissipationSpec(kind="matrix", matrix_law=law)
        d = matrix_dissipation(FaceMeans(left, right), gas, spec, "kepec")
        assert max(abs(float(d[0])), abs(float(d[1])),
                   abs(float(d[2]))) < 1e-12

    def test_rusanov_diffuses_contact(self, gas):
        # the middle eigenvalue |u|+a keeps acting on the entropy jump
        left, right = PrimState(10.0, 0.0, 1.0), PrimState(1.0, 0.0, 1.0)
        spec = DissipationSpec(kind="matrix", matrix_law="rus")
        d = matrix_dissipation(FaceMeans(left, right), gas, spec, "kepec")
        assert abs(float(d[0])) > 1e-2

    def test_arithmetic_pairing_diffuses_contact(self, gas):
        left, right = PrimState(10.0, 0.0, 1.0), PrimState(1.0, 0.0, 1.0)
        spec = DissipationSpec(kind="matrix", matrix_law="roe")
        d = matrix_dissipation(FaceMeans(left, right), gas, spec, "kepec_ac")
        assert abs(float(d[0])) > 1e-2

    @pytest.mark.parametrize("law", ("roe", "ec1", "kes", "rus", "hyb"))
    def test_entropy_production_nonnegative(self, law, gas):
        rng = np.random.default_rng(51)
        left, right = random_states(rng, 20000)
        spec = DissipationSpec(kind="matrix", matrix_law=law)
        d = matrix_dissipation(FaceMeans(left, right), gas, spec, "kepec")
        dv = dv_array(left, right, gas)
        # dv . d = -(1/2) dv^T Q dv <= 0
        prod = dv[..., 0] * d[0] + dv[..., 1] * d[1] + dv[..., 2] * d[2]
        assert prod.max() <= 1e-12

    def ke_functional(self, left, right, gas, law, flux_kind="kepec"):
        spec = DissipationSpec(kind="matrix", matrix_law=law)
        d = matrix_dissipation(FaceMeans(left, right), gas, spec, flux_kind)
        u_bar = 0.5 * (left.u + right.u)
        q_dv = -2.0 * np.stack(
            np.broadcast_arrays(d[0], d[1], d[2]), axis=-1)
        return u_bar * q_dv[..., 0] - q_dv[..., 1]

    @pytest.mark.parametrize("law", ("kes", "rus"))
    def test_ke_stable_laws_reduce_to_velocity_jump(self, law, gas):
        rng = np.random.default_rng(52)
        left, right = random_states(rng, 5000, span=0.5)
        func = self.ke_functional(left, right, gas, law)
        du = right.u - left.u
        # functional = -alpha du with alpha = 2 a^2 rho_f beta_bar lam / gamma
        avg = face_average(FaceMeans(left, right), gas, "kepec")
        lam = np.abs(avg.u) + avg.a
        alpha = 2.0 * avg.a ** 2 * avg.rho * 0.5 * (left.beta + right.beta) \
            * lam / gas.gamma
        assert np.all(alpha >= 0.0)
        assert np.allclose(func, -alpha * du, rtol=1e-10, atol=1e-12)

    def test_roe_law_violates_ke_condition(self, gas):
        # du = 0 with generic density/pressure jumps: a kinetic-energy
        # stable law returns exactly zero while the unequal acoustic
        # eigenvalues of the roe law leave a jump-dependent remainder
        # (a pure contact jump would be annihilated by every law, so the
        # pressure jump here is essential)
        left = PrimState(1.0, 0.8, 1.0)
        right = PrimState(2.5, 0.8, 1.7)
        func_roe = self.ke_functional(left, right, gas, "roe")
        func_kes = self.ke_functional(left, right, gas, "kes")
        func_rus = self.ke_functional(left, right, gas, "rus")
        assert abs(float(func_roe)) > 1e-3
        assert abs(float(func_kes)) < 1e-13
        assert abs(float(func_rus)) < 1e-13
