import numpy as np
import pytest

from kepes.dissipation import MATRIX_LAWS, DissipationSpec
from kepes.fluxes import flux_kepec
from kepes.flux2d import (
    FaceNormal,
    PrimState2D,
    entropy_vars_2d,
    eigen_system_2d,
    eigenvalue_law_2d,
    exact_flux_2d,
    flux_kepec_2d,
    matrix_dissipation_2d,
    rotate_state,
    rotation_covariance_check,
    tadmor_residual_2d,
)
from kepes.thermo import FaceMeans, PrimState, log_mean


def random_states_2d(rng, n):
    def draw():
        return PrimState2D(10 ** rng.uniform(-1, 1, n),
                           rng.uniform(-1.5, 1.5, n),
                           rng.uniform(-1.5, 1.5, n),
                           10 ** rng.uniform(-1, 1, n))
    return draw(), draw()


def random_normals(rng, n):
    ang = rng.uniform(0.0, 2.0 * np.pi, n)
    return FaceNormal(np.cos(ang), np.sin(ang))


def entropy_jacobian_2d(rho, u1, u2, a, gamma):
    p = rho * a * a / gamma
    E = p / (gamma - 1.0) + 0.5 * rho * (u1 * u1 + u2 * u2)
    H = (E + p) / rho
    return np.array([
        [rho, rho * u1, rho * u2, E],
        [rho * u1, rho * u1 * u1 + p, rho * u1 * u2, (E + p) * u1],
        [rho * u2, rho * u1 * u2, rho * u2 * u2 + p, (E + p) * u2],
        [E, (E + p) * u1, (E + p) * u2, rho * H * H - a * a * p / (gamma - 1)],
    ])


class TestFaceNormal:
    def test_unit_enforced(self):
        for n1, n2 in ((1.0, 1.0), (np.nan, np.nan)):
            with pytest.raises(ValueError):
                FaceNormal(n1, n2)
        FaceNormal(np.sqrt(0.5), np.sqrt(0.5))


class TestFluxKepec2d:
    def test_consistency_normal_x(self, gas):
        q = PrimState2D(1.3, 0.4, -0.7, 2.0)
        n = FaceNormal(1.0, 0.0)
        f = flux_kepec_2d(q, q, n, gas)
        assert np.allclose(f, exact_flux_2d(q, n, gas), rtol=1e-13)

    def test_consistency_random_normals(self, gas):
        rng = np.random.default_rng(61)
        q, _ = random_states_2d(rng, 500)
        n = random_normals(rng, 500)
        f = flux_kepec_2d(q, q, n, gas)
        assert np.allclose(f, exact_flux_2d(q, n, gas), rtol=1e-12)

    def test_dimensional_reduction(self, gas):
        left2 = PrimState2D(1.1, 0.5, 0.0, 0.9)
        right2 = PrimState2D(0.8, 0.1, 0.0, 1.2)
        f2 = flux_kepec_2d(left2, right2, FaceNormal(1.0, 0.0), gas)
        f1 = flux_kepec(FaceMeans(PrimState(1.1, 0.5, 0.9),
                                  PrimState(0.8, 0.1, 1.2)), gas)
        assert np.isclose(f2[0], f1[0], rtol=1e-14)
        assert np.isclose(f2[1], f1[1], rtol=1e-14)
        assert np.isclose(f2[3], f1[2], rtol=1e-14)
        assert f2[2] == 0.0

    def test_entropy_conservation_bulk(self, gas):
        rng = np.random.default_rng(62)
        left, right = random_states_2d(rng, 10000)
        n = random_normals(rng, 10000)
        f = flux_kepec_2d(left, right, n, gas)
        assert np.abs(tadmor_residual_2d(left, right, n, f, gas)).max() < 1e-11


class TestEigenSystem2d:
    def test_shear_column_structure(self, gas):
        R, S = eigen_system_2d((1.0, 0.3, 0.0, 1.1,
                                1.1 ** 2 / 0.4 + 0.5 * 0.09),
                               FaceNormal(1.0, 0.0), gas)
        assert np.allclose(R[:, 2], [0.0, 0.0, -1.0, 0.3 * 0.0 - 0.0])

    def test_q_symmetric(self, gas):
        rng = np.random.default_rng(63)
        for _ in range(20):
            rho, a = 10 ** rng.uniform(-1, 1, 2)
            u1, u2 = rng.uniform(-2, 2, 2)
            H = a * a / 0.4 + 0.5 * (u1 * u1 + u2 * u2)
            ang = rng.uniform(0, 2 * np.pi)
            n = FaceNormal(np.cos(ang), np.sin(ang))
            R, S = eigen_system_2d((rho, u1, u2, a, H), n, gas)
            lam = rng.uniform(0, 2, 4)
            Q = np.einsum("ik,k,jk->ij", R, lam * S, R)
            assert np.abs(Q - Q.T).max() < 1e-13 * max(1.0, np.abs(Q).max())

    def test_rsrt_equals_entropy_jacobian(self, gas):
        rng = np.random.default_rng(64)
        for _ in range(50):
            rho, a = 10 ** rng.uniform(-1, 1, 2)
            u1, u2 = rng.uniform(-2, 2, 2)
            H = a * a / 0.4 + 0.5 * (u1 * u1 + u2 * u2)
            ang = rng.uniform(0, 2 * np.pi)
            n = FaceNormal(np.cos(ang), np.sin(ang))
            R, S = eigen_system_2d((rho, u1, u2, a, H), n, gas)
            A = np.einsum("ik,k,jk->ij", R, S, R)
            J = entropy_jacobian_2d(rho, u1, u2, a, gas.gamma)
            assert np.abs(A - J).max() <= 1e-10 * np.abs(J).max()

    def test_roe_eigenvalues(self, gas):
        left = PrimState2D(1.0, 0.7, -0.1, 1.0)
        spec = DissipationSpec(kind="matrix", matrix_law="roe")
        lam = eigenvalue_law_2d(0.5, 1.2, left, left, FaceNormal(1.0, 0.0),
                                gas, spec)
        assert np.allclose(lam, [0.7, 0.5, 0.5, 1.7])

    def test_other_laws_match_1d_structure(self, gas):
        left = PrimState2D(1.0, 0.7, -0.1, 1.0)
        right = PrimState2D(1.4, 0.2, 0.3, 1.8)
        n = FaceNormal(0.6, 0.8)
        un, a = 0.45, 1.2

        def law(name, **kw):
            return eigenvalue_law_2d(un, a, left, right, n, gas,
                                     DissipationSpec(kind="matrix",
                                                     matrix_law=name, **kw))

        assert np.allclose(law("rus"), [un + a] * 4)
        assert np.allclose(law("kes"), [un + a, un, un, un + a])
        # ec1 augments only the acoustic entries
        ec1 = law("ec1", ec1_beta=0.25)
        roe = law("roe")
        assert np.allclose(ec1[1:3], roe[1:3])
        assert np.all(ec1[[0, 3]] >= roe[[0, 3]])
        # hyb interpolates between roe and rus
        hyb = law("hyb")
        lo = np.minimum(roe, law("rus"))
        hi = np.maximum(roe, law("rus"))
        assert np.all(hyb >= lo - 1e-14) and np.all(hyb <= hi + 1e-14)


class TestRotationCovariance:
    def test_identity_angle(self, gas):
        left = PrimState2D(1.1, 0.5, -0.2, 0.9)
        right = PrimState2D(0.8, 0.1, 0.4, 1.2)
        assert rotation_covariance_check(left, right, FaceNormal(1.0, 0.0),
                                         gas, 0.0)

    def test_quarter_turn_swaps_momentum(self, gas):
        left = PrimState2D(1.1, 0.5, -0.2, 0.9)
        right = PrimState2D(0.8, 0.1, 0.4, 1.2)
        n = FaceNormal(1.0, 0.0)
        f = flux_kepec_2d(left, right, n, gas)
        g = flux_kepec_2d(rotate_state(left, np.pi / 2),
                          rotate_state(right, np.pi / 2),
                          FaceNormal(0.0, 1.0), gas)
        assert np.isclose(g[1], -f[2], atol=1e-13)
        assert np.isclose(g[2], f[1], atol=1e-13)
        assert np.isclose(g[0], f[0], atol=1e-13)
        assert np.isclose(g[3], f[3], atol=1e-13)

    def test_random_rotations_bulk(self, gas):
        rng = np.random.default_rng(65)
        left, right = random_states_2d(rng, 100)
        n = random_normals(rng, 100)
        for angle in rng.uniform(0, 2 * np.pi, 5):
            assert rotation_covariance_check(left, right, n, gas, angle)


class TestMatrixDissipation2d:
    def test_grid_aligned_stationary_contact(self, gas):
        left = PrimState2D(7.0, 0.0, 0.0, 2.0)
        right = PrimState2D(1.5, 0.0, 0.0, 2.0)
        for law in ("roe", "ec1", "kes", "hyb"):
            d = matrix_dissipation_2d(left, right, FaceNormal(1.0, 0.0), gas,
                                      DissipationSpec(kind="matrix",
                                                      matrix_law=law))
            assert np.abs(d).max() < 1e-12

    @pytest.mark.parametrize("law", MATRIX_LAWS)
    def test_entropy_production_nonnegative(self, gas, law):
        rng = np.random.default_rng(66)
        left, right = random_states_2d(rng, 5000)
        n = random_normals(rng, 5000)
        d = matrix_dissipation_2d(left, right, n, gas,
                                  DissipationSpec(kind="matrix",
                                                  matrix_law=law))
        dv = entropy_vars_2d(right, gas) - entropy_vars_2d(left, gas)
        assert np.sum(dv * d, axis=-1).max() <= 1e-12

    @pytest.mark.parametrize("law", MATRIX_LAWS)
    def test_matches_cartesian_face_average(self, gas, law):
        # -(1/2) R |Lambda| S R^T dv from the Cartesian average
        # (rho_ln, u1_bar, u2_bar, a = sqrt(gamma/(2 beta_ln)), H)
        rng = np.random.default_rng(67)
        left, right = random_states_2d(rng, 2000)
        n = random_normals(rng, 2000)
        spec = DissipationSpec(kind="matrix", matrix_law=law)
        rho = log_mean(left.rho, right.rho)
        a = np.sqrt(gas.gamma / (2.0 * log_mean(left.beta, right.beta)))
        u1, u2 = 0.5 * (left.u1 + right.u1), 0.5 * (left.u2 + right.u2)
        H = a * a / (gas.gamma - 1.0) + 0.5 * (u1 * u1 + u2 * u2)
        R, S = eigen_system_2d((rho, u1, u2, a, H), n, gas)
        lam = eigenvalue_law_2d(u1 * n.n1 + u2 * n.n2, a, left, right, n,
                                gas, spec)
        dv = entropy_vars_2d(right, gas) - entropy_vars_2d(left, gas)
        expected = -0.5 * np.einsum("...ik,...k,...jk,...j->...i",
                                    R, lam * S, R, dv)
        d = matrix_dissipation_2d(left, right, n, gas, spec)
        scale = np.abs(expected).max(axis=-1, keepdims=True)
        assert np.all(np.abs(d - expected) <= 1e-12 * scale)
