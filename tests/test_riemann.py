import numpy as np
import pytest

from kepes.riemann import solve_riemann
from kepes.thermo import GasModel, PrimState, sound_speed


SOD_L = PrimState(1.0, 0.0, 1.0)
SOD_R = PrimState(0.125, 0.0, 0.1)


class TestSodStarState:
    # star-region values quoted in standard references (Toro, Table 4.2)
    def test_star_values(self, gas):
        sol = solve_riemann(SOD_L, SOD_R, gas)
        assert np.isclose(sol.p_star, 0.30313, atol=2e-5)
        assert np.isclose(sol.u_star, 0.92745, atol=2e-5)
        assert np.isclose(sol.rho_star_l, 0.42632, atol=2e-5)
        assert np.isclose(sol.rho_star_r, 0.26557, atol=2e-5)

    def test_wave_structure(self, gas):
        sol = solve_riemann(SOD_L, SOD_R, gas)
        head_l, tail_l = sol.left_wave_speeds()
        head_r, tail_r = sol.right_wave_speeds()
        assert head_l < tail_l < sol.u_star  # left rarefaction
        assert head_r == tail_r              # right shock
        assert sol.u_star < head_r


class TestConsistency:
    def test_pressure_equation_satisfied(self, gas):
        rng = np.random.default_rng(17)
        from kepes.riemann import _pressure_function

        for _ in range(100):
            left = PrimState(10 ** rng.uniform(-1, 1), rng.uniform(-0.5, 0.5),
                             10 ** rng.uniform(-1, 1))
            right = PrimState(10 ** rng.uniform(-1, 1), rng.uniform(-0.5, 0.5),
                              10 ** rng.uniform(-1, 1))
            sol = solve_riemann(left, right, gas)
            f_l, _ = _pressure_function(sol.p_star, left,
                                        float(sound_speed(left, gas)), 1.4)
            f_r, _ = _pressure_function(sol.p_star, right,
                                        float(sound_speed(right, gas)), 1.4)
            assert abs(f_l + f_r + right.u - left.u) < 1e-10

    def test_sampling_far_field(self, gas):
        sol = solve_riemann(SOD_L, SOD_R, gas)
        q = sol.sample(np.array([-10.0, 10.0]))
        assert q.rho[0] == SOD_L.rho and q.p[0] == SOD_L.p
        assert q.rho[1] == SOD_R.rho and q.p[1] == SOD_R.p

    def test_sampling_continuous_through_fan(self, gas):
        sol = solve_riemann(SOD_L, SOD_R, gas)
        head, tail = sol.left_wave_speeds()
        xi = np.linspace(head - 0.05, tail + 0.05, 400)
        q = sol.sample(xi)
        assert np.abs(np.diff(q.rho)).max() < 0.01  # no jumps inside the fan

    def test_stationary_contact_solution(self, gas):
        sol = solve_riemann(PrimState(10.0, 0.0, 1.0), PrimState(1.0, 0.0, 1.0),
                            gas)
        assert np.isclose(sol.p_star, 1.0, rtol=1e-10)
        assert abs(sol.u_star) < 1e-12
        q = sol.sample(np.array([-0.1, 0.1]))
        assert np.isclose(q.rho[0], 10.0, rtol=1e-9)
        assert np.isclose(q.rho[1], 1.0, rtol=1e-9)

    def test_stationary_shock_is_single_jump(self, gas):
        from kepes.presets import stationary_shock_states

        left, right = stationary_shock_states(2.0, gas)
        sol = solve_riemann(left, right, gas)
        # the solution reproduces the right state behind a zero-speed shock
        assert np.isclose(sol.p_star, right.p, rtol=1e-8)
        assert np.isclose(sol.u_star, right.u, rtol=1e-8)
        head_r, _ = sol.right_wave_speeds()
        q = sol.sample(np.array([-0.01, 0.01]))
        assert np.isclose(q.rho[0], left.rho, rtol=1e-8) or \
            np.isclose(q.rho[0], sol.rho_star_l, rtol=1e-8)

    def test_density_jumps_listed(self, gas):
        sol = solve_riemann(SOD_L, SOD_R, gas)
        jumps = sol.density_jumps(0.2, x0=0.5)
        kinds = len(jumps)
        assert kinds == 2  # contact + right shock; fan is continuous
        contact, shock = jumps
        assert np.isclose(contact[0], 0.5 + sol.u_star * 0.2, rtol=1e-12)
        assert contact[1] == sol.rho_star_l and contact[2] == sol.rho_star_r

    def test_vacuum_rejected(self, gas):
        with pytest.raises(ValueError):
            solve_riemann(PrimState(1.0, -10.0, 1.0), PrimState(1.0, 10.0, 1.0),
                          gas)

    def test_star_pressure_below_tolerance_rejected(self):
        # 0.9 of the vacuum limit: the root lies below _P_TOL, and Newton's
        # iterate pinned there passes its step test without being a root
        with pytest.raises(ValueError, match="vacuum"):
            solve_riemann(PrimState(1.0, -18.88, 1.0),
                          PrimState(1.0, 18.88, 1.0), GasModel(gamma=1.1))


class TestReflection:
    @pytest.mark.parametrize("gamma", [1.4, 5.0 / 3.0])
    def test_mirrored_problem_is_bitwise_mirror(self, gamma):
        # solving (R', L') with q' = (rho, -u, p) sends each wave through the
        # other side's code; off the contact, whose tie goes to the right
        # star state, its sample at -xi is the original at xi with u negated
        rng = np.random.default_rng(19)
        gas = GasModel(gamma=gamma)
        solved = 0
        for _ in range(200):
            left, right = (PrimState(10 ** rng.uniform(-1, 1),
                                     rng.uniform(-2, 2),
                                     10 ** rng.uniform(-1, 1))
                           for _ in range(2))
            try:
                sol = solve_riemann(left, right, gas)
            except ValueError:
                continue
            solved += 1
            mir = solve_riemann(PrimState(right.rho, -right.u, right.p),
                                PrimState(left.rho, -left.u, left.p), gas)
            assert mir.p_star == sol.p_star and mir.u_star == -sol.u_star
            edges = np.array(sol.left_wave_speeds()
                             + sol.right_wave_speeds() + (sol.u_star,))
            xi = np.concatenate([
                rng.uniform(edges.min() - 1.0, edges.max() + 1.0, 50), edges,
                np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
            xi = xi[xi != sol.u_star]
            q, q_mir = sol.sample(xi), mir.sample(-xi)
            assert np.array_equal(q_mir.rho, q.rho)
            assert np.array_equal(q_mir.u, -q.u)
            assert np.array_equal(q_mir.p, q.p)
        assert solved > 150
