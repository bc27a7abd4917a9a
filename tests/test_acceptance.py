"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 7 is asserted in its literal step-1 form and is expected
to fail: no consistent two-point flux reproduces the exact
Rankine-Hugoniot flux at a captured jump, so the initial residual there is
O(1).  The companion test below it verifies the steady-state form of the
same property, which does hold.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from kepes.config import initial_state
from kepes.diagnostics import budget_report
from kepes.dissipation import (
    DissipationSpec,
    eigen_system,
    eigenvalue_law,
    face_average,
    scalar_d_vector,
    scalar_quadratic_form,
)
from kepes.fluxes import (
    CENTRAL_FLUXES,
    flux_kepec,
    flux_kepec_ac,
    flux_roe_ec,
    tadmor_residual,
)
from kepes.flux2d import (
    FaceNormal,
    PrimState2D,
    eigen_system_2d,
    flux_kepec_2d,
    rotation_covariance_check,
    tadmor_residual_2d,
)
from kepes.presets import preset, stationary_shock_states
from kepes.reconstruction import ReconSpec
from kepes.riemann import solve_riemann
from kepes.spatial import assemble_rhs
from kepes.thermo import (
    FaceMeans,
    GasModel,
    InvalidStateError,
    PrimState,
    ViscosityLaw,
    entropy_vars,
    prim_to_cons,
    temperature,
)
from kepes.spatial import BoundaryCondition, BoundarySpec, Grid1D
from kepes.timeint import StageError, march

from conftest import ACCEPTANCE_LINES, advance, max_residual, random_states

GAS = GasModel()

PERIODIC = BoundarySpec(BoundaryCondition("periodic"),
                        BoundaryCondition("periodic"))


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number}: {status} ({detail})"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {number}: {detail}"


def periodic_field(n=64):
    grid = Grid1D(n, 0.0, 1.0)
    x = grid.cell_centers()
    prim = PrimState(1.0 + 0.3 * np.sin(2 * np.pi * x),
                     0.5 + 0.2 * np.cos(2 * np.pi * x),
                     1.0 + 0.25 * np.sin(4 * np.pi * x + 0.3))
    return grid, prim


def test_c01_entropy_conservation_identity():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    left, right = random_states(rng, 100_000, span=1.0, umax=2.0)
    worst = 0.0
    for flux in (flux_kepec, flux_roe_ec):
        f = flux(FaceMeans(left, right), GAS)
        res = tadmor_residual(left, right, f, GAS)
        worst = max(worst, float(np.abs(res).max()))
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-11 and elapsed < 5.0,
           f"max |dv.f - dpsi| = {worst:.2e} over 1e5 pairs, {elapsed:.2f}s")


def test_c02_third_order_ac_residual():
    base = np.array([1.0, 0.4, 1.2])
    direction = np.array([0.6, 0.3, -0.5])
    hs = np.logspace(-1, -3, 9)
    res = []
    for h in hs:
        left = PrimState(*(base * (1.0 - 0.5 * h * direction)))
        right = PrimState(*(base * (1.0 + 0.5 * h * direction)))
        f = flux_kepec_ac(FaceMeans(left, right), GAS)
        res.append(abs(float(tadmor_residual(left, right, f, GAS))))
    slope = float(np.polyfit(np.log(hs), np.log(res), 1)[0])
    report(2, abs(slope - 3.0) < 0.2, f"fitted slope = {slope:.3f}")


def test_c03_semi_discrete_ke_balance():
    grid, prim = periodic_field()
    cells = prim_to_cons(prim, GAS)
    rhs, faces = assemble_rhs(cells, grid, GAS, "kepec", DissipationSpec(),
                              ReconSpec(1), PERIODIC)
    dke = float(np.sum(-0.5 * prim.u ** 2 * rhs[0] + prim.u * rhs[1])
                * grid.dx)
    pwork = float(np.sum(faces.du[:-1] * faces.p_tilde[:-1]))
    err = abs(dke - pwork)
    report(3, err < 1e-11, f"|dKE/dt - sum p_tilde du| = {err:.2e}")


def test_c04_semi_discrete_entropy_balance():
    grid, prim = periodic_field()
    cells = prim_to_cons(prim, GAS)
    rhs, _ = assemble_rhs(cells, grid, GAS, "kepec", DissipationSpec(),
                          ReconSpec(1), PERIODIC)
    v = entropy_vars(prim, GAS)
    inviscid = abs(float(np.sum(v[0] * rhs[0] + v[1] * rhs[1] + v[2] * rhs[2])
                         * grid.dx))

    gas_v = GasModel(viscosity_law=ViscosityLaw("constant", 0.01),
                     prandtl=0.72)
    cells = prim_to_cons(prim, gas_v)
    rhs, _ = assemble_rhs(cells, grid, gas_v, "kepec", DissipationSpec(),
                          ReconSpec(1), PERIODIC)
    v = entropy_vars(prim, gas_v)
    du_dt = float(np.sum(v[0] * rhs[0] + v[1] * rhs[1] + v[2] * rhs[2])
                  * grid.dx)
    T = prim.p / (prim.rho * gas_v.gas_constant)
    Tw = np.concatenate([T, T[:1]])
    uw = np.concatenate([prim.u, prim.u[:1]])
    bw = np.concatenate([prim.beta, prim.beta[:1]])
    T_face = 0.5 * (Tw[:-1] + Tw[1:])
    mu = gas_v.viscosity(T_face)
    kappa = gas_v.conductivity(T_face)
    du = uw[1:] - uw[:-1]
    dT = Tw[1:] - Tw[:-1]
    bbar = 0.5 * (bw[:-1] + bw[1:])
    dx = grid.dx
    closed = -float(np.sum(
        8.0 * mu * bbar / 3.0 * (du / dx) ** 2 * dx
        + kappa / (gas_v.gas_constant * Tw[:-1] * Tw[1:]) * (dT / dx) ** 2 * dx))
    visc_err = abs(du_dt - closed)
    report(4, inviscid < 1e-11 and visc_err < 1e-11,
           f"inviscid |dU/dt| = {inviscid:.2e}, viscous mismatch = "
           f"{visc_err:.2e}")


def test_c05_dissipation_entropy_stability():
    rng = np.random.default_rng(105)
    left, right = random_states(rng, 100_000, span=1.0, umax=2.0)
    dv = (entropy_vars(right, GAS) - entropy_vars(left, GAS)).T
    m = FaceMeans(left, right)
    avg = face_average(m, GAS, "kepec")
    R, S = eigen_system(avg, GAS)
    w = np.einsum("...ji,...j->...i", R, dv)
    worst = np.inf
    for law in ("roe", "ec1", "kes", "rus", "hyb"):
        spec = DissipationSpec(kind="matrix", matrix_law=law)
        lam = eigenvalue_law(avg.u, avg.a, m, GAS, spec)
        quad = np.sum((lam * S) * w * w, axis=-1)
        worst = min(worst, float(quad.min()))

    # the scalar identity is checked on O(1) states (ratios up to 10);
    # its 1e-12 absolute tolerance is meaningless for extreme magnitudes
    sl, sr = random_states(rng, 100_000, span=0.5, umax=2.0)
    D, _ = scalar_d_vector(sl, sr, GAS, "logarithmic")
    dvs = (entropy_vars(sr, GAS) - entropy_vars(sl, GAS)).T
    lhs = dvs[..., 0] * D[0] + dvs[..., 1] * D[1] + dvs[..., 2] * D[2]
    diff = float(np.abs(lhs - scalar_quadratic_form(sl, sr, GAS)).max())
    report(5, worst >= -1e-12 and diff < 1e-12,
           f"min dv'Q dv = {worst:.2e}, scalar identity mismatch = {diff:.2e}")


# The contact-resolving eigenvalue laws; the Rusanov law keeps a nonzero
# middle eigenvalue acting on the entropy jump and provably diffuses the
# contact, so it is asserted below as the complementary behaviour.
CONTACT_LAWS = ("roe", "ec1", "kes", "hyb")


def test_c06_stationary_contact():
    base = preset("stationary_contact")
    x = base.grid.cell_centers()
    rho0 = np.where(x < 0.5, 10.0, 1.0)
    drifts = {}
    for law in CONTACT_LAWS:
        cfg = replace(base, diss=replace(base.diss, matrix_law=law))
        prim, _, _ = advance(cfg, n_steps=1000)
        drifts[law] = float(np.abs(prim.rho - rho0).max())
    cfg_ac = replace(base, flux_kind="kepec_ac")
    prim_ac, _, _ = advance(cfg_ac, n_steps=1000)
    ac_drift = float(np.abs(prim_ac.rho - rho0).max())
    cfg_rus = replace(base, diss=replace(base.diss, matrix_law="rus"))
    prim_rus, _, _ = advance(cfg_rus, n_steps=1000)
    rus_drift = float(np.abs(prim_rus.rho - rho0).max())
    ok = max(drifts.values()) < 1e-12 and ac_drift > 1e-3 and rus_drift > 1e-3
    report(6, ok,
           f"contact-law drift = {max(drifts.values()):.2e}, "
           f"AC pairing drift = {ac_drift:.2e}, Rusanov drift = "
           f"{rus_drift:.2e}")


def _shock_variants():
    for flux in CENTRAL_FLUXES:
        yield flux, DissipationSpec(kind="scalar", kappa2=0.5, kappa4=1 / 32)
        for law in ("roe", "ec1", "kes", "rus", "hyb"):
            yield flux, DissipationSpec(kind="matrix", matrix_law=law)


def test_c07_exact_stationary_shock_steady_at_step_1():
    # Literal form: zero residual on the jump initial data.  A consistent
    # two-point flux does not return the exact Rankine-Hugoniot flux at the
    # jump face, so the residual there is O(1); this assertion fails and is
    # kept in its stated form on purpose.
    base = preset("stationary_shock_m1.5")
    cells = initial_state(base)
    worst = 0.0
    for flux_kind, diss in _shock_variants():
        rhs, _ = assemble_rhs(cells, base.grid, base.gas, flux_kind, diss,
                              base.recon, base.bcs)
        worst = max(worst, max_residual(rhs))
    report(7, worst < 1e-12, f"max |rhs| on jump data = {worst:.2e}")


def test_c07_companion_residual_converges_to_machine_zero():
    # Steady-state form of the same property: marching the jump data with a
    # representative entropy-stable variant drives the residual to the
    # round-off floor.
    base = preset("stationary_shock_m1.5")
    cfg = replace(base, diss=replace(base.diss, matrix_law="roe"),
                  time=replace(base.time, t_final=np.inf, max_steps=25_000,
                               steady_tol=None))
    # every 500 steps, read the residual L(u) the march evaluated anyway
    residual = np.inf
    for state in march(cfg, initial_state(cfg)):
        if state.error is not None:
            raise state.error
        if state.step and state.step % 500 == 0:
            residual = max_residual(state.rhs)
            if residual < 1e-10:
                break
    step = state.step
    line = f"criterion 7 companion: residual {residual:.2e} after {step} steps"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert residual < 1e-10


def _preshock_defect(rho, rho_l, rho_r):
    """Largest adverse (descending) step upstream of the shock midpoint."""
    mid = 0.5 * (rho_l + rho_r)
    crossing = int(np.argmax(rho > mid))
    pre = rho[:max(crossing, 1)]
    d = np.diff(pre)
    return float(max(0.0, (-d).max())) if d.size else 0.0


def _transition_cells(rho, rho_l, rho_r, frac=0.02):
    jump = rho_r - rho_l
    lo, hi = rho_l + frac * jump, rho_r - frac * jump
    return int(np.count_nonzero((rho > lo) & (rho < hi)))


def test_c08_stationary_shock_monotonicity_m20():
    base = preset("stationary_shock_m20")
    left, right = stationary_shock_states(20.0, base.gas)
    jump = right.rho - left.rho

    cfg = replace(base, diss=replace(base.diss, matrix_law="ec1"))
    prim, _, _ = advance(cfg, n_steps=6000)
    ec1_defect = _preshock_defect(np.asarray(prim.rho), left.rho, right.rho)

    # negative control: the arithmetic-average pairing is violently
    # non-monotone at this shock strength (it reaches an invalid state)
    ac_cfg = replace(cfg, flux_kind="kepec_ac")
    try:
        prim_ac, _, _ = advance(ac_cfg, n_steps=6000)
        ac_defect = _preshock_defect(np.asarray(prim_ac.rho),
                                     left.rho, right.rho)
        ac_failed = ac_defect > 1e-3 * jump
        ac_note = f"AC defect = {ac_defect:.2e}"
    except (InvalidStateError, StageError):
        ac_failed = True
        ac_note = "AC run aborted on an invalid state"

    kes_cfg = replace(base, diss=replace(base.diss, matrix_law="kes"))
    prim_kes, _, _ = advance(kes_cfg, n_steps=6000)
    rho_kes = np.asarray(prim_kes.rho)
    kes_defect = float(max(0.0, (-np.diff(rho_kes)).max()))
    kes_cells = _transition_cells(rho_kes, left.rho, right.rho)

    ok = (ec1_defect <= 1e-3 * jump and ac_failed
          and kes_defect <= 1e-3 * jump and kes_cells >= 6)
    report(8, ok,
           f"EC1 pre-shock defect = {ec1_defect:.2e} (limit {1e-3 * jump:.2e}), "
           f"{ac_note}, KES defect = {kes_defect:.2e} over {kes_cells} cells")


def _fan_window(cfg, t):
    sol = solve_riemann(cfg.ic.left, cfg.ic.right, cfg.gas)
    head, tail = sol.left_wave_speeds()
    return 0.5 + head * t, 0.5 + tail * t


def _isolated_fan_jump(cfg, rho, xa, xb):
    """Density jump across one face in excess of the total variation of the
    four surrounding faces; positive only for an isolated discontinuity."""
    x = cfg.grid.cell_centers()
    xf = 0.5 * (x[:-1] + x[1:])
    d = np.abs(np.diff(rho))
    best = -np.inf
    for k in range(2, len(d) - 2):
        if xa + cfg.grid.dx < xf[k] < xb - cfg.grid.dx:
            best = max(best, d[k] - (d[k - 2] + d[k - 1] + d[k + 1] + d[k + 2]))
    return float(best)


def test_c09_modified_sod_entropy_fix():
    t0 = time.perf_counter()
    base = preset("modified_sod")
    xa, xb = _fan_window(base, base.time.t_final)

    prim_roe, _, _ = advance(replace(base, flux_kind="roe_baseline"))
    glitch_roe = _isolated_fan_jump(base, np.asarray(prim_roe.rho), xa, xb)

    glitches = {}
    for law in ("roe", "ec1"):
        cfg = replace(base, diss=replace(base.diss, matrix_law=law))
        prim, _, _ = advance(cfg)
        glitches[law] = _isolated_fan_jump(base, np.asarray(prim.rho), xa, xb)
    elapsed = time.perf_counter() - t0

    ok = (glitch_roe > 0.02 and max(glitches.values()) < 0.005
          and elapsed < 10.0)
    report(9, ok,
           f"roe_baseline sonic jump = {glitch_roe:.3f}, entropy-stable "
           f"jumps = {glitches['roe']:.4f}/{glitches['ec1']:.4f}, "
           f"{elapsed:.1f}s")


def test_c10_sod_resolution():
    cfg = preset("sod")
    prim, _, _ = advance(cfg)
    sol = solve_riemann(cfg.ic.left, cfg.ic.right, cfg.gas)
    jumps = sol.density_jumps(cfg.time.t_final, x0=0.5)
    x = cfg.grid.cell_centers()
    from kepes.diagnostics import jump_width_cells

    widths = []
    positions = [j[0] for j in jumps]
    for pos, v_l, v_r in jumps:
        others = [p for p in positions if p != pos] + [0.0, 1.0]
        hw = 0.45 * min(abs(pos - p) for p in others)
        widths.append(jump_width_cells(x, prim.rho, pos, v_l, v_r, hw))
    contact_w, shock_w = widths
    report(10, shock_w <= 3 and contact_w <= 6,
           f"shock 10-90% width = {shock_w} cells, contact = {contact_w}")


def test_c11_ns_shock_structure():
    # interior monotonicity: the outflow boundary freezes the last cell's
    # momentum/energy by construction, so the final 3 cells are excluded
    cfg = preset("ns_shock_structure_n200_d4")
    prim, cells, rhs, faces, t = advance(cfg, collect_rhs=True)
    rep = budget_report(t, rhs, faces, cfg.grid, cfg.gas)
    T = np.asarray(temperature(prim, cfg.gas))
    rho = np.asarray(prim.rho)[:-3]
    u = np.asarray(prim.u)[:-3]
    T = T[:-3]
    defects = {
        "rho": float(max(0.0, (-np.diff(rho)).max())) / (rho.max() - rho.min()),
        "u": float(max(0.0, np.diff(u).max())) / (u.max() - u.min()),
        "T": float(max(0.0, (-np.diff(T)).max())) / (T.max() - T.min()),
    }
    production = -(rep.du_dt_viscous + rep.du_dt_numerical)

    coarse = preset("ns_shock_structure_n50")
    prim50, _, _ = advance(coarse)
    rho50 = np.asarray(prim50.rho)[:-3]
    coarse_defect = float(max(0.0, (-np.diff(rho50)).max())) \
        / (rho50.max() - rho50.min())

    ok = (max(defects.values()) <= 1e-3 and production > 0.0
          and coarse_defect <= 2e-2)
    report(11, ok,
           f"N=200 defects rho/u/T = {defects['rho']:.1e}/{defects['u']:.1e}/"
           f"{defects['T']:.1e}, entropy production = {production:.3e}, "
           f"N=50 defect = {coarse_defect:.1e}")


def test_c12_two_dimensional_kernels():
    rng = np.random.default_rng(112)
    n = 10_000

    def draw():
        return PrimState2D(10 ** rng.uniform(-1, 1, n),
                           rng.uniform(-1.5, 1.5, n),
                           rng.uniform(-1.5, 1.5, n),
                           10 ** rng.uniform(-1, 1, n))

    left, right = draw(), draw()
    ang = rng.uniform(0, 2 * np.pi, n)
    normal = FaceNormal(np.cos(ang), np.sin(ang))
    f = flux_kepec_2d(left, right, normal, GAS)
    tadmor = float(np.abs(tadmor_residual_2d(left, right, normal, f, GAS)).max())

    rot_ok = all(rotation_covariance_check(left, right, normal, GAS, a)
                 for a in rng.uniform(0, 2 * np.pi, 5))

    # dimensional reduction
    l1 = PrimState(left.rho, left.u1, left.p)
    r1 = PrimState(right.rho, right.u1, right.p)
    l2 = PrimState2D(left.rho, left.u1, np.zeros(n), left.p)
    r2 = PrimState2D(right.rho, right.u1, np.zeros(n), right.p)
    f2 = flux_kepec_2d(l2, r2, FaceNormal(1.0, 0.0), GAS)
    f1 = flux_kepec(FaceMeans(l1, r1), GAS)
    reduction = max(float(np.abs(f2[..., 0] - f1[0]).max()),
                    float(np.abs(f2[..., 1] - f1[1]).max()),
                    float(np.abs(f2[..., 3] - f1[2]).max()),
                    float(np.abs(f2[..., 2]).max()))

    # R S R^T equals the entropy Jacobian
    rho = 10 ** rng.uniform(-1, 1, n)
    a = 10 ** rng.uniform(-1, 1, n)
    u1 = rng.uniform(-2, 2, n)
    u2 = rng.uniform(-2, 2, n)
    H = a * a / (GAS.gamma - 1.0) + 0.5 * (u1 * u1 + u2 * u2)
    R, S = eigen_system_2d((rho, u1, u2, a, H), normal, GAS)
    A = np.einsum("...ik,...k,...jk->...ij", R, S, R)
    p = rho * a * a / GAS.gamma
    E = p / (GAS.gamma - 1.0) + 0.5 * rho * (u1 * u1 + u2 * u2)
    Hp = (E + p) / rho
    J = np.empty_like(A)
    J[..., 0, 0] = rho
    J[..., 0, 1] = J[..., 1, 0] = rho * u1
    J[..., 0, 2] = J[..., 2, 0] = rho * u2
    J[..., 0, 3] = J[..., 3, 0] = E
    J[..., 1, 1] = rho * u1 * u1 + p
    J[..., 1, 2] = J[..., 2, 1] = rho * u1 * u2
    J[..., 1, 3] = J[..., 3, 1] = (E + p) * u1
    J[..., 2, 2] = rho * u2 * u2 + p
    J[..., 2, 3] = J[..., 3, 2] = (E + p) * u2
    J[..., 3, 3] = rho * Hp * Hp - a * a * p / (GAS.gamma - 1.0)
    scale = np.abs(J).max(axis=(-2, -1))
    jac_err = float((np.abs(A - J).max(axis=(-2, -1)) / scale).max())

    ok = (tadmor < 1e-11 and rot_ok and reduction < 1e-13
          and jac_err < 1e-10)
    report(12, ok,
           f"2-D Tadmor = {tadmor:.2e}, rotation = {rot_ok}, reduction = "
           f"{reduction:.2e}, |RSR' - du/dv| = {jac_err:.2e}")
