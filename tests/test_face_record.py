"""The per-stage face-mean record: assemble_rhs against the seed's
composition of per-pair functions, call counts, and kernel properties."""

import sys

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import kepes.thermo
from kepes.diagnostics import budget_report
from kepes.dissipation import (
    MATRIX_LAWS,
    DissipationSpec,
    eigenvalue_law,
    face_average,
    matrix_dissipation,
)
from kepes.fluxes import CENTRAL_FLUXES, flux_kepec
from kepes.reconstruction import ReconSpec, minmod, van_albada
from kepes.spatial import (
    BoundaryCondition,
    BoundarySpec,
    Grid1D,
    _StageWork,
    assemble_rhs,
    viscous_face_flux,
)
from kepes.thermo import (
    LOG_MEAN_SWITCH,
    FaceMeans,
    GasModel,
    PrimState,
    ViscosityLaw,
    cons_to_prim,
    entropy_vars,
    entropy_vars_jump,
    log_mean,
    prim_to_cons,
)

EPS = np.finfo(float).eps
# absolute slack for products that underflow into the subnormal range
UNDERFLOW = 64 * np.finfo(float).tiny

# The bound stated in CHANGES.md before the first comparison: the closed-form
# matrix product may reorder the three-term sums of the einsum composition,
# by at most MATRIX_RTOL times the magnitude of the terms summed (MATRIX_RTOL
# is about 4.5 ulp); everything else is bitwise equal.
MATRIX_RTOL = 1.0e-15


# -- the seed's composition, frozen here as the oracle ------------------------

def _take(q, idx):
    return PrimState(q.rho[idx], q.u[idx], q.p[idx])


def _oracle_eigen(avg, gas):
    """R, columns (u-a, u, u+a), and the diagonal of Barth's scaling S,
    each along the last axis, from the paper's formulas."""
    g = gas.gamma
    rho, u, a, H = avg.rho, avg.u, avg.a, avg.H
    one = np.ones_like(u)
    R = np.stack([np.stack([one, one, one], axis=-1),
                  np.stack([u - a, u, u + a], axis=-1),
                  np.stack([H - u * a, 0.5 * u * u, H + u * a], axis=-1)],
                 axis=-2)
    S = np.stack([rho / (2.0 * g), (g - 1.0) * rho / g, rho / (2.0 * g)],
                 axis=-1)
    return R, S


def _oracle_law(avg, left, right, gas, spec):
    """|Lambda| of the five eigenvalue laws, along the last axis, from the
    paper's formulas; a = sqrt(gamma p / rho) gives the pointwise cell
    eigenvalues u -+ a of ec1."""
    u, a = avg.u, avg.a
    roe = np.stack([np.abs(u - a), np.abs(u), np.abs(u + a)], axis=-1)
    lam_max = (np.abs(u) + a)[..., None]
    law = spec.matrix_law
    if law == "roe":
        return roe
    if law == "ec1":
        a_l = np.sqrt(gas.gamma * left.p / left.rho)
        a_r = np.sqrt(gas.gamma * right.p / right.rho)
        lam = roe.copy()
        lam[..., 0] += spec.ec1_beta * np.abs((right.u - a_r)
                                              - (left.u - a_l))
        lam[..., 2] += spec.ec1_beta * np.abs((right.u + a_r)
                                              - (left.u + a_l))
        return lam
    if law == "kes":
        return np.concatenate([lam_max, roe[..., 1:2], lam_max], axis=-1)
    if law == "rus":
        return np.concatenate([lam_max, lam_max, lam_max], axis=-1)
    assert law == "hyb"
    p_bar = 0.5 * (left.p + right.p)
    phi = np.clip(np.sqrt(np.abs(right.p - left.p) / (2.0 * p_bar)),
                  0.0, 1.0)[..., None]
    return (1.0 - phi) * roe + phi * lam_max


def _oracle_matrix(left, right, gas, spec, flux_kind):
    """Seed matrix dissipation, -(1/2) R |Lambda| S R^T dv via einsum, and
    the magnitude |R| |Lambda S| |R|^T |dv| of the terms it sums.  R, S
    and |Lambda| are the oracle's own, so a wrong law or eigenvector in
    the kernel cannot reach both sides of the comparison."""
    m = FaceMeans(left, right)
    avg = face_average(m, gas, flux_kind)
    R, S = _oracle_eigen(avg, gas)
    lam = _oracle_law(avg, left, right, gas, spec)
    dv = entropy_vars_jump(m, gas).T
    w = (lam * S) * np.einsum("...ji,...j->...i", R, dv)
    q_dv = np.einsum("...ij,...j->...i", R, w)
    scale = np.einsum("...ik,...k,...jk,...j->...i",
                      np.abs(R), lam * S, np.abs(R), np.abs(dv))
    return (np.array((-0.5 * q_dv[..., 0], -0.5 * q_dv[..., 1],
                      -0.5 * q_dv[..., 2])), 0.5 * scale)


def _fields(q):
    return (q.rho, q.u, q.p)


def _oracle_ghosts(prim, bcs):
    """The cells and two ghost cells per side by each kind's ghost rule:
    periodic wraps the two cells of the far end, fixed_state holds its
    state, transmissive and shock_outflow copy the edge cell."""
    def ghosts(bc, edge, far):
        if bc.kind == "periodic":
            return _fields(far)
        state = bc.state if bc.kind == "fixed_state" else edge
        return tuple(np.full(2, f) for f in _fields(state))

    left = ghosts(bcs.left, _take(prim, 0), _take(prim, slice(-2, None)))
    right = ghosts(bcs.right, _take(prim, -1), _take(prim, slice(0, 2)))
    return PrimState(*(np.concatenate(f) for f in zip(left, _fields(prim),
                                                      right)))


def _oracle_faces(qm1, q0, q1, q2, recon):
    """Face states of the stencils (q_{j-1}, q_j, q_{j+1}, q_{j+2}): the
    cells q_j, q_{j+1} at first order; at second order q_j + slope/2 and
    q_{j+1} - slope/2, each slope limited from the cell's two jumps, and a
    side whose rho or p would not be positive keeps its cell value."""
    if recon.order == 1:
        return q0, q1
    limiter = {"minmod": minmod, "van_albada": van_albada}[recon.limiter]

    def side(back, cell, fwd, sign):
        face = [c + sign * 0.5 * limiter(c - b, f - c)
                for b, c, f in zip(_fields(back), _fields(cell), _fields(fwd))]
        bad = (face[0] <= 0.0) | (face[2] <= 0.0)
        return PrimState(*(np.where(bad, c, f)
                           for f, c in zip(face, _fields(cell))))

    return side(qm1, q0, q1, 1.0), side(q0, q1, q2, -1.0)


def _oracle_jst(qm1, q0, q1, q2, gas, spec, eps2, eps4):
    """-(1/2) lambda D of the scalar operator, from the paper's formulas:
    the jump slots of D are eps2 (s_{j+1} - s_j) - eps4 (s_{j+2}
    - 3 s_{j+1} + 3 s_j - s_{j-1}) of the cells' (rho, u, 1/beta) slots s,
    and the means are those of the pair (q_j, q_{j+1})."""
    g = gas.gamma
    sm1, s0, s1, s2 = (np.array([q.rho, q.u, 1.0 / q.beta])
                       for q in (qm1, q0, q1, q2))
    d_rho, d_u, d_inv_beta = (eps2 * (s1 - s0)
                              - eps4 * (s2 - 3.0 * s1 + 3.0 * s0 - sm1))
    if spec.beta_average == "logarithmic":
        beta_m = log_mean(q0.beta, q1.beta)
    else:
        beta_m = 0.5 * (q0.beta + q1.beta)
    rho_bar = 0.5 * (q0.rho + q1.rho)
    u_bar = 0.5 * (q0.u + q1.u)
    D = np.array([
        d_rho,
        u_bar * d_rho + rho_bar * d_u,
        (0.5 / ((g - 1.0) * beta_m) + 0.5 * q0.u * q1.u) * d_rho
        + rho_bar * u_bar * d_u + rho_bar / (2.0 * (g - 1.0)) * d_inv_beta])
    lam = np.abs(u_bar) + np.sqrt(g / (2.0 * beta_m))
    return -0.5 * lam * D


def oracle_rhs(cells, grid, gas, flux_kind, diss, recon, bcs):
    """The seed's assemble_rhs: per-pair functions, each given a record of
    its own pairs, and ghost cells, reconstruction and scalar dissipation
    written here from their formulas.

    Returns (rhs, faces dict, per-face tolerance of the matrix terms, and
    that of the net flux)."""
    prim = cons_to_prim(cells, gas)
    ext = _oracle_ghosts(prim, bcs)
    n, dx = grid.n_cells, grid.dx
    qm1, q0, q1, q2 = (_take(ext, slice(k, n + 1 + k)) for k in range(4))
    face_l, face_r = _oracle_faces(qm1, q0, q1, q2, recon)
    central = CENTRAL_FLUXES[flux_kind](FaceMeans(face_l, face_r), gas)
    tol = np.zeros((n + 1, 3))
    if diss.kind == "matrix":
        d_flux, scale = _oracle_matrix(face_l, face_r, gas, diss, flux_kind)
        tol = MATRIX_RTOL * scale
    elif diss.kind == "scalar":
        p = ext.p
        nu = np.zeros_like(p)
        nu[1:-1] = (np.abs(p[:-2] - 2.0 * p[1:-1] + p[2:])
                    / (p[:-2] + 2.0 * p[1:-1] + p[2:]))
        if not bcs.is_periodic:
            nu[1] = nu[2]
            nu[-2] = nu[-3]
        nu_face = np.maximum(nu[1:n + 2], nu[2:n + 3])
        eps2 = np.minimum(1.0, diss.kappa2 * nu_face)
        eps4 = np.maximum(0.0, diss.kappa4 - eps2)
        d_flux = _oracle_jst(qm1, q0, q1, q2, gas, diss, eps2, eps4)
    else:
        z = np.zeros(n + 1)
        d_flux = np.array((z, z.copy(), z.copy()))
    if gas.is_viscous:
        g_flux = viscous_face_flux(FaceMeans(q0, q1), gas, dx)
    else:
        z = np.zeros(n + 1)
        g_flux = np.array((z, z.copy(), z.copy()))
    net = (central + d_flux - g_flux).T
    # the net flux's tolerance: the outflow face copies face n - 1's
    net_tol = tol.copy()
    if bcs.right.kind == "shock_outflow":
        net[n] = (bcs.right.mass_flux, net[n - 1, 1], net[n - 1, 2])
        net_tol[n] = tol[n - 1]
    rhs = -(net[1:] - net[:-1]) / dx
    u_bar = 0.5 * (q0.u + q1.u)
    faces = {
        "central": central.T, "diss": d_flux.T,
        "visc": g_flux.T, "net": net, "u_bar": u_bar,
        "du": q1.u - q0.u,
        "dv": entropy_vars(q1, gas).T - entropy_vars(q0, gas).T,
        "dpsi": q1.rho * q1.u - q0.rho * q0.u,
        "p_tilde": np.asarray(central[1]) - u_bar * np.asarray(central[0]),
    }
    return rhs, faces, tol, net_tol


# -- states and configurations --------------------------------------------------

N_CELLS = 24
FLUX_KINDS = sorted(CENTRAL_FLUXES)
DISSIPATIONS = (
    [DissipationSpec(),
     DissipationSpec(kind="scalar", kappa2=0.5, kappa4=1 / 32,
                     beta_average="arithmetic"),
     DissipationSpec(kind="scalar", kappa2=0.5, kappa4=1 / 32,
                     beta_average="logarithmic")]
    + [DissipationSpec(kind="matrix", matrix_law=law) for law in MATRIX_LAWS])
RECONSTRUCTIONS = (ReconSpec(1), ReconSpec(2, "minmod"),
                   ReconSpec(2, "van_albada"))


def boundaries(kind, edge):
    """BoundarySpec of one kind; fixed states and the outflow use edge."""
    if kind == "periodic":
        return BoundarySpec(BoundaryCondition("periodic"),
                            BoundaryCondition("periodic"))
    if kind == "fixed_state":
        return BoundarySpec(BoundaryCondition("fixed_state", state=edge[0]),
                            BoundaryCondition("fixed_state", state=edge[1]))
    if kind == "shock_outflow":
        return BoundarySpec(BoundaryCondition("fixed_state", state=edge[0]),
                            BoundaryCondition("shock_outflow", mass_flux=0.7))
    return BoundarySpec()


def wide_states(rng):
    """Independent cells with density and pressure ratios up to 1e6."""
    return PrimState(10.0 ** rng.uniform(-3, 3, N_CELLS),
                     rng.uniform(-2, 2, N_CELLS),
                     10.0 ** rng.uniform(-3, 3, N_CELLS))


def switch_states(rng):
    """Neighbour ratios whose zeta^2 straddles LOG_MEAN_SWITCH, in rho and
    in beta, so faces fall on both branches of log_mean."""
    def chain():
        zeta = np.sqrt(LOG_MEAN_SWITCH) * rng.uniform(0.9, 1.1, N_CELLS)
        zeta *= rng.choice([-1.0, 1.0], N_CELLS)
        return np.cumprod((1.0 + zeta) / (1.0 - zeta))
    return PrimState(chain(), rng.uniform(-0.5, 0.5, N_CELLS), chain())


def contact_states(rng):
    """A stationary contact field: u = 0, uniform p, random density."""
    return PrimState(10.0 ** rng.uniform(-3, 3, N_CELLS), np.zeros(N_CELLS),
                     np.full(N_CELLS, 10.0 ** rng.uniform(-1, 1)))


STATES = {"wide": wide_states, "log_mean_switch": switch_states,
          "contact": contact_states}
GASES = {"inviscid": GasModel(),
         "viscous": GasModel(viscosity_law=ViscosityLaw("constant", 0.01))}


def assert_close(name, got, want, tol):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, name
    if not np.any(tol):
        assert np.array_equal(got, want), f"{name} not bitwise equal"
        return
    # plus the rounding of the final operation on a value moved by tol
    bound = tol + 4.0 * EPS * np.abs(want)
    excess = np.abs(got - want) - bound
    assert np.all(excess <= 0.0), (
        f"{name}: exceeds the bound by {float(np.max(excess)):.3e}")


@pytest.mark.parametrize("bc", ["transmissive", "fixed_state", "periodic",
                                "shock_outflow"])
@pytest.mark.parametrize("flux_kind", FLUX_KINDS)
def test_assemble_rhs_matches_seed_composition(flux_kind, bc):
    grid = Grid1D(N_CELLS, 0.0, 1.0)
    for s, (label, draw) in enumerate(sorted(STATES.items())):
        rng = np.random.default_rng([FLUX_KINDS.index(flux_kind), s])
        prim = draw(rng)
        edge = (PrimState(prim.rho[0], prim.u[0], prim.p[0]),
                PrimState(prim.rho[-1], prim.u[-1], prim.p[-1]))
        bcs = boundaries(bc, edge)
        for gas_label, gas in GASES.items():
            cells = prim_to_cons(prim, gas)
            for diss in DISSIPATIONS:
                for recon in RECONSTRUCTIONS:
                    case = (f"{label}/{gas_label}/{diss.kind}/"
                            f"{diss.matrix_law}/{diss.beta_average}/"
                            f"{recon.order}{recon.limiter}")
                    rhs, faces = assemble_rhs(cells, grid, gas,
                                              flux_kind, diss, recon, bcs)
                    want, want_faces, tol, net_tol = oracle_rhs(
                        cells, grid, gas, flux_kind, diss, recon, bcs)
                    rhs_tol = (net_tol[1:] + net_tol[:-1]) / grid.dx
                    got = np.stack([rhs[0], rhs[1], rhs[2]], axis=-1)
                    assert_close(f"{case} rhs", got, want, rhs_tol)
                    for name in ("central", "diss", "visc"):
                        assert_close(f"{case} {name}",
                                     getattr(faces, name).T,
                                     want_faces[name], tol)
                    assert_close(f"{case} net", faces.net.T,
                                 want_faces["net"], net_tol)
                    assert_close(f"{case} p_tilde", faces.p_tilde,
                                 want_faces["p_tilde"], tol[:, 1])
                    for name in ("u_bar", "du", "dpsi"):
                        assert_close(f"{case} {name}", getattr(faces, name),
                                     want_faces[name], 0.0)
                    # the jumps of one entropy_vars pass over the sides,
                    # as budget_report takes them
                    v = entropy_vars(faces.sides, gas)
                    assert_close(f"{case} dv", (v[:, 1:] - v[:, :-1]).T,
                                 want_faces["dv"], 0.0)
                    assert faces.periodic == bcs.is_periodic


@pytest.mark.parametrize("flux_kind", FLUX_KINDS)
def test_scalar_end_rule_with_foreign_fixed_states(flux_kind):
    # the fixed states above are the edge cells, so every ghost sensor is
    # zero and the end rule leaves the end faces as they were.  Here the
    # ghosts hold a tenth of the uniform pressure, so each outer ghost
    # sensor exceeds the edge cell's and the rule decides the end faces.
    gas = GasModel()
    grid = Grid1D(N_CELLS, 0.0, 1.0)
    prim = contact_states(np.random.default_rng(11))
    ghost = PrimState(1.0, 0.0, 0.1 * prim.p[0])
    bcs = BoundarySpec(BoundaryCondition("fixed_state", state=ghost),
                       BoundaryCondition("fixed_state", state=ghost))
    cells = prim_to_cons(prim, gas)
    for diss in DISSIPATIONS[1:3]:
        for recon in RECONSTRUCTIONS:
            case = f"{diss.beta_average}/{recon.order}{recon.limiter}"
            rhs, faces = assemble_rhs(cells, grid, gas, flux_kind,
                                      diss, recon, bcs)
            want, want_faces, tol, _ = oracle_rhs(cells, grid, gas,
                                                  flux_kind, diss, recon, bcs)
            assert_close(f"{case} diss", faces.diss.T, want_faces["diss"],
                         tol)
            got = np.stack([rhs[0], rhs[1], rhs[2]], axis=-1)
            assert_close(f"{case} rhs", got, want,
                         (tol[1:] + tol[:-1]) / grid.dx)


# -- call counts --------------------------------------------------------------

def count_calls(monkeypatch, name):
    """Count calls of kepes.thermo.<name>, rebound in every kepes module."""
    original = getattr(kepes.thermo, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("kepes") and \
                getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("diss", [
    DissipationSpec(kind="scalar", kappa2=0.5, kappa4=1 / 32),
    *(DissipationSpec(kind="matrix", matrix_law=law) for law in MATRIX_LAWS),
    DissipationSpec(kind="scalar", kappa2=0.5, kappa4=1 / 32,
                    beta_average="arithmetic"),
])
def test_one_log_mean_each_for_rho_and_beta(monkeypatch, diss):
    gas = GasModel()
    grid = Grid1D(N_CELLS, 0.0, 1.0)
    cells = prim_to_cons(wide_states(np.random.default_rng(7)), gas)
    log_means = count_calls(monkeypatch, "log_mean")
    entropy = count_calls(monkeypatch, "entropy_vars")
    # a record's rho_ln and beta_ln come from one call on the stacked
    # (rho, beta) pair.  At order 2 the scalar form's logarithmic beta
    # mean is the cell-pair record's, a second record beside the face
    # record that the kepec flux reads; at order 1 the two are one.
    for recon in (ReconSpec(2), ReconSpec(1)):
        want = 1 + (recon.order == 2 and diss.kind == "scalar"
                    and diss.beta_average == "logarithmic")
        work = _StageWork(N_CELLS, recon, diss, gas.is_viscous)
        for held in (work, None):
            log_means.clear()
            rhs, faces = assemble_rhs(cells, grid, gas, "kepec", diss,
                                      recon, BoundarySpec(), held)
            assert len(log_means) == want, (recon, held)
    assert len(entropy) == 0

    # a budget read through faces still closes
    report = budget_report(0.0, rhs, faces, grid, gas)
    assert len(entropy) > 0
    ke = (report.dke_dt_pressure_work + report.dke_dt_numerical
          + report.dke_dt_viscous + report.dke_dt_boundary)
    du = (report.du_dt_flux_residual + report.du_dt_numerical
          + report.du_dt_viscous + report.du_dt_boundary)
    assert abs(report.dke_dt - ke) <= 1e-11 * max(1.0, abs(report.dke_dt))
    assert abs(report.du_dt - du) <= 1e-11 * max(1.0, abs(report.du_dt))
    assert len(log_means) == 1


@pytest.mark.parametrize("flux_kind", ["kep", "kepec_ac", "roe_baseline"])
def test_no_log_mean_without_log_averages(monkeypatch, flux_kind):
    # no flux of these reads a logarithmic mean, so no record forms one
    gas = GasModel()
    grid = Grid1D(N_CELLS, 0.0, 1.0)
    cells = prim_to_cons(wide_states(np.random.default_rng(7)), gas)
    log_means = count_calls(monkeypatch, "log_mean")
    work = _StageWork(N_CELLS, ReconSpec(1), DissipationSpec(), False)
    for held in (work, None):
        assemble_rhs(cells, grid, gas, flux_kind, DissipationSpec(),
                     ReconSpec(1), BoundarySpec(), held)
    assert len(log_means) == 0


@pytest.mark.parametrize("right", [
    BoundaryCondition("transmissive"),
    BoundaryCondition("shock_outflow", mass_flux=0.5),
])
def test_zero_fluxes_do_not_share_memory(right):
    # writing into one component of the returned record must not change
    # another component or the other zero flux
    gas = GasModel()
    grid = Grid1D(N_CELLS, 0.0, 1.0)
    cells = prim_to_cons(wide_states(np.random.default_rng(3)), gas)
    _, faces = assemble_rhs(cells, grid, gas, "kepec",
                            DissipationSpec(kind="none"), ReconSpec(1),
                            BoundarySpec(right=right))
    arrays = [f[0] for f in (faces.diss, faces.visc)] \
        + [f[1] for f in (faces.diss, faces.visc)] \
        + [f[2] for f in (faces.diss, faces.visc)]
    for i, a in enumerate(arrays):
        assert not np.any(a)
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


# -- properties of the record-based kernels -------------------------------------

GAS = GasModel()
# log10 of density and pressure ratios: up to 1e6 either way, plus ratios
# whose zeta^2 lies within 20 % of LOG_MEAN_SWITCH on either side
_SWITCH_EXPONENT = float(np.log10((1 + np.sqrt(LOG_MEAN_SWITCH))
                                  / (1 - np.sqrt(LOG_MEAN_SWITCH))))
ratio_exponent = st.one_of(
    st.floats(min_value=-6.0, max_value=6.0),
    st.floats(min_value=0.9 * _SWITCH_EXPONENT,
              max_value=1.1 * _SWITCH_EXPONENT),
    st.floats(min_value=-1.1 * _SWITCH_EXPONENT,
              max_value=-0.9 * _SWITCH_EXPONENT))
velocity = st.floats(min_value=-3.0, max_value=3.0)


def pair(rho_l, rho_exp, u_l, u_r, p_l, p_exp):
    left = PrimState(rho_l, u_l, p_l)
    right = PrimState(rho_l * 10.0 ** rho_exp, u_r, p_l * 10.0 ** p_exp)
    return left, right, FaceMeans(left, right)


pair_args = dict(rho_l=st.floats(min_value=1e-3, max_value=1e3),
                 rho_exp=ratio_exponent, u_l=velocity, u_r=velocity,
                 p_l=st.floats(min_value=1e-3, max_value=1e3),
                 p_exp=ratio_exponent)


@given(**pair_args)
@settings(max_examples=300, deadline=None)
def test_kepec_tadmor_residual_round_off(**kw):
    left, right, m = pair(**kw)
    f = flux_kepec(m, GAS)
    dv = entropy_vars_jump(m, GAS)
    dpsi = right.rho * right.u - left.rho * left.u
    residual = dv[0] * f[0] + dv[1] * f[1] + dv[2] * f[2] - dpsi
    # round-off scale: the terms of dv . f with dv and f_e multiplied out,
    # which cancel exactly in exact arithmetic
    g = GAS.gamma
    d_rho, d_u = right.rho - left.rho, right.u - left.u
    d_beta = m.beta_r - m.beta_l
    scale = (abs(d_rho / m.rho_ln * f[0])
             + 2.0 * abs(d_beta / ((g - 1.0) * m.beta_ln) * f[0])
             + 2.0 * abs(m.u2_bar * d_beta * f[0])
             + abs(2.0 * m.u_bar * m.beta_bar * d_u * f[0])
             + abs(2.0 * m.beta_bar * d_u * f[1])
             + 4.0 * abs(m.u_bar * d_beta * f[1])
             + abs(right.rho * right.u) + abs(left.rho * left.u))
    assert abs(residual) <= 64 * EPS * scale + UNDERFLOW


@given(**pair_args)
@settings(max_examples=300, deadline=None)
def test_kepec_momentum_flux_is_kep(**kw):
    left, right, m = pair(**kw)
    f = flux_kepec(m, GAS)
    rho_bar = 0.5 * (left.rho + right.rho)
    beta_bar = 0.5 * (left.beta + right.beta)
    u_bar = 0.5 * (left.u + right.u)
    assert f[1] == rho_bar / (2.0 * beta_bar) + u_bar * f[0]


@given(law=st.sampled_from(MATRIX_LAWS), **pair_args)
@settings(max_examples=500, deadline=None)
def test_matrix_dissipation_produces_entropy(law, **kw):
    left, right, m = pair(**kw)
    spec = DissipationSpec(kind="matrix", matrix_law=law)
    d = matrix_dissipation(m, GAS, spec, "kepec")
    dv = entropy_vars_jump(m, GAS)
    terms = (dv[0] * d[0], dv[1] * d[1], dv[2] * d[2])
    assert sum(terms) <= 64 * EPS * sum(abs(t) for t in terms) + UNDERFLOW


@given(law=st.sampled_from(("roe", "ec1", "kes", "hyb")),
       rho_l=st.floats(min_value=1e-3, max_value=1e3), rho_exp=ratio_exponent,
       p=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=300, deadline=None)
def test_matrix_dissipation_transparent_to_contact(law, rho_l, rho_exp, p):
    # zero up to rounding: at most 64 ulp of the flux the law's acoustic
    # eigenvalue would apply to a density jump of rho_l + rho_r, the scale
    # of the cancelling terms; the rus law, whose middle eigenvalue acts on
    # the entropy jump, applies a flux of order the jump itself
    left = PrimState(rho_l, 0.0, p)
    right = PrimState(rho_l * 10.0 ** rho_exp, 0.0, p)
    m = FaceMeans(left, right)
    spec = DissipationSpec(kind="matrix", matrix_law=law)
    d = matrix_dissipation(m, GAS, spec, "kepec")
    avg = face_average(m, GAS, "kepec")
    lam = eigenvalue_law(avg.u, avg.a, m, GAS, spec)
    flux_scale = max(lam[0], lam[2]) * (left.rho + right.rho)
    assert abs(d[0]) <= 64 * EPS * flux_scale
    assert abs(d[1]) <= 64 * EPS * flux_scale * avg.a
    assert abs(d[2]) <= 64 * EPS * flux_scale * avg.H
    rus = DissipationSpec(kind="matrix", matrix_law="rus")
    d_rus = matrix_dissipation(m, GAS, rus, "kepec")
    jump = abs(right.rho - left.rho)
    assert abs(d_rus[0]) >= 0.1 * avg.a * jump
