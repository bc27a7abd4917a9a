"""Shape contract of the per-pair functions: each returns one stacked
(3, ...) ndarray and broadcasts its inputs as numpy broadcasts arrays."""

import numpy as np
import pytest

from kepes.dissipation import (
    MATRIX_LAWS,
    DissipationSpec,
    jst_dissipation,
    matrix_dissipation,
    scalar_d_vector,
)
from kepes.fluxes import CENTRAL_FLUXES, exact_flux
from kepes.spatial import viscous_face_flux
from kepes.thermo import (
    GasModel,
    PrimState,
    ViscosityLaw,
    FaceMeans,
    entropy_vars,
    entropy_vars_jump,
)

from conftest import inner_pairs, stencil

GAS = GasModel(viscosity_law=ViscosityLaw("power", 0.01, 1.0, 0.7))
JST = DissipationSpec(kind="scalar", kappa2=0.5, kappa4=1 / 32)
K = 5



def _of_pair(fn, **kwargs):
    """fn of the FaceMeans record of the pair (left, right)."""
    return lambda l, r: fn(FaceMeans(l, r), **kwargs)


def _jst(left, right):
    cells = stencil(left, left, right, right)
    return jst_dissipation(cells, inner_pairs(cells), GAS, JST)[..., 0]


# Each function of a pair (left, right).  The single-state functions take
# the right state, whose fields broadcast to the shape of the pair in every
# case below; jst_dissipation takes the stencil (left, left, right, right)
# stacked along the last axis, and [..., 0] is its single face.
FUNCTIONS = {
    **{name: _of_pair(fn, gas=GAS)
       for name, fn in sorted(CENTRAL_FLUXES.items())},
    "exact_flux": lambda l, r: exact_flux(r, GAS),
    "entropy_vars": lambda l, r: entropy_vars(r, GAS),
    "entropy_vars_jump": _of_pair(entropy_vars_jump, gas=GAS),
    **{f"matrix_dissipation_{law}": _of_pair(
        matrix_dissipation, gas=GAS,
        spec=DissipationSpec(kind="matrix", matrix_law=law))
       for law in MATRIX_LAWS},
    "scalar_d_vector": lambda l, r: scalar_d_vector(l, r, GAS)[0],
    "jst_dissipation": _jst,
    "viscous_face_flux": _of_pair(viscous_face_flux, gas=GAS, dx=0.1),
}

ARRAY_L = PrimState(np.linspace(0.5, 2.0, K), np.linspace(-0.5, 0.5, K),
                    np.linspace(0.8, 1.6, K))
ARRAY_R = PrimState(np.linspace(1.5, 0.3, K), np.linspace(0.4, -0.6, K),
                    np.linspace(2.0, 0.5, K))
CASES = {
    "scalar_pair": (PrimState(1.0, 0.3, 1.0), PrimState(0.5, -0.2, 0.8)),
    "k_pairs": (ARRAY_L, ARRAY_R),
    "uniform_rho_p": (PrimState(1.2, ARRAY_L.u, 0.9),
                      PrimState(1.2, ARRAY_R.u, 0.9)),
    "scalar_left": (PrimState(1.0, 0.3, 1.0), ARRAY_R),
}


def _fields(left, right):
    return (left.rho, left.u, left.p, right.rho, right.u, right.p)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_stacked_result_broadcasts(name, case):
    left, right = CASES[case]
    got = FUNCTIONS[name](left, right)
    shape = np.broadcast_shapes(*(np.shape(f) for f in _fields(left,
                                                                right)))
    assert isinstance(got, np.ndarray)
    assert got.shape == (3,) + shape
    fields = np.broadcast_arrays(*_fields(left, right))
    want = FUNCTIONS[name](PrimState(*fields[:3]), PrimState(*fields[3:]))
    for k in range(3):
        assert np.array_equal(got[k], want[k]), f"row {k}"


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_rows_match_prim_state(name, case):
    # a state is read by unpacking it, so the (3, ...) row array of a
    # side is the same input as its PrimState
    left, right = CASES[case]
    got = FUNCTIONS[name](np.array(np.broadcast_arrays(*left)),
                          np.array(np.broadcast_arrays(*right)))
    want = FUNCTIONS[name](left, right)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()
