"""Golden bits of the stage: the sha256 of a held stage's rhs and its
central, diss, visc and net fluxes, for every central flux, dissipation
(none; scalar with the logarithmic and the arithmetic beta mean; matrix
with each eigenvalue law) and reconstruction (order 1; minmod, van Albada
and no limiter), over the gases, boundary sets and states of
test_stage_kernels.  The digests were recorded from the stage as it was
before its kernels were written as formula code (stage_golden.json), so a
port that changes one bit of any of them shows here.

    python tests/test_stage_golden.py --record

rewrites the file from the current stage.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from kepes.dissipation import MATRIX_LAWS, DissipationSpec
from kepes.fluxes import CENTRAL_FLUXES
from kepes.reconstruction import ReconSpec
from kepes.spatial import Grid1D, _StageWork, assemble_rhs
from kepes.thermo import prim_to_cons

from test_stage_kernels import BOUNDARIES, GASES, N_CELLS, states

GOLDEN = Path(__file__).with_name("stage_golden.json")
DISSIPATIONS = {
    "none": DissipationSpec(),
    **{f"scalar-{beta}": DissipationSpec(kind="scalar", kappa2=0.5,
                                         kappa4=1 / 32, beta_average=beta)
       for beta in ("logarithmic", "arithmetic")},
    **{f"matrix-{law}": DissipationSpec(kind="matrix", matrix_law=law)
       for law in MATRIX_LAWS},
}
RECONSTRUCTIONS = {"1": ReconSpec(1),
                   **{f"2-{lim}": ReconSpec(2, lim)
                      for lim in ("minmod", "van_albada", "none")}}
FIELDS = ("central", "diss", "visc", "net")


def digest(flux_kind, diss, recon):
    """sha256 of the rhs and face fluxes of every gas, boundary set and
    state, each gas and boundary set on one held workspace."""
    grid = Grid1D(N_CELLS, 0.0, 1.0)
    prims = list(states(np.random.default_rng(0)))
    h = hashlib.sha256()
    for gas in GASES:
        for bc in sorted(BOUNDARIES):
            work = _StageWork(N_CELLS, recon, diss, gas.is_viscous)
            for prim in prims:
                rhs, faces = assemble_rhs(prim_to_cons(prim, gas), grid, gas,
                                          flux_kind, diss, recon,
                                          BOUNDARIES[bc], work)
                for a in (rhs, *(getattr(faces, f) for f in FIELDS)):
                    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def current():
    return {f"{flux}/{d}/{r}": digest(flux, DISSIPATIONS[d],
                                      RECONSTRUCTIONS[r])
            for flux in sorted(CENTRAL_FLUXES) for d in DISSIPATIONS
            for r in RECONSTRUCTIONS}


@pytest.mark.parametrize("flux_kind", sorted(CENTRAL_FLUXES))
def test_stage_matches_golden_bits(flux_kind):
    golden = json.loads(GOLDEN.read_text())
    for d, diss in DISSIPATIONS.items():
        for r, recon in RECONSTRUCTIONS.items():
            key = f"{flux_kind}/{d}/{r}"
            assert digest(flux_kind, diss, recon) == golden[key], key


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    GOLDEN.write_text(json.dumps(current(), indent=1, sort_keys=True) + "\n")
