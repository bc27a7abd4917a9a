"""Interface-state reconstruction: first order or MUSCL with slope limiting.

Reconstruction acts on the stacked primitive variables (rho, u, p) of a
row of cells; a face state whose density or pressure would leave the
physical region falls back to the first-order cell value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .thermo import _HALF, _ZERO, _calls, _const, _run, _Scratch

__all__ = ["ReconSpec", "minmod", "van_albada", "reconstruct_face"]

VAN_ALBADA_EPS = 1.0e-12
_EPS, _TWO_EPS = _const(VAN_ALBADA_EPS), _const(2.0 * VAN_ALBADA_EPS)

LIMITERS = ("minmod", "van_albada", "none")


@dataclass(frozen=True)
class ReconSpec:
    order: int = 1
    limiter: str = "minmod"

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ValueError("recon_order must be 1 or 2")
        if self.limiter not in LIMITERS:
            raise ValueError(f"unknown limiter {self.limiter!r}")


def minmod(a, b):
    """Zero on sign disagreement, else the smaller-magnitude argument."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    _run(_minmod_calls(a, b, np.abs(a), np.abs(b), out, np.empty(out.shape)))
    return out


def _minmod_calls(a, b, abs_a, abs_b, out, t):
    """The calls that form minmod of a and b, with their magnitudes
    given, into out; t is a temporary of out's shape.

    min(|a|, |b|) is kept where a b > 0 and cleared elsewhere by a product
    with sign(a b) and a max with +0 (a NaN sign or product clears too);
    then it takes a's sign, which is b's where it is kept, and + 0 turns
    the -0 of a cleared entry into +0.  No step branches per entry.
    """
    return [(partial(np.minimum, out=out), abs_a, abs_b),
            (np.multiply, a, b, t), (np.sign, t, t),
            (np.multiply, out, t, out), (np.fmax, out, _ZERO, out),
            (np.copysign, out, a, out), (np.add, out, _ZERO, out)]


def van_albada(a, b):
    """Smooth limiter (a^2 b + b^2 a + eps (a+b)) / (a^2 + b^2 + 2 eps)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    _run(_van_albada_calls(a, b, out, np.empty(out.shape),
                           np.empty(out.shape)))
    return out


def _van_albada_calls(a, b, out, t1, t2):
    """The calls that form van_albada of a and b into out, with two
    temporaries of its shape."""
    return [(np.multiply, a, a, out), (np.multiply, out, b, out),
            (np.multiply, b, b, t1), (np.multiply, t1, a, t1),
            (np.add, out, t1, out), (np.add, a, b, t1),
            (np.multiply, _EPS, t1, t1), (np.add, out, t1, out),
            (np.multiply, a, a, t1), (np.multiply, b, b, t2),
            (np.add, t1, t2, t1), (np.add, t1, _TWO_EPS, t1),
            (np.divide, out, t1, out)]


def _recon_work(cells, spec: ReconSpec, out, scratch):
    """reconstruct_face's work at order 2 for the stacked cells and the
    (2,) + face-shaped out: the calls, with the jumps, the half slopes
    and the limiter's temporaries from scratch, then what the positivity
    fallback reads: out's two sides, the cells left and right of each
    face, and out's rho and p rows."""
    jump = scratch.take(*cells.shape[:-1], cells.shape[-1] - 1)
    half = scratch.take(*cells.shape[:-1], cells.shape[-1] - 2)
    back, fwd = jump[..., :-1], jump[..., 1:]
    calls = [(np.subtract, cells[..., 1:], cells[..., :-1], jump)]
    # the limited slopes of the cells between consecutive jumps; minmod
    # takes |jump| once for both sides
    if spec.limiter == "minmod":
        size = scratch.take(*jump.shape)
        calls += [(np.abs, jump, size)] + _minmod_calls(
            back, fwd, size[..., :-1], size[..., 1:], half,
            scratch.take(*half.shape))
    elif spec.limiter == "van_albada":
        calls += _van_albada_calls(back, fwd, half, scratch.take(*half.shape),
                                   scratch.take(*half.shape))
    else:
        calls += [(np.add, back, fwd, half), (np.multiply, half, _HALF, half)]
    left, right = out[0], out[1]
    f0, f1 = cells[..., 1:-2], cells[..., 2:-1]
    calls += [(np.multiply, half, _HALF, half),
              (np.add, f0, half[..., :-1], left),
              (np.subtract, f1, half[..., 1:], right)]
    return _calls(calls), left, right, f0, f1, out[:, ::2]


def reconstruct_face(cells, spec: ReconSpec, work=None):
    """Left and right states of the faces of the stacked (rho, u, p) of m
    cells along the last axis, each stacked like cells with m - 3 faces
    along that axis.

    Face j + 1/2 lies between cells j and j + 1, j = 1 .. m - 3, and reads
    the stencil (q_{j-1}, q_j, q_{j+1}, q_{j+2}).  Order 1 returns the
    adjacent cell states; order 2 extrapolates q_j + slope/2 and
    q_{j+1} - slope/2 with limited slopes, reverting a side to first order
    wherever rho or p would become non-positive.  Each cell's half slope
    is formed once and read by both of its faces.  work, when given, is
    _recon_work's for these cells and a (2,) + face-shaped out, whose
    out[0] and out[1] take the order-2 sides and are returned (the
    stage's out is rows 0, 2 and 4 of its record's pair block); without
    it the sides are a new array's.
    """
    if spec.order == 1:
        return cells[..., 1:-2], cells[..., 2:-1]
    if work is None:
        work = _recon_work(cells, spec, np.empty((2,) + cells[..., 3:].shape),
                           _Scratch())
    calls, left, right, f0, f1, rho_p = work
    for f, a in calls:
        f(*a)
    # a side whose rho or p would not be positive reverts to first order;
    # the min is not > 0 on any such side (or on a NaN)
    if not np.minimum.reduce(rho_p, None) > 0.0:
        for face, cell in ((left, f0), (right, f1)):
            np.copyto(face, cell, where=(face[0] <= 0.0) | (face[2] <= 0.0))
    return left, right
