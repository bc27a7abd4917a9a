"""Interface-state reconstruction: first order or MUSCL with slope limiting.

Reconstruction acts on the stacked primitive variables (rho, u, p) of a
row of cells; a face state whose density or pressure would leave the
physical region falls back to the first-order cell value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .thermo import _HALF, _ZERO, _const

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
    return _minmod(a, b, np.abs(a), np.abs(b))


def _minmod(a, b, abs_a, abs_b):
    # the single-where form in one buffer: where the signs agree, the
    # smaller magnitude takes a's sign, which is b's too
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    np.minimum(abs_a, abs_b, out=out)
    np.copysign(out, a, out=out)
    np.copyto(out, _ZERO, where=~(a * b > _ZERO))
    return out


def van_albada(a, b):
    """Smooth limiter (a^2 b + b^2 a + eps (a+b)) / (a^2 + b^2 + 2 eps)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return ((a * a * b + b * b * a + _EPS * (a + b))
            / (a * a + b * b + _TWO_EPS))


def _limited_slope(jump, limiter):
    """The limited slopes of the cells between consecutive jumps along the
    last axis, a new array; minmod takes |jump| once for both sides."""
    back, fwd = jump[..., :-1], jump[..., 1:]
    if limiter == "minmod":
        size = np.abs(jump)
        return _minmod(back, fwd, size[..., :-1], size[..., 1:])
    if limiter == "van_albada":
        return van_albada(back, fwd)
    return _HALF * (back + fwd)


def reconstruct_face(cells, spec: ReconSpec, out=None):
    """Left and right states of the faces of the stacked (rho, u, p) of m
    cells along the last axis, each stacked like cells with m - 3 faces
    along that axis.

    Face j + 1/2 lies between cells j and j + 1, j = 1 .. m - 3, and reads
    the stencil (q_{j-1}, q_j, q_{j+1}, q_{j+2}).  Order 1 returns the
    adjacent cell states; order 2 extrapolates q_j + slope/2 and
    q_{j+1} - slope/2 with limited slopes, reverting a side to first order
    wherever rho or p would become non-positive.  Each cell's half slope
    is formed once and read by both of its faces.  out, when given, is a
    (2,) + face-shaped array that takes the order-2 sides, out[0] and
    out[1], which are returned (the stage passes rows 0, 2 and 4 of its
    record's pair block).
    """
    f0, f1 = cells[..., 1:-2], cells[..., 2:-1]
    if spec.order == 1:
        return f0, f1
    half = _limited_slope(cells[..., 1:] - cells[..., :-1], spec.limiter)
    half *= _HALF
    if out is None:
        out = np.empty((2,) + f0.shape)
    left, right = out[0], out[1]
    np.add(f0, half[..., :-1], left)
    np.subtract(f1, half[..., 1:], right)
    # a side whose rho or p would not be positive reverts to first order;
    # the min is not > 0 on any such side (or on a NaN)
    if not out[:, ::2].min() > 0.0:
        for face, cell in ((left, f0), (right, f1)):
            np.copyto(face, cell, where=(face[0] <= 0.0) | (face[2] <= 0.0))
    return left, right
