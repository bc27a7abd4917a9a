"""Interface-state reconstruction: first order or MUSCL with slope limiting.

Reconstruction acts on the stacked primitive variables (rho, u, p) of a
row of cells; a face state whose density or pressure would leave the
physical region falls back to the first-order cell value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .record import empty, run

__all__ = ["ReconSpec", "minmod", "van_albada", "reconstruct_face"]

VAN_ALBADA_EPS = 1.0e-12

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
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return _minmod(a, b, np.abs(a), np.abs(b))


def _minmod(a, b, abs_a, abs_b):
    """minmod of a and b, with their magnitudes given.

    min(|a|, |b|) is kept where a b > 0 and cleared elsewhere by a product
    with sign(a b) and a max with +0 (a NaN sign or product clears too);
    then it takes a's sign, which is b's where it is kept, and + 0 turns
    the -0 of a cleared entry into +0.  No step branches per entry.
    """
    return np.copysign(np.fmax(np.minimum(abs_a, abs_b) * np.sign(a * b), 0),
                       a) + 0


def van_albada(a, b):
    """Smooth limiter (a^2 b + b^2 a + eps (a+b)) / (a^2 + b^2 + 2 eps)."""
    return _van_albada(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def _van_albada(a, b):
    eps = VAN_ALBADA_EPS
    return ((a * a * b + b * b * a + eps * (a + b))
            / (a * a + b * b + 2 * eps))


def _reconstruct(cells, spec: ReconSpec, out=None):
    """reconstruct_face's formula at order 2 for the stacked cells, into
    the (2,) + face-shaped out (new unless given): the jumps, each cell's
    limited half slope, then the two sides."""
    if out is None:
        out = empty(2, *cells.shape[:-1], cells.shape[-1] - 3)
    jump = cells[..., 1:] - cells[..., :-1]
    back, fwd = jump[..., :-1], jump[..., 1:]
    # the limited slopes of the cells between consecutive jumps; minmod
    # takes |jump| once for both sides
    if spec.limiter == "minmod":
        size = abs(jump)
        half = _minmod(back, fwd, size[..., :-1], size[..., 1:])
    elif spec.limiter == "van_albada":
        half = _van_albada(back, fwd)
    else:
        half = (back + fwd) * 0.5
    half *= 0.5
    out[0] = cells[..., 1:-2] + half[..., :-1]
    out[1] = cells[..., 2:-1] - half[..., 1:]
    return out


def reconstruct_face(cells, spec: ReconSpec, work=None):
    """Left and right states of the faces of the stacked (rho, u, p) of m
    cells along the last axis, each stacked like cells with m - 3 faces
    along that axis.

    Face j + 1/2 lies between cells j and j + 1, j = 1 .. m - 3, and reads
    the stencil (q_{j-1}, q_j, q_{j+1}, q_{j+2}).  Order 1 returns the
    adjacent cell states; order 2 extrapolates q_j + slope/2 and
    q_{j+1} - slope/2 with limited slopes, reverting a side to first order
    wherever rho or p would become non-positive.  Each cell's half slope
    is formed once and read by both of its faces.  work, as record.run
    takes it, is for the (2,) + face-shaped array whose [0] and [1] take
    the order-2 sides (the stage's: rows 0, 2 and 4 of its record's pair
    block); without it the sides are a new array's.
    """
    if spec.order == 1:
        return cells[..., 1:-2], cells[..., 2:-1]
    out = run(work, _reconstruct, cells, spec)
    left, right = out[0], out[1]
    # a side whose rho or p would not be positive reverts to first order;
    # the min is not > 0 on any such side (or on a NaN)
    if not np.minimum.reduce(out[:, ::2], None) > 0.0:
        for face, cell in ((left, cells[..., 1:-2]), (right, cells[..., 2:-1])):
            np.copyto(face, cell, where=(face[0] <= 0.0) | (face[2] <= 0.0))
    return left, right
