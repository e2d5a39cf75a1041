"""Regridding between the atmosphere and ocean grids.

Production couplers interpolate exchanged fields between component
grids; the paper's Millenia model coupled a (coarse) spectral atmosphere
to a different-resolution ocean.  This module provides the bilinear
regridding our coupler applies when the two bands differ in shape —
with a mean-preserving correction, since the coupler's fields (fluxes,
SST) must not gain or lose their large-scale magnitude in transit.
"""

from __future__ import annotations

import numpy as np


def regrid(field: np.ndarray, shape: tuple[int, int], *,
           preserve_mean: bool = True) -> np.ndarray:
    """Bilinearly resample a 2-D band onto ``shape``.

    ``grid_mode`` zooming treats cells as pixels covering the domain, so
    the result samples the same physical region at the new resolution.
    With ``preserve_mean`` the output is shifted so its mean equals the
    input's exactly (bilinear sampling is only approximately
    mean-preserving on coarse bands).
    """
    field = np.asarray(field, dtype=float)
    if field.ndim != 2:
        raise ValueError(f"regrid expects a 2-D band, got {field.ndim}-D")
    if field.shape == tuple(shape):
        return field.copy()
    # scipy is an optional (``test`` extra) dependency and costs ~0.25 s
    # and ~20 MB to import; only mixed-resolution coupling needs it.
    from scipy import ndimage

    factors = (shape[0] / field.shape[0], shape[1] / field.shape[1])
    out = ndimage.zoom(field, factors, order=1, grid_mode=True,
                       mode="nearest")
    # zoom's output shape is round(in * factor); force exactness.
    out = out[:shape[0], :shape[1]]
    if out.shape != tuple(shape):  # pragma: no cover - zoom undershoot
        pad = [(0, shape[0] - out.shape[0]), (0, shape[1] - out.shape[1])]
        out = np.pad(out, pad, mode="edge")
    if preserve_mean:
        out += field.mean() - out.mean()
    return out
