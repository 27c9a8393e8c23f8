"""Numpy pixel kernels for the density stage.

The threshold test uses the raw float difference frame - bg, and surviving
residuals are rounded half-to-even (np.rint), so highpass_sum equals the sum
of highpass_image for any tau >= 0.
"""

import numpy as np


def highpass_image(frame, bg, tau):
    """Thresholded residual frame - bg as uint8; values <= tau map to 0."""
    diff = frame.astype(np.float64) - bg
    out = np.where(diff > tau, np.rint(diff), 0.0)
    return out.astype(np.uint8)


def highpass_sum(frame, bg, tau):
    """Fused residual + threshold + sum; returns (density, active_pixels)."""
    diff = frame.astype(np.float64) - bg
    mask = diff > tau
    d = int(np.rint(diff[mask]).sum())
    return d, int(mask.sum())
