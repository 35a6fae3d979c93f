"""Knee detection with the L-method (Salvador & Chan [27]).

The timer-gap detector (paper section IV-B, Figure 17) sorts the
sender-idle gap lengths and looks for the knee of the resulting curve:
the plateau before the knee is the repeating implementation timer, the
tail after it is everything else.  The L-method fits two straight lines
to the curve and picks the split minimizing the weighted total RMSE.
"""

from __future__ import annotations

import math


def _as_integers(values: list[float]) -> tuple[list[int], int]:
    """``values`` as exact integers over a common power-of-two scale.

    Every finite float is ``p / 2**k`` exactly, so multiplying by the
    largest denominator turns the curve into integers without rounding.
    """
    if all(type(v) is int for v in values):
        return list(values), 1
    ratios = []
    for v in values:
        if isinstance(v, int):
            ratios.append((v, 1))
            continue
        f = float(v)
        if not math.isfinite(f):
            raise ValueError(f"l_method_knee needs finite values, got {v!r}")
        ratios.append(f.as_integer_ratio())
    scale = max(d for _, d in ratios)
    return [p * (scale // d) for p, d in ratios], scale


def _segment_mse(
    m: int, sx: int, sy: int, sxx: int, sxy: int, syy: int, scale_sq: int
) -> float:
    """Mean squared residual of the least-squares line through m points.

    From the segment's sums: ``SSE/m = (dyy·dxx − dxy²) / (m²·dxx)``,
    all in exact integers until the one division.
    """
    dxx = m * sxx - sx * sx
    dxy = m * sxy - sx * sy
    dyy = m * syy - sy * sy
    return (dyy * dxx - dxy * dxy) / (m * m * dxx * scale_sq)


def l_method_knee(values: list[float]) -> int | None:
    """Index of the knee of a sorted curve, or None if degenerate.

    ``values`` are the y-coordinates of a monotone curve sampled at
    x = 0, 1, 2, ...; the returned index is the last point of the first
    (left) segment.  The first split with the smallest weighted total
    RMSE wins.

    One O(n) pass: running integer sums of x, y, x², xy and y² give
    every prefix's line fit, and total minus prefix gives the suffix's.
    The residuals are exact integer arithmetic (floats are first scaled
    to integers exactly); only the final division, square root and
    weighting round.  Raises ValueError on NaN or infinite values.
    """
    ys, scale = _as_integers(values)
    n = len(ys)
    if n < 4:
        return None
    scale_sq = scale * scale
    tot_x = n * (n - 1) // 2
    tot_y = sum(ys)
    tot_xx = (n - 1) * n * (2 * n - 1) // 6
    tot_xy = sum(x * y for x, y in enumerate(ys))
    tot_yy = sum(y * y for y in ys)
    # Sums over the prefix 0..c, starting from c = 0 (x = 0 adds nothing).
    sx, sy, sxx, sxy, syy = 0, ys[0], 0, 0, ys[0] * ys[0]
    best_index = None
    best_error = math.inf
    for c in range(1, n - 2):
        y = ys[c]
        sx += c
        sy += y
        sxx += c * c
        sxy += c * y
        syy += y * y
        left_rmse = math.sqrt(
            _segment_mse(c + 1, sx, sy, sxx, sxy, syy, scale_sq)
        )
        right_rmse = math.sqrt(_segment_mse(
            n - c - 1, tot_x - sx, tot_y - sy, tot_xx - sxx,
            tot_xy - sxy, tot_yy - syy, scale_sq,
        ))
        weight_left = (c + 1) / n
        total = weight_left * left_rmse + (1 - weight_left) * right_rmse
        if total < best_error:
            best_error = total
            best_index = c
    return best_index


def plateau_value(
    sorted_values: list[float], knee_index: int | None
) -> float | None:
    """The representative (median) value of the pre-knee plateau."""
    if knee_index is None or knee_index < 0:
        return None
    plateau = sorted_values[: knee_index + 1]
    if not plateau:
        return None
    mid = len(plateau) // 2
    if len(plateau) % 2:
        return plateau[mid]
    return (plateau[mid - 1] + plateau[mid]) / 2
