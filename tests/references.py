"""Pointwise references for what helikon.mesh computes on whole arrays.

The mesh takes its vertex normals from g and its edge lengths from the
conformal factor in batches, and builds its spanning tree a level at a
time; the tests compare them with these one-point formulas and with a
vertex-by-vertex walk.
"""

import math
from collections import deque

import numpy as np

from helikon.errors import PoleAt
from helikon.expr import eval_expr


def gauss_normal(data, p):
    """Unit normal as the inverse stereographic image of g(p)."""
    try:
        gv = eval_expr(data.g, p)
    except PoleAt:
        return np.array([0.0, 0.0, 1.0])
    # |g| > 1e8 is the north pole (|g|^2 > 1e16); tested before squaring,
    # which overflows for |g| above about 1.3e154; nan fails it too
    if not abs(gv) <= 1e8:
        return np.array([0.0, 0.0, 1.0])
    m2 = abs(gv) ** 2
    return np.array([2.0 * gv.real, 2.0 * gv.imag, m2 - 1.0]) / (m2 + 1.0)


def conformal_factor(data, p):
    """Pointwise conformal metric factor (|g| + 1/|g|) |dh| / 2."""
    h = abs(eval_expr(data.dh.coeff, p))
    try:
        m = abs(eval_expr(data.g, p))
    except PoleAt:
        return math.inf
    if m == 0:
        return math.inf if h > 0 else 0.0
    return 0.5 * (m + 1.0 / m) * h


def breadth_first_tree(spec, basepoint):
    """The mesh's spanning tree, walked one vertex at a time from the
    included grid vertex nearest basepoint, each vertex's neighbours in the
    order +i, -i, +j, -j: (child, parent, depth) lists in breadth-first
    order, over the vertices it reaches."""
    mask = spec.inclusion_mask()
    index = -np.ones(mask.shape, dtype=int)
    index[mask] = np.arange(np.count_nonzero(mask))
    points = spec.grid_points()[mask]
    root = int(np.argmin(np.abs(points - basepoint)))
    root_ij = tuple(np.argwhere(mask)[root].tolist())
    child, parent, depth = [root], [-1], [0]
    seen = {root_ij}
    q = deque([(root_ij, 0)])
    while q:
        (i, j), d = q.popleft()
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            a, b = i + di, j + dj
            if (
                0 <= a < spec.nx and 0 <= b < spec.ny
                and mask[a, b] and (a, b) not in seen
            ):
                seen.add((a, b))
                q.append(((a, b), d + 1))
                child.append(index[a, b])
                parent.append(index[i, j])
                depth.append(d + 1)
    return child, parent, depth
