"""Pointwise references for what helikon.mesh computes on whole arrays.

The mesh takes its vertex normals from g and its edge lengths from the
conformal factor in batches; the tests compare them with these one-point
formulas.
"""

import math

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
