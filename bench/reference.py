"""Brute-force pseudoinverse reference for the sparse solvers.

Independent of ``framelab.sparse``: each candidate support is fitted with
``numpy.linalg.pinv`` instead of ``lstsq``, and the candidate order is built
here.  The reference stops at the first objective value that has a fitting
support, after scoring every support of that value, so it returns the same
(support, unique) decision the solvers document without visiting all 2^n
supports.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def _fits(cols: np.ndarray, support: tuple[int, ...], target: np.ndarray, tol: float) -> bool:
    sub = cols[:, list(support)]
    if sub.shape[1] == 0:
        return float(np.linalg.norm(target)) <= tol
    coeff = np.linalg.pinv(sub) @ target
    return float(np.linalg.norm(sub @ coeff - target)) <= tol


def _first_level(levels, cols, target, tol):
    """Walk groups of supports of equal objective; return (support, unique)
    for the first group holding a fit, or (None, False)."""
    for group in levels:
        fitting = [s for s in group if _fits(cols, s, target, tol)]
        if fitting:
            return fitting[0], len(fitting) == 1
    return None, False


def reference_solve(frame, target: np.ndarray, tol: float, mode: str):
    """(support, unique) of the count-minimal ("l0") or weight-minimal
    ("measure") exact representation; support is None when infeasible."""
    n = frame.n_atoms
    cols = (frame.space.weights[:, None] * frame.vectors).T
    if mode == "l0":
        levels = ([s for s in itertools.combinations(range(n), k)] for k in range(n + 1))
    else:
        w = frame.space.weights
        scored = sorted(
            (math.fsum(w[list(s)]), len(s), s)
            for k in range(n + 1)
            for s in itertools.combinations(range(n), k)
        )
        levels = ([s for _, _, s in grp] for _, grp in itertools.groupby(scored, key=lambda t: t[0]))
    return _first_level(levels, cols, target, tol)
