"""Generalized Wong sequences and their limits for a tuple (E, A, B, C).

The sequences

    V^0 = ker C,   V^{i+1} = A^{-1}(E V^i + im B) ∩ ker C
    W^0 = {0},     W^{i+1} = E^{-1}(A W^i + im B) ∩ ker C

stabilize after at most n steps (n = ambient state dimension).  Both are
one recursion, S^{i+1} = M^{-1}(N S^i + im B) ∩ ker C, run by one helper:
V is its chain for (M, N) = (A, E) started at ker C, W its chain for
(E, A) started at {0}.  Callers that need only W* (impulse observability)
run only the W chain.  B may have zero columns and C zero rows, which
encodes the degenerate tuples such as W*_{[E,A,0,C]} with a single code
path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionMismatchError
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    _apply_map,
    _preimage,
    _scale,
    as_matrix,
    contains,
    image,
    intersect,
    kernel,
    subspace_sum,
)


@dataclass(frozen=True)
class WongLimits:
    V_star: Subspace
    W_star: Subspace
    V_chain: list[Subspace] = field(repr=False)
    W_chain: list[Subspace] = field(repr=False)


def _stabilized(prev: Subspace, cur: Subspace) -> bool:
    # Dimension equality alone is not enough under tolerance-induced basis
    # drift; require containment both ways.
    return prev.dim == cur.dim and contains(prev, cur) and contains(cur, prev)


def _tuple(E, A, B, C, tol: Tolerance):
    """Validated (E, A) with im B and ker C; B, C may be None (no columns / rows)."""
    E = as_matrix(E)
    A = as_matrix(A, rows=E.shape[0], cols=E.shape[1])
    B = np.zeros((E.shape[0], 0)) if B is None else as_matrix(B, rows=E.shape[0])
    C = np.zeros((0, E.shape[1])) if C is None else as_matrix(C, cols=E.shape[1])
    return E, A, image(B, tol), kernel(C, tol)


def _chain(pre, fwd, start: Subspace, im_B: Subspace, ker_C: Subspace,
           tol: Tolerance) -> list[Subspace]:
    """S^0 = start, S^{i+1} = pre^{-1}(fwd S^i + im B) ∩ ker C, until stable.

    pre and fwd are the validated (E, A) of ``_tuple``, so their scales are
    taken once per chain.
    """
    pre_scale, fwd_scale = _scale(pre), _scale(fwd)
    chain = [start]
    for _ in range(pre.shape[1] + 1):
        prev = chain[-1]
        nxt = intersect(
            _preimage(pre, subspace_sum(_apply_map(fwd, prev, tol, fwd_scale),
                                        im_B, tol), tol, pre_scale),
            ker_C, tol)
        chain.append(nxt)
        if _stabilized(prev, nxt):
            break
    return chain


def wong_limits(E, A, B=None, C=None, tol: Tolerance = DEFAULT_TOL) -> WongLimits:
    """Chains and limits of the generalized Wong sequences for {E, A, B, C}."""
    E, A, im_B, ker_C = _tuple(E, A, B, C, tol)
    V_chain = _chain(A, E, ker_C, im_B, ker_C, tol)
    W_chain = _chain(E, A, Subspace.zero(E.shape[1]), im_B, ker_C, tol)
    return WongLimits(V_chain[-1], W_chain[-1], V_chain, W_chain)


def _W_star(E, A, C, tol: Tolerance) -> Subspace:
    """``wong_limits(E, A, None, C, tol).W_star``, without the V chain."""
    E, A, im_B, ker_C = _tuple(E, A, None, C, tol)
    return _chain(E, A, Subspace.zero(E.shape[1]), im_B, ker_C, tol)[-1]


def wong_V_at(E, A, B, C, step: int, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """The subspace V^step of the V-chain (chain held constant once stabilized)."""
    if step < 0:
        raise DimensionMismatchError("step must be >= 0")
    chain = wong_limits(E, A, B, C, tol).V_chain
    return chain[step] if step < len(chain) else chain[-1]
