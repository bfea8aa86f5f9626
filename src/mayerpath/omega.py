"""Invariant-path spaces Omega_n^{N,q} and their intersection Omega_n^N."""

from __future__ import annotations

from dataclasses import dataclass

from .boundary import apply_regular_power, boundary_power_matrix
from .complexes import PathComplex
from .cyclotomic import Scalar
from .linalg import Matrix, Subspace, nullspace


@dataclass
class OmegaSpace:
    n: int
    order: int
    q: int | None  # None means the intersection over all valid q
    space: Subspace


def omega_nq(P: PathComplex, n: int, q: int, N: int) -> OmegaSpace:
    """Allowed n-chains whose q-th boundary power stays allowed.

    Computed as the nullspace of the non-allowed row block of the q-th
    boundary power matrix.  For q >= n the image lives in dimension <= 0
    where every regular path is allowed, so the space is all of the
    allowed span.
    """
    if N < 2 or not 1 <= q <= N - 1:
        raise ValueError("need N >= 2 and 1 <= q <= N-1")
    key = ("omega_nq", n, q, N)
    cached = P._memo.get(key)
    if cached is not None:
        return cached
    ambient = len(P.paths(n))
    if q >= n:
        space = Subspace.full_space(ambient, N)
    else:
        block = boundary_power_matrix(P, n, q, N).nonallowed_block()
        if block.rows == 0:
            space = Subspace.full_space(ambient, N)
        else:
            space = nullspace(block)
    result = OmegaSpace(n, N, q, space)
    P._memo[key] = result
    return result


def omega_full(P: PathComplex, n: int, N: int) -> OmegaSpace:
    """Intersection of omega_nq over q = 1 .. min(N-1, n-1).

    One nullspace of the stacked non-allowed row blocks of d^1 .. d^k,
    k = min(N-1, n-1): a chain lies in every omega_nq exactly when it
    satisfies all of their constraints at once.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    key = ("omega_full", n, N)
    cached = P._memo.get(key)
    if cached is not None:
        return cached
    ambient = len(P.paths(n))
    rows = [row for q in range(1, min(N - 1, n - 1) + 1)
            for row in boundary_power_matrix(P, n, q, N).nonallowed_block().row_dicts()]
    if rows:
        space = nullspace(Matrix.from_row_dicts(rows, ambient, N))
    else:
        space = Subspace.full_space(ambient, N)
    result = OmegaSpace(n, N, None, space)
    P._memo[key] = result
    return result


def _basis_chains(P: PathComplex, space: Subspace, n: int):
    paths = P.paths(n)
    for row in space.basis:
        yield {paths[i]: c for i, c in enumerate(row) if c}


def verify_chain_closure(P: PathComplex, N: int, n: int) -> bool:
    """Is the boundary image of Omega_n^N contained in Omega_{n-1}^N?"""
    if n < 1:
        raise ValueError("need n >= 1")
    target = omega_full(P, n - 1, N).space
    lower = P.paths(n - 1)
    lower_index = {p: i for i, p in enumerate(lower)}
    zero = Scalar.zero(N)
    for chain in _basis_chains(P, omega_full(P, n, N).space, n):
        image = apply_regular_power(chain, 1, N)
        if any(p not in lower_index for p in image):
            return False
        vec = [zero] * len(lower)
        for p, c in image.items():
            vec[lower_index[p]] = c
        if not target.contains(vec):
            return False
    return True


def omega_nilpotency(P: PathComplex, N: int, n_max: int) -> bool:
    """Does the N-th boundary power vanish on Omega_n^N for all n <= n_max?

    This is the nilpotency of the actual N-chain complex the homology is
    built on.  It holds whenever no allowed path revisits a vertex two
    steps later (in particular for all digraphs without antiparallel edge
    pairs and for simplicial complexes).
    """
    for n in range(n_max + 1):
        for chain in _basis_chains(P, omega_full(P, n, N).space, n):
            if apply_regular_power(chain, N, N):
                return False
    return True
