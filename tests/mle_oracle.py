"""Cholesky / L-BFGS-B maximum-likelihood fit, kept as a test oracle.

This is the reconstruction of James, Kwiat, Munro & White, PRA 64,
052312 (2001): rho = T T^dag / tr(T T^dag) with T lower triangular
(16 real parameters), so every candidate is physical by construction,
and the Poisson log-likelihood with the overall scale profiled out is
maximized by scipy's L-BFGS-B at ``ftol=1e-15``.  Its seed is its own
least-squares solve of the 16 Born equations, projected onto the states.
It shares no code with :mod:`timebin.tomography`, only the record layout
and the measurement operators.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from timebin.quantum import BASIS_LABELS, measurement_operator

_TRIL = [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]


def operators() -> np.ndarray:
    return np.stack([measurement_operator(a, b)
                     for a in BASIS_LABELS for b in BASIS_LABELS])


def _t_matrix(t: np.ndarray) -> np.ndarray:
    T = np.zeros((4, 4), dtype=complex)
    T[np.diag_indices(4)] = t[:4]
    for k, (r, c) in enumerate(_TRIL):
        T[r, c] = t[4 + 2 * k] + 1j * t[5 + 2 * k]
    return T


def _rho_from_params(t: np.ndarray) -> np.ndarray:
    T = _t_matrix(t)
    rho = T @ T.conj().T
    tr = np.trace(rho).real
    if tr <= 0:
        return np.eye(4, dtype=complex) / 4.0
    return rho / tr


def _hermitian_basis() -> np.ndarray:
    """16 Hermitian 4x4 matrices spanning the Hermitian ones: E_jj,
    E_jk + E_kj and i(E_jk - E_kj) for j < k."""
    basis = []
    for j in range(4):
        for k in range(j, 4):
            e = np.zeros((4, 4), dtype=complex)
            e[j, k] = 1.0
            basis.append(e + e.T if j < k else e)
            if j < k:
                basis.append(1j * (e - e.T))
    return np.stack(basis)


def seed_rho(record) -> np.ndarray:
    """The least-squares solution X of tr(X Pi_k) = n_k projected onto the
    states: negative eigenvalues of X set to zero, then scaled to unit
    trace.  An X with no positive eigenvalue gives the maximally mixed
    state."""
    basis = _hermitian_basis()
    design = np.einsum("kij,lji->kl", operators(), basis).real
    coords = np.linalg.lstsq(design, record.count_vector(), rcond=None)[0]
    x = np.einsum("l,lij->ij", coords, basis)
    vals, vecs = np.linalg.eigh(x)
    vals = np.clip(vals, 0.0, None)
    if vals.sum() <= 0:
        return np.eye(4, dtype=complex) / 4.0
    return (vecs * (vals / vals.sum())) @ vecs.conj().T


def _params_from_rho(rho: np.ndarray) -> np.ndarray:
    # Ridge keeps the Cholesky factor finite for boundary (rank-deficient)
    # seeds; the optimizer can still walk back to the boundary.
    rho = 0.999 * rho + 0.001 * np.eye(4) / 4.0
    T = np.linalg.cholesky(rho)
    t = np.zeros(16)
    t[:4] = np.real(np.diag(T))
    for k, (r, c) in enumerate(_TRIL):
        t[4 + 2 * k] = T[r, c].real
        t[5 + 2 * k] = T[r, c].imag
    return t


def _poisson_nll(t, ops, counts):
    rho = _rho_from_params(t)
    p = np.einsum("kij,ji->k", ops, rho).real
    p = np.clip(p, 1e-12, None)
    scale = counts.sum() / p.sum()
    mean = scale * p
    return -float(np.sum(counts * np.log(mean) - mean))


def _poisson_nll_and_grad(t, ops, counts):
    """Objective plus its analytic gradient in the 16 Cholesky parameters.

    With the scale profiled out the objective is
    -sum(n_k log p_k) + C log(sum p_k) + const, so the Hermitian gradient
    with respect to rho is sum_k (C/P - n_k/p_k) Pi_k, mapped back through
    rho = T T^dag / tr and the triangular layout of T.
    """
    T = _t_matrix(t)
    a_mat = T @ T.conj().T
    tr = np.trace(a_mat).real
    if tr <= 0:
        return _poisson_nll(t, ops, counts), np.zeros_like(t)
    rho = a_mat / tr
    p_raw = np.einsum("kij,ji->k", ops, rho).real
    p = np.clip(p_raw, 1e-12, None)
    total = counts.sum()
    psum = p.sum()
    nll = -float(np.sum(counts * np.log(total / psum * p) - total / psum * p))

    w = np.where(p_raw > 1e-12, total / psum - counts / p, 0.0)
    h0 = np.einsum("k,kij->ij", w, ops)
    h = (h0 - np.trace(h0 @ rho).real * np.eye(4)) / tr
    m = 2.0 * (h @ T)
    grad = np.zeros_like(t)
    grad[:4] = np.real(np.diag(m))
    for k, (r, c) in enumerate(_TRIL):
        grad[4 + 2 * k] = m[r, c].real
        grad[5 + 2 * k] = m[r, c].imag
    return nll, grad


def seed_nll(record) -> float:
    """Profiled negative log-likelihood of the fit's starting point."""
    return _poisson_nll(_params_from_rho(seed_rho(record)), operators(), record.count_vector())


def oracle_fit(record, max_iter: int = 2000):
    """(rho, log-likelihood, converged) of the L-BFGS-B fit."""
    counts = record.count_vector()
    t0 = _params_from_rho(seed_rho(record))
    res = minimize(_poisson_nll_and_grad, t0, args=(operators(), counts), jac=True,
                   method="L-BFGS-B",
                   options={"maxiter": max_iter, "ftol": 1e-15, "gtol": 1e-8})
    return _rho_from_params(res.x), -float(res.fun), bool(res.success)
