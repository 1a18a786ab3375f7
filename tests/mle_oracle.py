"""Cholesky / L-BFGS-B maximum-likelihood fit, kept as a test oracle.

This is the reconstruction of James, Kwiat, Munro & White, PRA 64,
052312 (2001): rho = T T^dag / tr(T T^dag) with T lower triangular
(16 real parameters), so every candidate is physical by construction,
and the Poisson log-likelihood with the overall scale profiled out is
maximized by scipy's L-BFGS-B at ``ftol=1e-15``.  It shares no solver
code with :mod:`timebin.tomography`, only the record layout and the
projected linear-inversion seed.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from timebin.quantum import BASIS_LABELS, DensityMatrix2Q, _physical, measurement_operator
from timebin.tomography import linear_inversion

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


def _params_from_rho(rho: np.ndarray) -> np.ndarray:
    # Ridge keeps the Cholesky factor finite for boundary (rank-deficient)
    # seeds; the optimizer can still walk back to the boundary.
    rho = DensityMatrix2Q.from_matrix(_physical(rho)).matrix
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
    return _poisson_nll(_params_from_rho(linear_inversion(record)),
                        operators(), record.count_vector())


def oracle_fit(record, max_iter: int = 2000):
    """(rho, log-likelihood, converged) of the L-BFGS-B fit."""
    counts = record.count_vector()
    t0 = _params_from_rho(linear_inversion(record))
    res = minimize(_poisson_nll_and_grad, t0, args=(operators(), counts), jac=True,
                   method="L-BFGS-B",
                   options={"maxiter": max_iter, "ftol": 1e-15, "gtol": 1e-8})
    return _rho_from_params(res.x), -float(res.fun), bool(res.success)
