"""Exact two-qubit state algebra for time-bin qubits.

The two qubits are the early/late time bins of the signal and idler
photons, ordered |00>, |01>, |10>, |11> with the signal bin first.
Everything here is plain numpy on 4x4 complex matrices; all functions are
pure and safe to call from multiple threads.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BASIS_LABELS",
    "bell_phi_plus",
    "projector",
    "measurement_operator",
    "concurrence",
    "fidelity_to_pure",
    "chsh_bounds",
    "validate_density_matrix",
]

#: Single-qubit analysis bases: the two time bins and the two
#: equal-weight superpositions (0 and 90 degree interferometer settings).
BASIS_LABELS = ("Z0", "Z1", "X+", "Y+")

_SQ2 = np.sqrt(2.0)

_BASIS_KETS = {
    "Z0": np.array([1.0, 0.0], dtype=complex),
    "Z1": np.array([0.0, 1.0], dtype=complex),
    "X+": np.array([1.0, 1.0], dtype=complex) / _SQ2,
    "Y+": np.array([1.0, 1.0j], dtype=complex) / _SQ2,
}

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def bell_phi_plus() -> np.ndarray:
    """Return the maximally entangled state (|00> + |11>)/sqrt(2)."""
    return np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / _SQ2


def projector(label: str) -> np.ndarray:
    """Rank-1 single-qubit projector for one of the four analysis bases."""
    try:
        ket = _BASIS_KETS[label]
    except KeyError:
        raise ValueError(f"unknown basis label {label!r}; expected one of {BASIS_LABELS}")
    return np.outer(ket, ket.conj())


def measurement_operator(basis_s: str, basis_i: str) -> np.ndarray:
    """Tensor-product projector Pi_s (x) Pi_i for a correlation measurement.

    The result is Hermitian, idempotent and has unit trace.
    """
    return np.kron(projector(basis_s), projector(basis_i))


def validate_density_matrix(
    m: np.ndarray,
    herm_atol: float = 1e-12,
    trace_atol: float = 1e-12,
) -> None:
    """Raise ValueError unless ``m`` is a physical two-qubit density matrix.

    Checks finiteness, Hermiticity, unit trace and positivity, each to the
    given tolerance.  Eigenvalues down to -1e-9 are tolerated as
    numerical rounding; anything lower rejects the matrix.  A (..., 4, 4)
    stack passes only if every matrix in it does; the message reports the
    worst one.
    """
    m = np.asarray(m)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    if m.size == 0:
        return
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("density matrix has non-finite entries")
    herm_dev = np.max(np.abs(m - m.conj().swapaxes(-1, -2)))
    if herm_dev > herm_atol:
        raise ValueError(f"matrix is not Hermitian (max deviation {herm_dev:.3g})")
    tr = np.trace(m, axis1=-2, axis2=-1).ravel()
    worst = np.argmax(np.abs(tr - 1.0))
    if abs(tr[worst] - 1.0) > trace_atol:
        raise ValueError(f"trace {tr[worst]:.6g} is not 1 within {trace_atol:g}")
    lo = np.linalg.eigvalsh((m + m.conj().swapaxes(-1, -2)) / 2).min()
    if lo < -1e-9:
        raise ValueError(f"matrix is not positive (smallest eigenvalue {lo:.3g})")


def _physical(m: np.ndarray) -> np.ndarray:
    """Hermitize, clamp negative eigenvalues, renormalize to unit trace.

    Works on one 4x4 matrix or a (..., 4, 4) stack; a matrix whose
    clamped trace is zero comes back non-finite.
    """
    vals, vecs = np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2)
    a = (vecs * np.clip(vals, 0.0, None)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    return a / np.trace(a, axis1=-2, axis2=-1).real[..., None, None]


def _as_stack(rho):
    """One 4x4 matrix or a (..., 4, 4) stack as an (N, 4, 4) stack, checked
    loosely, and the shape of the result: () for one matrix.

    Experimental matrices reported to limited precision can miss unit
    trace by ~1e-3; metrics are evaluated on the matrices as given.
    """
    m = np.asarray(rho, dtype=complex)
    validate_density_matrix(m, herm_atol=1e-9, trace_atol=0.01)
    return m.reshape(-1, 4, 4), m.shape[:-2]


def concurrence(rho):
    """Wootters concurrence C of a two-qubit density matrix.

    C = max(0, l1 - l2 - l3 - l4) with l_i the decreasing square roots of
    the eigenvalues of rho (sy x sy) rho* (sy x sy).  The intermediate
    product is non-Hermitian, so its eigenvalues are computed directly and
    tiny negative real parts are clamped before the square root.  One 4x4
    matrix gives a float, a (..., 4, 4) stack an array of one C per matrix.
    """
    m, shape = _as_stack(rho)
    r = m @ _YY @ m.conj() @ _YY
    vals = np.linalg.eigvals(r).real
    lam = np.sort(np.sqrt(np.clip(vals, 0.0, None)), axis=-1)[..., ::-1]
    c = np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])
    return float(c[0]) if shape == () else c.reshape(shape)


def fidelity_to_pure(rho, psi: np.ndarray):
    """Overlap <psi| rho |psi> of a density matrix with a pure target.

    One 4x4 matrix gives a float, a (..., 4, 4) stack an array.
    """
    m, shape = _as_stack(rho)
    psi = np.asarray(psi, dtype=complex).reshape(4)
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-12:
        raise ValueError(f"target state is not normalized (norm {nrm:.6g})")
    # Row by row, so a matrix's fidelity does not depend on its stack.
    f = np.real(np.sum((psi.conj() @ m) * psi, axis=-1))
    return float(f[0]) if shape == () else f.reshape(shape)


def chsh_bounds(concurrence_value):
    """Range of the CHSH parameter |S| attainable at a given concurrence.

    Returns (2*sqrt(2)*C, 2*sqrt(1+C^2)): the guaranteed-achievable value
    and the ceiling over all states with concurrence C.  A violation of
    the classical bound 2 is guaranteed whenever C > 1/sqrt(2).  An array
    of concurrences gives a pair of arrays.
    """
    c = np.asarray(concurrence_value, dtype=float)
    if not np.all((0.0 <= c) & (c <= 1.0)):
        raise ValueError(f"concurrence must lie in [0, 1], got {concurrence_value}")
    return 2.0 * np.sqrt(2.0) * c, 2.0 * np.sqrt(1.0 + c * c)
