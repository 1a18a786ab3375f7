"""Two-qubit state reconstruction from coincidence counts.

Sixteen correlation measurements between the bases {Z0, Z1, X+, Y+} on
each arm are assembled from four interferometer phase settings (the
calibrated 0/90-degree dials on signal and idler) and reconstructed by
maximum likelihood; error bars come from Monte-Carlo resampling of the
counts.

The maximum-likelihood fit is one numpy solver over a stack of R count
vectors, so a bootstrap fits all its replicas in one call.  It minimizes
the convex extended-Poisson objective

    f(A) = sum_k tr(A Pi_k) - n_k log tr(A Pi_k)

over unnormalized positive semidefinite 4x4 matrices A; the minimizer
scaled to unit trace is the state that maximizes the Poisson likelihood
with its overall rate profiled out.  The iteration is a log-det barrier
method: damped Newton steps in the 16 Pauli coordinates of A, batched
over the stack (a (R, 16, 16) solve per step), which need a few tens of
iterations even for near-pure states at the boundary of the positive
cone, where first-order methods such as accelerated projected gradient
take thousands.  It stops when a duality-gap certificate bounds the
log-likelihood still to be gained below ``MLE_TOL`` nats (see :func:`mle_batch`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import quantum, whole_count
from .quantum import BASIS_LABELS, _physical, measurement_operator

__all__ = [
    "SETTINGS",
    "CELLS",
    "MeasurementRecord",
    "TomographyResult",
    "counts_from_phase_settings",
    "setting_phases",
    "linear_inversion",
    "MleBatch",
    "mle_batch",
    "mle_reconstruct",
    "bootstrap_errors",
]

#: The four (signal dial, idler dial) settings in degrees; 0 selects the
#: X+ analysis basis on that arm, 90 selects Y+.
SETTINGS = ((0, 0), (0, 90), (90, 0), (90, 90))

_DIAL_BASIS = {0: "X+", 90: "Y+"}


def setting_phases(dial_s: int, dial_i: int) -> tuple[float, float]:
    """Raw interferometer phases (phi_s, phi_i) realizing a dial setting.

    Dials are calibrated so that (0, 0) sits on the coincidence-fringe
    maximum of the target state; with the fringe law
    1 - V cos(phi_s + phi_i - phi_p) and phi_p = 0 this places the signal
    phase at pi plus the dial.  Under that convention both arms project
    onto X+ (dial 0) or Y+ (dial 90) in the central slot.
    """
    if dial_s not in _DIAL_BASIS or dial_i not in _DIAL_BASIS:
        raise ValueError(f"dials must be 0 or 90 degrees, got {(dial_s, dial_i)}")
    return np.pi + np.deg2rad(dial_s), np.deg2rad(dial_i)


#: The 16 (signal basis, idler basis) cells of a record, in record order.
CELLS = tuple((a, b) for a in BASIS_LABELS for b in BASIS_LABELS)

# The cell each (setting, signal slot, idler slot) counts toward: slot 0
# measures Z0, slot 2 Z1 and the central slot the dial's basis.
_SLOT_CELL = np.array([[[CELLS.index((a, b)) for b in ("Z0", _DIAL_BASIS[dial_i], "Z1")]
                        for a in ("Z0", _DIAL_BASIS[dial_s], "Z1")]
                       for dial_s, dial_i in SETTINGS])


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """The 16 tomography counts.

    ``counts`` holds one whole count from 0 to 2^53 per cell of
    :data:`CELLS`, in that order; the record keeps them as a read-only
    float vector, the form the fits read.
    """

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=object)
        if counts.shape != (len(CELLS),):
            raise ValueError(f"record must hold {len(CELLS)} counts, got shape {counts.shape}")
        for cell, n in zip(CELLS, counts):
            whole_count(n, f"count for {cell}")
        vector = counts.astype(float)
        vector.flags.writeable = False
        object.__setattr__(self, "counts", vector)


def counts_from_phase_settings(setting_counts: dict) -> MeasurementRecord:
    """Assemble the 16 tomography counts from four phase-setting runs.

    ``setting_counts`` maps each dial setting in :data:`SETTINGS` to the
    3x3 joint-slot coincidence table of that run (slots 0/1/2 = short/
    central/long on each arm), whose entries are whole counts from 0 to
    2^53.  The slot table factorizes per arm:

    * corner slots measure the time basis (slot 0 -> Z0, slot 2 -> Z1),
    * the central slot measures the dial's superposition basis,

    so slot (0,1) at idler dial 0 contributes to (Z0, X+), slot (1,1) to
    (X+, X+), and so on.  Per-pair slot weights are 1/16 for corner-
    corner, 1/8 for mixed and 1/4 for central-central entries; summing
    corners over all four settings and mixed entries over the two
    settings sharing the relevant dial makes every accumulated entry
    carry the same effective weight, so a single shared normalization
    applies to all 16 counts.  The sums are exact.
    """
    missing = [s for s in SETTINGS if s not in setting_counts]
    if missing:
        raise ValueError(f"missing slot data for settings {missing}")
    tables = []
    for setting in SETTINGS:
        table = np.asarray(setting_counts[setting], dtype=object)
        if table.shape != (3, 3):
            raise ValueError(f"setting {setting} must provide the 3x3 slot table of a "
                             f"time-bin run, got shape {table.shape}")
        for n in table.flat:
            whole_count(n, f"a slot count of setting {setting}")
        tables.append(table)
    counts = np.zeros(len(CELLS), dtype=np.int64)
    np.add.at(counts, _SLOT_CELL, np.array(tables, dtype=np.int64))
    return MeasurementRecord(counts)


@dataclass(frozen=True)
class TomographyResult:
    """Reconstructed state, figures of merit and optimizer diagnostics.

    ``rho`` is the fitted state as a read-only (4, 4) complex array.
    """

    rho: np.ndarray
    log_likelihood: float
    concurrence: float
    fidelity: float
    chsh_lower: float
    chsh_upper: float
    iterations: int
    converged: bool
    errors: dict | None = None        # metric -> {"mean": .., "std": ..}
    n_replicas: int = 0
    n_replicas_dropped: int = 0
    low_precision: bool = False
    certificate: float = 0.0          # bound on the nats left to gain
    bootstrap_iterations_median: float | None = None
    bootstrap_iterations_max: int | None = None
    n_replicas_max_iter: int = 0

    def to_json(self) -> str:
        return json.dumps({
            "rho": {"re": self.rho.real.tolist(), "im": self.rho.imag.tolist()},
            "log_likelihood": self.log_likelihood,
            "concurrence": self.concurrence,
            "fidelity_phi_plus": self.fidelity,
            "chsh_lower": self.chsh_lower,
            "chsh_upper": self.chsh_upper,
            "diagnostics": {"iterations": self.iterations,
                            "converged": self.converged,
                            "n_replicas": self.n_replicas,
                            "n_replicas_dropped": self.n_replicas_dropped,
                            "low_precision": self.low_precision,
                            "certificate_nats": self.certificate,
                            "min_eigenvalue": float(np.linalg.eigvalsh(self.rho)[0]),
                            "bootstrap_iterations_median": self.bootstrap_iterations_median,
                            "bootstrap_iterations_max": self.bootstrap_iterations_max,
                            "n_replicas_max_iter": self.n_replicas_max_iter},
            "errors": self.errors,
        })


# Constant operator data, built once.  A Hermitian 4x4 matrix is held as
# its real coordinates a over the 16 Pauli products s_l (A = sum_l a_l s_l,
# tr(s_l s_m) = 4 delta_lm), so p_k = tr(A Pi_k) = (_DESIGN a)_k and
# sum_k w_k Pi_k has the coordinates _DESIGN^T w / 4.
_OPS = np.stack([measurement_operator(a, b) for a, b in CELLS])
_PAULI = (np.eye(2), np.array([[0, 1], [1, 0]]),
          np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]]))
_SIGMA = np.stack([np.kron(a, b) for a in _PAULI for b in _PAULI]).astype(complex)
_SIGMA_FLAT = _SIGMA.reshape(16, 16)
_DESIGN = np.einsum("kij,lji->kl", _OPS, _SIGMA).real
# Counts normalized to the time-basis sum -> flattened rho (the 16
# projectors are informationally complete, so _DESIGN is invertible).
_INVERSION = np.linalg.inv(_DESIGN).T @ _SIGMA_FLAT
_ZZ = [k for k, (a, b) in enumerate(CELLS) if a[0] == b[0] == "Z"]
_MIXED = np.eye(4, dtype=complex) / 4.0
# tr(A) <= sum_k tr(A Pi_k) / _KAPPA for every positive A.
_KAPPA = float(np.linalg.eigvalsh(_OPS.sum(axis=0))[0])


def _rowwise(rows: np.ndarray, m: np.ndarray) -> np.ndarray:
    """rows @ m as one vector-matrix product per row.

    A single (R, k) @ (k, j) product may round a row differently for
    R = 1 than inside a larger block (BLAS picks a different kernel);
    the stacked form computes every row alike, so a record's fit does
    not depend on the batch it sits in.
    """
    return (rows[:, None, :] @ m)[:, 0]


def _coords(m: np.ndarray) -> np.ndarray:
    """Pauli coordinates a_l = tr(M s_l) / 4 of stacked Hermitian matrices."""
    return _rowwise(np.ascontiguousarray(m).reshape(len(m), 16), _SIGMA_FLAT.conj().T).real / 4


def _matrices(a: np.ndarray) -> np.ndarray:
    """Stacked Hermitian matrices from their Pauli coordinates, shape (R, 4, 4)."""
    return _rowwise(a.astype(complex), _SIGMA_FLAT).reshape(len(a), 4, 4)


def _linear_inversion(counts: np.ndarray) -> np.ndarray:
    """Linear inversion of a stack of count vectors, shape (R, 4, 4)."""
    scale = counts[:, _ZZ].sum(axis=1)
    p = counts / np.where(scale > 0, scale, 1.0)[:, None]
    rho = _rowwise(p.astype(complex), _INVERSION).reshape(len(counts), 4, 4)
    rho[scale <= 0] = _MIXED
    return rho


def linear_inversion(record: MeasurementRecord) -> np.ndarray:
    """Direct linear solve of tr(rho Pi_k) = n_k / N; may be unphysical.

    The shared scale N/4 equals the summed time-basis counts (the four
    Z x Z projectors sum to the identity).  The 16 projectors are
    informationally complete, so the 16x16 system is well conditioned;
    a record without time-basis counts falls back to the maximally mixed
    state.
    """
    return _linear_inversion(record.counts[None])[0]


#: Stopping tolerance of the MLE certificate, in nats.
MLE_TOL = 1e-2
#: Replicas that :func:`bootstrap_errors` draws and fits at a time; rows
#: fit independently (:func:`mle_batch`), so the slice changes no bit.
BOOTSTRAP_SLICE = 512
# Growth of the barrier weight t once a row is close to the central path.
_T_GROW = 10.0


@dataclass(frozen=True)
class MleBatch:
    """Per-record outcome of :func:`mle_batch`; each field has length R."""

    rho: np.ndarray               # (R, 4, 4) unit-trace states
    log_likelihood: np.ndarray    # Poisson log-likelihood, rate profiled out
    iterations: np.ndarray
    certificate: np.ndarray       # bound on the nats still to gain; inf if none
    converged: np.ndarray         # certificate <= MLE_TOL within max_iter


def _certificate(n, pos, total, p):
    """Bound on f(A) - min f, in nats, for A rescaled to sum_k p_k = C.

    At that scale the gradient G = sum_k (1 - n_k / p_k) Pi_k has
    <G, A> = 0 and the minimizer B* has sum_k p_k = C too, so convexity
    gives f(A) - f(B*) <= -<G, B*> <= (C / kappa) max(0, -lambda_min(G)),
    with kappa the smallest eigenvalue of sum_k Pi_k (tr B* <= C / kappa).
    """
    p = p * (total / p.sum(axis=1))[:, None]
    w = 1.0 - np.divide(n, p, out=np.zeros_like(p), where=pos)
    lam = np.linalg.eigvalsh(_matrices(_rowwise(w, _DESIGN) / 4))[:, 0]
    return total / _KAPPA * np.maximum(0.0, -lam)


def mle_batch(counts, max_iter: int = 2000) -> MleBatch:
    """Maximum-likelihood states for a stack of 16-count records.

    ``counts`` has shape (R, 16) in record order.  Each row is fitted
    independently.  The objective is the extended Poisson one,
    f(A) = sum_k p_k - n_k log p_k with p_k = tr(A Pi_k), over positive
    definite A; its minimizer has sum_k p_k = C, the record's total
    count, and scaled to unit trace it is the state of largest Poisson
    likelihood.  The seed is the projected linear inversion mixed with
    0.1 % of the maximally mixed state, scaled to sum_k p_k = C.  Each
    iteration takes one damped Newton step, a <- a + da / (1 + lambda)
    with lambda the Newton decrement, on the barrier function
    t f(A) - log det A in the 16 Pauli coordinates of A; such steps stay
    inside the positive cone, and t (starting at 1) grows tenfold
    whenever lambda < 1/2, which drives A toward the boundary of the
    cone, where the optimum of a rank-deficient state lies.

    Stopping rule: iteration k evaluates the certificate of
    :func:`_certificate` at the current iterate (the seed when k = 1), a
    bound on the log-likelihood the row can still gain, and takes a step
    only if it exceeds ``MLE_TOL`` nats; a row whose certificate holds is
    converged.  A row uncertified after ``max_iter`` iterations is
    returned as its last checked iterate, unconverged, as is a row
    without counts.  Counts are expected to be non-negative integers.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    n_all = np.asarray(counts, dtype=float).reshape(-1, 16)
    total_all = n_all.sum(axis=1)
    r = len(n_all)
    a_out = np.zeros((r, 16))
    a_out[:, 0] = 0.25
    iterations = np.zeros(r, dtype=int)
    certificate = np.full(r, np.inf)

    act = np.flatnonzero(total_all > 0)
    n, total = n_all[act], total_all[act]
    pos = n > 0
    a = _coords(0.999 * _physical(_linear_inversion(n)) + 0.001 * _MIXED)
    a *= (total / _rowwise(a, _DESIGN.T).sum(axis=1))[:, None]
    t = np.ones(len(act))
    for it in range(1, max_iter + 1):
        p = _rowwise(a, _DESIGN.T)
        cert = _certificate(n, pos, total, p)
        done = (cert <= MLE_TOL) | (it == max_iter)
        if done.any():
            rows = act[done]
            a_out[rows], iterations[rows], certificate[rows] = a[done], it, cert[done]
            keep = ~done
            act, n, total, pos, a, t, p = (act[keep], n[keep], total[keep], pos[keep],
                                           a[keep], t[keep], p[keep])
            if not len(act):
                break

        a_inv = np.linalg.inv(_matrices(a))
        w = 1.0 - np.divide(n, p, out=np.zeros_like(p), where=pos)
        curv = np.divide(n, p * p, out=np.zeros_like(p), where=pos)
        grad = (t[:, None] * _rowwise(w, _DESIGN)
                - _rowwise(a_inv.reshape(-1, 16), _SIGMA_FLAT.conj().T).real)
        # Hessian of -log det A: tr(s_l A^-1 s_m A^-1), via A^-1 (x) A^-T.
        kron = (a_inv[:, :, None, :, None]
                * a_inv.transpose(0, 2, 1)[:, None, :, None, :]).reshape(-1, 16, 16)
        hess = (t[:, None, None] * ((_DESIGN.T * curv[:, None, :]) @ _DESIGN)
                + (_SIGMA_FLAT.conj() @ kron @ _SIGMA_FLAT.T).real)
        step = np.linalg.solve(hess, -grad[:, :, None])[:, :, 0]
        dec = np.sqrt(np.maximum(0.0, -(grad * step).sum(axis=1)))
        trial = a + step / (1.0 + dec)[:, None]
        # The damped step cannot leave the domain in exact arithmetic; a
        # row that does so by rounding keeps its point.
        inside = ((np.linalg.eigvalsh(_matrices(trial))[:, 0] > 0)
                  & ~(pos & (_rowwise(trial, _DESIGN.T) <= 0)).any(axis=1))
        a = np.where(inside[:, None], trial, a)
        t = np.where(inside & (dec < 0.5), _T_GROW * t, t)

    rho_out = _matrices(a_out / (4.0 * a_out[:, :1]))
    p = _rowwise(a_out, _DESIGN.T)
    mean = total_all[:, None] * p / p.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        loglik = np.where(n_all > 0, n_all * np.log(mean), 0.0).sum(axis=1) - total_all
    return MleBatch(rho=rho_out, log_likelihood=loglik, iterations=iterations,
                    certificate=certificate, converged=certificate <= MLE_TOL)


def _figures(stack: np.ndarray):
    """Physical states and figures of a (R, 4, 4) stack of fitted matrices.

    Returns (rho, concurrence, Phi+ fidelity, CHSH lower, CHSH upper),
    each with the leading replica axis.  Every projected matrix must pass
    :func:`quantum.validate_density_matrix`; the states come back read-only.
    """
    rho = _physical(stack)
    quantum.validate_density_matrix(rho)
    rho.flags.writeable = False
    c = quantum.concurrence(rho)
    lo, hi = quantum.chsh_bounds(c)
    return rho, c, quantum.fidelity_to_pure(rho, quantum.bell_phi_plus()), lo, hi


def mle_reconstruct(record: MeasurementRecord, max_iter: int = 2000) -> TomographyResult:
    """Maximum-likelihood density matrix from a 16-count record.

    The one-record case of :func:`mle_batch`: the fit stops once its
    certificate bounds the log-likelihood still to gain by ``MLE_TOL`` nats,
    and non-convergence within ``max_iter`` is flagged in the result,
    never silent.
    """
    if record.counts.sum() <= 0:
        raise ValueError("record has no counts")
    fit = mle_batch(record.counts[None], max_iter=max_iter)
    rho, c, f, lo, hi = _figures(fit.rho)
    return TomographyResult(
        rho=rho[0],
        log_likelihood=float(fit.log_likelihood[0]),
        concurrence=float(c[0]),
        fidelity=float(f[0]),
        chsh_lower=float(lo[0]),
        chsh_upper=float(hi[0]),
        iterations=int(fit.iterations[0]),
        converged=bool(fit.converged[0]),
        certificate=float(fit.certificate[0]),
    )


def bootstrap_errors(record: MeasurementRecord, n_replicas: int = 200,
                     seed: int = 0, max_iter: int = 2000) -> TomographyResult:
    """Monte-Carlo error bars: Poisson-resample counts, refit, take stats.

    Replicas are fitted only once the base fit certifies: an uncertified
    base fit is returned with no replica and no error bars, flagged as low
    precision.
    Replicas are drawn and fitted ``BOOTSTRAP_SLICE`` at a time, so memory
    is bounded by a slice.  Replicas whose fit does not converge are dropped
    and counted; more than 10% dropped, or fewer than 10 replicas requested,
    flags the result as low precision.  Each replica derives its RNG from
    (seed, replica index), so the run is reproducible and order-independent.
    """
    if n_replicas < 2:
        raise ValueError("need at least 2 replicas")
    base = mle_reconstruct(record, max_iter=max_iter)
    if not base.converged:
        return replace(base, low_precision=True)
    fits = []
    for lo in range(0, n_replicas, BOOTSTRAP_SLICE):
        fit = mle_batch(np.stack([np.random.default_rng([seed, k]).poisson(record.counts) for k in
                                  range(lo, min(lo + BOOTSTRAP_SLICE, n_replicas))]), max_iter)
        fits.append((fit.rho[fit.converged], fit.iterations, fit.converged))
    rho, iterations, converged = (np.concatenate(part) for part in zip(*fits))
    figures = np.stack(_figures(rho)[1:], axis=1)
    errors = {name: {"mean": float(np.mean(col)), "std": float(np.std(col, ddof=1))}
              for name, col in zip(("concurrence", "fidelity", "chsh_lower", "chsh_upper"),
                                   figures.T) if len(col) >= 2}
    dropped = int(n_replicas - converged.sum())
    low_precision = n_replicas < 10 or dropped > 0.1 * n_replicas
    return replace(base, errors=errors, n_replicas=n_replicas,
                   n_replicas_dropped=dropped, low_precision=low_precision,
                   bootstrap_iterations_median=float(np.median(iterations)),
                   bootstrap_iterations_max=int(iterations.max()),
                   n_replicas_max_iter=int(np.sum(~converged & (iterations == max_iter))))
