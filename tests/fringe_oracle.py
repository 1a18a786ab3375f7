"""Independent fringe fit for cross-checking ``analysis.fit_fringe``.

Fits the nonlinear law A*(1 - V cos(phi + phi0)) directly in (A, V, phi0)
with scipy's bounded trust-region ``curve_fit`` from a first-harmonic
starting point, with A >= 0 and 0 <= V <= 1.  It shares no solver with
the production fit, which solves a linear problem in
(A, -AV cos phi0, AV sin phi0) and treats the V = 1 edge explicitly.
"""

import numpy as np
from scipy.optimize import curve_fit


def oracle_fit_fringe(phases, counts, times, poisson_weights=False):
    """(V, sigma_V, phi0, A) with the weighting conventions of fit_fringe."""
    phases = np.asarray(phases, dtype=float)
    counts = np.asarray(counts, dtype=float)
    times = np.asarray(times, dtype=float)
    rates = counts / times

    def model(phi, amp, vis, phi0):
        return amp * (1.0 - vis * np.cos(phi + phi0))

    mean = float(np.mean(rates))
    spread = float(np.ptp(rates)) / 2.0
    # The model has its minimum at phi + phi0 = 0, so the phase of the
    # first harmonic fixes the starting offset.
    z = np.mean(rates * np.exp(-1j * phases))
    p0 = [mean, min(spread / mean, 1.0), float(np.angle(-z))]
    sigma = np.sqrt(np.clip(counts, 1.0, None)) / times if poisson_weights else None
    popt, pcov = curve_fit(
        model, phases, rates, p0=p0,
        bounds=([0.0, 0.0, -2 * np.pi], [np.inf, 1.0, 2 * np.pi]),
        sigma=sigma, absolute_sigma=poisson_weights, maxfev=10000,
        ftol=1e-14, xtol=1e-14, gtol=1e-14)
    return float(popt[1]), float(np.sqrt(pcov[1, 1])), float(popt[2]), float(popt[0])
