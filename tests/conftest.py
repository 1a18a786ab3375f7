import dataclasses
import re

import numpy as np
import scipy.linalg

from timebin.simulate import CH_TRIGGER

ACCEPTANCE_DESCRIPTIONS = {
    1: "closed-form fidelity of the reconstructed state to the Bell target",
    2: "concurrence of the reconstructed state vs independent oracle",
    3: "CHSH bounds from concurrence",
    4: "visibility ceiling from CAR",
    5: "CAR and Klyshko ratios from quoted rates",
    6: "single-bin sweep: log-log CAR slope, darks off and on",
    7: "Klyshko intercepts from a power sweep",
    8: "fringe visibility, 1:2:1 singles, accidental-only corner slots",
    9: "tomography round trips, ideal and noisy",
    10: "property suites: invariants, equivalence, determinism",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            m = re.search(r"test_criterion_(\d+)", nodeid)
            if m and getattr(rep, "when", "call") == "call":
                n = int(m.group(1))
                results[n] = results.get(n, True) and outcome == "passed"
    if not results:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance summary")
    for n in sorted(results):
        verdict = "PASS" if results[n] else "FAIL"
        desc = ACCEPTANCE_DESCRIPTIONS.get(n, "")
        terminalreporter.write_line(f"  criterion {n:2d}: {verdict}  {desc}")


def ginibre_density_matrix(rng, dim=4, rank=None):
    """Random density matrix from a complex Ginibre ensemble."""
    rank = rank or dim
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure_state(rng, dim=4):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_unitary(rng, dim=2):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def wootters_oracle(rho):
    """Independent concurrence route via the Hermitian sqrtm construction.

    C = max(0, 2*max(lam) - sum(lam)) with lam the eigenvalues of
    sqrtm(sqrtm(rho) rho_tilde sqrtm(rho)), rho_tilde the spin-flipped
    matrix.  Uses matrix square roots instead of the product-eigenvalue
    shortcut, so it checks the production path independently.
    """
    sy = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(sy, sy)
    rho_tilde = yy @ rho.conj() @ yy
    s = scipy.linalg.sqrtm(rho)
    r = scipy.linalg.sqrtm(s @ rho_tilde @ s)
    lam = np.sort(np.real(np.linalg.eigvals(r)))[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


# Absolute values of the reconstructed experimental density matrix, taken
# with all off-diagonal phases set to zero (the all-real completion).
EXPERIMENT_RHO_REAL = np.array([
    [50.9, 1.7, 1.8, 44.5],
    [1.7, 0.3, 0.17, 2.5],
    [1.8, 0.17, 0.21, 1.4],
    [44.5, 2.5, 1.4, 48.6],
]) / 100.0


def assert_same_result(a, b):
    """Every field of two AnalysisResults equal; arrays exactly, with dtype."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, dict):
            assert x.keys() == y.keys(), f.name
            pairs = [(x[k], y[k]) for k in x]
        else:
            pairs = [(x, y)]
        for u, v in pairs:
            np.testing.assert_array_equal(u, v, err_msg=f.name)
            assert np.asarray(u).dtype == np.asarray(v).dtype, f.name


def tie_cuts(tags):
    """Indices that split a detection from a trigger at the same time."""
    t, c = tags["time_ps"], tags["channel"]
    return np.flatnonzero((c[1:] == CH_TRIGGER) & (c[:-1] != CH_TRIGGER)
                          & (t[1:] == t[:-1])) + 1
