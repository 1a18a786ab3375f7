"""Time-bin entangled photon-pair toolkit.

Simulates a pulsed photon-pair source with time-bin interferometers,
processes the resulting time-tag streams into singles/coincidence rates,
Klyshko efficiencies, CAR, brightness and fringe visibilities, and
reconstructs the two-qubit state by maximum-likelihood tomography with
concurrence, fidelity and CHSH bounds.

The API lives in the submodules, imported by name: ``timebin.simulate``,
``timebin.streams``, ``timebin.analysis``, ``timebin.quantum``,
``timebin.tomography`` and the command line in ``timebin.cli``.  The
package itself imports none of them, so a process loads only what it uses.
"""

__version__ = "0.1.0"
