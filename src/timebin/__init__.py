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

# The analyzer's default gate width and histogram bin in seconds, the tag
# file format version and the run modes.  They live here, not in
# ``analysis`` and ``streams``, so that the command line builds its parser
# and writes its manifests without loading numpy.
DEFAULT_GATE_WIDTH = 0.5e-9
DEFAULT_HIST_BIN = 10e-12
FORMAT_VERSION = 5
MODES = ("single-bin", "time-bin")
