"""Time-bin entangled photon-pair toolkit.

Simulates a pulsed photon-pair source with time-bin interferometers,
processes the resulting time-tag streams into singles/coincidence rates,
Klyshko efficiencies, CAR, brightness and fringe visibilities, and
reconstructs the two-qubit state by maximum-likelihood tomography with
concurrence, fidelity and CHSH bounds.

The API lives in the submodules, imported by name: ``timebin.simulate``,
``timebin.streams``, ``timebin.analysis``, ``timebin.quantum``,
``timebin.tomography`` and the command line in ``timebin.cli``.  The
package itself imports none of them, so a process loads only what it uses;
it holds the constants and the number rules, :func:`finite_number` and
:func:`whole_count`, that the modules and the command line share without
loading numpy.
"""

import numbers
import sys

__version__ = "0.1.0"

# The analyzer's default gate width and histogram bin in seconds, the tag
# file format version and the run modes.  They live here, not in
# ``analysis`` and ``streams``, so that the command line builds its parser
# and writes its manifests without loading numpy.
DEFAULT_GATE_WIDTH = 0.5e-9
DEFAULT_HIST_BIN = 10e-12
FORMAT_VERSION = 5
MODES = ("single-bin", "time-bin")


def finite_number(value, name: str):
    """``value`` if it is a real number, not a bool, no larger in size than
    the largest float, so finite as a float; else a ValueError naming
    ``name``.  This is the one number rule: it checks, and converts nothing."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) \
            and abs(value) <= sys.float_info.max:
        return value
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def whole_count(n, name: str):
    """``n`` if it passes :func:`finite_number` and is a whole number from 0
    to 2^53, where floats hold every integer; else a ValueError naming it.
    This is the one count rule of the reports."""
    try:
        if 0 <= finite_number(n, name) <= 2**53 and n % 1 == 0:
            return n
    except ValueError:
        pass
    raise ValueError(f"{name} must be an integer from 0 to 2^53, got {n!r}")
