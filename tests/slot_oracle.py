"""The pair law at the monitored ports, written out by hand.

The oracle for the simulator's outcome table, the source of the expected
counts of the tomography tests, and the basis each slot of an arm
measures.  It imports nothing from ``timebin``, so a test that draws its
counts from it checks the program against the physics, not against the
program's own law.
"""

import numpy as np

# The dials are calibrated on the fringe maximum of the target state at
# phi_p = 0: dial 0 projects the central slot onto X+, dial 90 onto Y+,
# and the signal arm sits a further pi away.
DIAL_PHASE = {0: 0.0, 90: np.pi / 2}
SETTINGS = ((0, 0), (0, 90), (90, 0), (90, 90))


def slot_basis(dial, slot):
    """The basis that a count in ``slot`` of an arm set to ``dial`` measures:
    the short slot 0 is Z0 and the long slot 2 is Z1, whatever the dial;
    the central slot 1 is X+ at dial 0 and Y+ at dial 90."""
    if slot == 0:
        return "Z0"
    if slot == 2:
        return "Z1"
    return {0: "X+", 90: "Y+"}[dial]


def hand_written_slot_weights(phi_p, phi_s, phi_i, v0):
    """Closed-form monitored-port weights of one pair: the 3x3 joint table
    over (signal slot, idler slot), slots short/central/long, and the
    singles marginal of one arm.

    Each of the six satellite joint slots carries 1/32; the central slot
    (1, 1) carries (1 - v0 cos(phi_s + phi_i - phi_p))/16; the corners
    (0, 2) and (2, 0) are never reached.  The singles marginal is 1/8,
    1/4, 1/8.
    """
    joint = np.zeros((3, 3))
    for s, i in ((0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2)):
        joint[s, i] = 1.0 / 32.0
    joint[1, 1] = (1.0 - v0 * np.cos(phi_s + phi_i - phi_p)) / 16.0
    return joint, np.array([1.0 / 8.0, 1.0 / 4.0, 1.0 / 8.0])


def setting_tables(n_pairs, v0=1.0, accidentals=0.0, rng=None, phi_p=0.0):
    """The 3x3 joint-slot count table of each dial setting: ``n_pairs``
    pairs at the hand-written weights plus a flat floor of ``accidentals``
    a slot, rounded to the nearest integers, or Poisson-drawn from ``rng``
    in the order of ``SETTINGS``."""
    tables = {}
    for ds, di in SETTINGS:
        joint, _ = hand_written_slot_weights(phi_p, np.pi + DIAL_PHASE[ds], DIAL_PHASE[di], v0)
        mean = n_pairs * joint + accidentals
        tables[(ds, di)] = np.round(mean).astype(int) if rng is None else rng.poisson(mean)
    return tables
