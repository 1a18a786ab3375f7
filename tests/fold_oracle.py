"""Explicit-trigger oracle for cross-checking ``analysis.StreamAnalyzer``.

The analyzer finds each detection's pulse by arithmetic on a
``PulseGrid``.  This oracle finds it as a tagger with sync tags would: by
``searchsorted`` among the trigger tags of the full stream, as the tests
build it with ``conftest.merge_triggers``.  It then gates each detection by
the rule of ``GateConfig`` in whole ps (the same offsets for both
channels, each rounded to whole ps: nearest offset, the earlier one on a
midpoint, inside when within half the width rounded to whole ps),
histograms it in bins of the bin rounded to whole ps, in integers, and
counts pairs from dense (pulse, slot) tables: joint = S^T I and
next-pulse = S[:-1]^T I[1:].
It shares no code with the fold, which gives each detection its slot by
counting the whole-ps gate edges, worked out once, at or below it, and
pairs by pulse runs.
"""

import numpy as np

from timebin.analysis import AnalysisResult
from timebin.simulate import CH_IDLER, CH_SIGNAL, CH_TRIGGER


def explicit_trigger_result(tags, gates, hist_bin=10e-12):
    """The ``AnalysisResult`` of one pass over ``tags``, triggers included.

    A detection belongs to the latest trigger at or before its time; one
    before the first trigger is counted in ``dropped_pre_trigger``.
    """
    t = tags["time_ps"].astype(np.int64)
    trig = t[tags["channel"] == CH_TRIGGER]
    bin_ps = round(hist_bin * 1e12)
    width_ps = round(gates.gate_width * 1e12)
    offs = np.array(sorted(round(o * 1e12) for o in gates.offsets), dtype=np.int64)
    histograms, tables, dropped = {}, {}, 0
    for ch in (CH_SIGNAL, CH_IDLER):
        tc = t[tags["channel"] == ch]
        pulse = np.searchsorted(trig, tc, side="right") - 1
        dropped += int(np.count_nonzero(pulse < 0))
        tc, pulse = tc[pulse >= 0], pulse[pulse >= 0]
        rel = tc - trig[pulse]
        h = np.bincount(rel // bin_ps)
        if h.any():
            histograms[ch] = h[:np.flatnonzero(h)[-1] + 1]
        # Twice the midpoints and twice |rel - offset|: exact in integers.
        slot = np.searchsorted(offs[1:] + offs[:-1], 2 * rel, side="left")
        inside = 2 * np.abs(rel - offs[slot]) <= width_ps
        table = np.bincount(pulse[inside] * offs.size + slot[inside],
                            minlength=trig.size * offs.size)
        tables[ch] = table.reshape(trig.size, offs.size)
    s, i = tables[CH_SIGNAL], tables[CH_IDLER]
    period = float(trig[-1] - trig[0]) / (trig.size - 1)
    return AnalysisResult(
        histograms=histograms,
        hist_bin=bin_ps * 1e-12,
        gated_signal=s.sum(axis=0),
        gated_idler=i.sum(axis=0),
        joint=s.T @ i,
        neighbor_joint=s[:-1].T @ i[1:],
        n_triggers=trig.size,
        duration=trig.size * period * 1e-12,
        out_of_range=0,
        dropped_pre_trigger=dropped,
    )
