import itertools
import json
import tracemalloc

import numpy as np
import pytest

from timebin import quantum, tomography
from timebin.quantum import bell_phi_plus
from timebin.tomography import (SETTINGS, MeasurementRecord, _figures,
                                bootstrap_errors, counts_from_phase_settings,
                                linear_inversion, mle_batch, mle_reconstruct,
                                setting_phases)

from conftest import ginibre_density_matrix
from mle_oracle import CELL_OPS, SLOT_OPS, cell_sums, log_likelihood, oracle_fit, seed_nll
from slot_oracle import SETTINGS as ORACLE_SETTINGS
from slot_oracle import DIAL_PHASE, hand_written_slot_weights, setting_tables, slot_basis

BELL_DM = np.outer(bell_phi_plus(), bell_phi_plus().conj())


def born_record(rho, n_total=10**9):
    """Record with slot counts proportional to the exact Born probabilities
    of the oracle's slot operators, about ``n_total`` counts in all."""
    p = np.einsum("kij,ji->k", SLOT_OPS, rho).real
    return MeasurementRecord(counts=np.round(n_total * np.clip(p, 0.0, None)).astype(int))


def slot(record, setting, s_slot, i_slot):
    """The count of joint slot (s_slot, i_slot) of ``setting`` in ``record``."""
    return record.counts[9 * SETTINGS.index(setting) + 3 * s_slot + i_slot]


class TestSettingMapping:
    def test_phase_convention_places_fringe_max_at_zero_dials(self):
        phi_s, phi_i = setting_phases(0, 0)
        # fringe law 1 - V cos(phi_s + phi_i - phi_p) is maximal here
        assert np.cos(phi_s + phi_i) == pytest.approx(-1.0)

    def test_rejects_unknown_dials(self):
        with pytest.raises(ValueError):
            setting_phases(45, 0)

    def test_central_slot_maximal_at_zero_setting(self):
        # the program's dials through the hand-written law
        for dials, central in (((0, 0), 2 / 16), ((0, 90), 1 / 16)):
            joint, _ = hand_written_slot_weights(0.0, *setting_phases(*dials), 1.0)
            assert joint[1, 1] == pytest.approx(central)

    def test_dials_match_the_hand_written_map(self):
        # the tests' counts come from slot_oracle's own dial -> phase map
        assert SETTINGS == ORACLE_SETTINGS
        for ds, di in SETTINGS:
            assert setting_phases(ds, di) == (np.pi + DIAL_PHASE[ds], DIAL_PHASE[di])


class TestCountsAssembly:
    def test_all_36_slot_counts_present(self):
        tables = setting_tables(16000)
        rec = counts_from_phase_settings(tables)
        assert rec.counts.shape == (36,)
        assert not rec.counts.flags.writeable
        assert rec.counts.tolist() == np.concatenate([tables[d] for d in SETTINGS],
                                                     axis=None).tolist()

    def test_each_slot_counts_toward_its_hand_written_cell(self):
        # One count in each of the 4 settings x 9 joint slots lands in its
        # own place of the record, and in no other; the operator fitted
        # there measures the cell slot_oracle names for that slot.
        for k, (dials, s_slot, i_slot) in enumerate(
                (d, s, i) for d in SETTINGS for s, i in np.ndindex(3, 3)):
            tables = {d: np.zeros((3, 3), dtype=int) for d in SETTINGS}
            tables[dials][s_slot, i_slot] = 1
            assert counts_from_phase_settings(tables).counts.tolist() == np.eye(36)[k].tolist()
            m = tomography._OPS[k]
            cell = quantum.measurement_operator(slot_basis(dials[0], s_slot),
                                                slot_basis(dials[1], i_slot))
            np.testing.assert_allclose(m, np.trace(m).real * cell, atol=1e-15)

    def test_bell_state_pattern(self):
        rec = counts_from_phase_settings(setting_tables(160000))
        # antidiagonal time-basis coincidences vanish for the target state
        for setting in SETTINGS:
            assert slot(rec, setting, 0, 2) == slot(rec, setting, 2, 0) == 0
        # equal-weight correlations: X+X+ doubles the uncorrelated level
        assert slot(rec, (0, 0), 1, 1) == pytest.approx(2 * slot(rec, (0, 90), 1, 1), rel=0.01)

    def test_uniform_effective_weight(self):
        # Every tomography cell collects a quarter of the pairs over the
        # settings that measure it, so the time-basis corners of the four
        # tables hold the created pairs / 4
        n = 320000
        rec = counts_from_phase_settings(setting_tables(n))
        zz = sum(slot(rec, d, s, i) for d in SETTINGS for s in (0, 2) for i in (0, 2))
        assert zz == pytest.approx(n / 4, rel=1e-3)
        # Born probabilities for the target state: 1/2 and 1/4
        assert slot(rec, (0, 0), 1, 1) == pytest.approx(n / 8, rel=1e-3)
        assert slot(rec, (0, 90), 1, 1) == pytest.approx(n / 16, rel=1e-3)

    @pytest.mark.parametrize("phi_p", [0.0, 0.106])
    def test_slot_operators_give_the_hand_written_law(self, phi_p):
        # The V0-dephased state (|00> + e^{i phi_p}|11>)/sqrt(2): the program's
        # 36 operators, and the oracle's, give the pair law at every setting
        v0 = 0.889
        rho = np.diag([0.5, 0, 0, 0.5]).astype(complex)
        rho[0, 3] = v0 * np.exp(-1j * phi_p) / 2
        rho[3, 0] = np.conj(rho[0, 3])
        want = np.concatenate([hand_written_slot_weights(phi_p, *setting_phases(*d), v0)[0]
                               for d in SETTINGS], axis=None)
        for ops in (tomography._OPS, SLOT_OPS):
            got = np.einsum("kij,ji->k", ops, rho).real
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_missing_setting_rejected(self):
        data = setting_tables(1000)
        del data[(90, 90)]
        with pytest.raises(ValueError):
            counts_from_phase_settings(data)

    def test_wrong_shape_rejected(self):
        data = setting_tables(1000)
        data[(0, 0)] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            counts_from_phase_settings(data)

    @pytest.mark.parametrize("entry", [True, "625", -1, 2.5, np.nan, np.inf, 2**53 + 1])
    def test_entry_that_is_not_a_count_rejected(self, entry):
        data = {d: table.tolist() for d, table in setting_tables(1000).items()}
        data[(90, 0)][1][2] = entry
        with pytest.raises(ValueError, match=r"slot count of setting \(90, 0\) must be an "):
            counts_from_phase_settings(data)


class TestMeasurementRecord:
    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="36 counts"):
            MeasurementRecord(counts=[1] * 35)

    @pytest.mark.parametrize("count", [-1, np.inf, np.nan, True, 1.5,
                                       pytest.param(10**400, id="10**400")])
    def test_negative_count_rejected(self, count):
        # inf was an OverflowError, nan a ValueError of int() that named no key.
        counts = [1] * 36
        counts[20] = count
        with pytest.raises(ValueError, match=r"slot count of setting \(90, 0\) must be an integer "):
            MeasurementRecord(counts=counts)

    def test_total_past_2_to_the_53_rejected(self):
        # each count is within bounds, their sum is not
        counts = [0] * 36
        counts[0] = counts[9] = 2**52
        MeasurementRecord(counts=counts)
        counts[35] = 1
        with pytest.raises(ValueError, match=r"add up to 9007199254740993, past 2\^53"):
            MeasurementRecord(counts=counts)


class TestLinearInversion:
    def test_exact_counts_recover_state(self):
        # The solve is in counts: the state times the pairs a setting saw
        rng = np.random.default_rng(52)
        for _ in range(10):
            rho = ginibre_density_matrix(rng)
            est = linear_inversion(born_record(rho).counts[None])[0]
            assert np.max(np.abs(est / 1e9 - rho)) < 1e-6

    def test_maximally_mixed(self):
        est = linear_inversion(born_record(np.eye(4) / 4).counts[None])[0]
        np.testing.assert_allclose(est / 1e9, np.eye(4) / 4, atol=1e-9)

    def test_noise_can_leave_physical_set_and_projection_fixes_it(self):
        rng = np.random.default_rng(53)
        seen_unphysical = False
        for k in range(20):
            rec = born_record(BELL_DM, n_total=800)
            est = linear_inversion(rng.poisson(rec.counts)[None])[0]
            vals = np.linalg.eigvalsh((est + est.conj().T) / 2)
            if vals.min() < -1e-9:
                seen_unphysical = True
            fixed = quantum._physical(est)
            quantum.validate_density_matrix(fixed)
            assert np.linalg.eigvalsh(fixed).min() >= -1e-12
            assert np.trace(fixed).real == pytest.approx(1.0)
        assert seen_unphysical


class TestMle:
    def test_bell_state_round_trip(self):
        rec = counts_from_phase_settings(setting_tables(4_000_000))
        result = mle_reconstruct(rec)
        assert result.converged
        assert result.fidelity > 0.999
        assert result.concurrence > 0.998

    def test_product_state_round_trip(self):
        rec = born_record(np.diag([1.0, 0, 0, 0]).astype(complex), n_total=10**6)
        result = mle_reconstruct(rec)
        assert result.converged
        assert result.concurrence < 0.01
        assert np.real(result.rho[0, 0]) > 0.99

    def test_json_holds_rho_bit_exact(self):
        # tomo.json and tomo.rho.csv hold the state as to_json writes it:
        # every bit comes back, and re + 1j*im is the fitted array
        rec = counts_from_phase_settings(
            setting_tables(20_000, v0=0.9, rng=np.random.default_rng(9), accidentals=2.0))
        result = mle_reconstruct(rec)
        obj = json.loads(result.to_json())["rho"]
        re, im = np.array(obj["re"]), np.array(obj["im"])
        assert re.shape == im.shape == (4, 4)
        assert re.tobytes() == result.rho.real.tobytes()
        assert im.tobytes() == result.rho.imag.tobytes()
        assert np.array_equal(re + 1j * im, result.rho)

    def test_rho_refuses_writes(self):
        rec = counts_from_phase_settings(setting_tables(20_000))
        for result in (mle_reconstruct(rec), bootstrap_errors(rec, n_replicas=2)):
            assert result.rho.shape == (4, 4) and result.rho.dtype == complex
            with pytest.raises(ValueError, match="read-only"):
                result.rho[0, 0] = 1.0

    def test_dephased_state_concurrence_tracks_visibility(self):
        v0 = 0.6
        rec = counts_from_phase_settings(setting_tables(2_000_000, v0=v0))
        result = mle_reconstruct(rec)
        assert result.concurrence == pytest.approx(v0, abs=0.01)

    def test_infidelity_shrinks_with_counts(self):
        rng = np.random.default_rng(54)
        med = {}
        for n in (4_000, 400_000):
            infs = []
            for _ in range(5):
                rec = counts_from_phase_settings(
                    setting_tables(n, rng=rng))
                fit = mle_reconstruct(rec)
                infs.append(1.0 - quantum.fidelity_to_pure(fit.rho, bell_phi_plus()))
            med[n] = np.median(infs)
        # statistical error scales like 1/sqrt(N): two decades of counts
        # should buy roughly an order of magnitude in infidelity
        assert med[400_000] < med[4_000] / 3

    def test_likelihood_not_worse_than_seed(self):
        rng = np.random.default_rng(55)
        for _ in range(5):
            rec = counts_from_phase_settings(
                setting_tables(10_000, v0=0.9, rng=rng))
            fit = mle_reconstruct(rec)
            assert -fit.log_likelihood <= seed_nll(rec.counts, SLOT_OPS) + 1e-6

    def test_likelihood_matches_lbfgsb_oracle(self):
        # 12 Ginibre states (full rank and pure) with exact Born counts and
        # 12 Poisson four-setting Bell records with an accidental floor
        rng = np.random.default_rng(59)
        records = [born_record(ginibre_density_matrix(rng, rank=rank),
                               n_total=10**6)
                   for rank in (4, 1) for _ in range(6)]
        records += [counts_from_phase_settings(setting_tables(
                        n, v0=v0, rng=rng, accidentals=acc))
                    for n in (5_000, 300_000) for v0 in (0.6, 0.95)
                    for acc in (0.0, 2.0, 20.0)]
        for rec in records:
            fit = mle_reconstruct(rec)
            _, oracle_ll, _ = oracle_fit(rec.counts, SLOT_OPS)
            # near-pure records take accelerated projected gradient past
            # 2000 iterations; the Newton barrier needs a few tens
            assert fit.converged and fit.iterations <= 100
            assert fit.log_likelihood >= oracle_ll - 1e-6 * abs(oracle_ll)

    def test_certificate_bounds_gain_over_oracle(self):
        # the oracle's optimum can beat a fit by at most its certificate
        # (plus float noise of the log-likelihood sums), converged or not
        rng = np.random.default_rng(60)
        for _ in range(5):
            rec = counts_from_phase_settings(
                setting_tables(200_000, v0=0.9, rng=rng, accidentals=5.0))
            _, oracle_ll, _ = oracle_fit(rec.counts, SLOT_OPS)
            for max_iter in (1, 4, 16, 2000):
                fit = mle_reconstruct(rec, max_iter=max_iter)
                assert oracle_ll - fit.log_likelihood <= fit.certificate + 1e-6
            assert fit.converged and 0 <= fit.certificate <= 1e-2

    def test_equal_exposure_fit_reaches_the_16_cell_optimum(self):
        # At equal exposure every slot operator of a cell is the same
        # multiple of its projector, so the likelihood of the 36 slot counts
        # is that of their 16 cell sums plus a constant: the oracle's
        # optimum on its own cell sums can beat the fitted state by at most
        # the fit's certificate
        for n, v0, acc in itertools.product((10**4, 10**6, 10**9), (0.889, 0.999), (0, 2)):
            rec = counts_from_phase_settings(setting_tables(n, v0=v0, accidentals=acc))
            fit = mle_reconstruct(rec)
            cells = cell_sums(rec.counts)
            _, oracle_ll, _ = oracle_fit(cells, CELL_OPS)
            assert fit.converged
            assert oracle_ll - log_likelihood(fit.rho, cells, CELL_OPS) \
                <= fit.certificate + 1e-6, (n, v0, acc)

    def test_batch_rows_match_solo_fits(self):
        rng = np.random.default_rng(61)
        rec = counts_from_phase_settings(
            setting_tables(50_000, v0=0.9, rng=rng, accidentals=3.0))
        draws = np.stack([rng.poisson(rec.counts) for _ in range(40)])
        batch = mle_batch(draws)
        for k in (0, 7, 23, 39):
            solo = mle_reconstruct(MeasurementRecord(counts=draws[k]))
            assert batch.iterations[k] == solo.iterations
            assert np.max(np.abs(batch.rho[k] - solo.rho)) < 1e-9
            assert batch.log_likelihood[k] == pytest.approx(
                solo.log_likelihood, rel=1e-12)

    def test_swap_equivariance(self):
        rng = np.random.default_rng(56)
        rec = counts_from_phase_settings(
            setting_tables(100_000, v0=0.8, rng=rng))
        rho_a = mle_reconstruct(rec).rho
        # signal and idler trade places: setting (ds, di) slot (s, i) is
        # setting (di, ds) slot (i, s)
        swapped = MeasurementRecord(rec.counts[[9 * SETTINGS.index((di, ds)) + 3 * i + s
                                                for ds, di in SETTINGS
                                                for s, i in np.ndindex(3, 3)]])
        rho_b = mle_reconstruct(swapped).rho
        swap = np.eye(4)[[0, 2, 1, 3]]
        # agreement is limited only by the optimizer's floating-point
        # termination threshold on the likelihood
        assert np.max(np.abs(rho_b - swap @ rho_a @ swap)) < 5e-6

    def test_nonconvergence_flagged(self):
        rec = counts_from_phase_settings(setting_tables(100_000))
        result = mle_reconstruct(rec, max_iter=1)
        assert not result.converged

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError):
            mle_reconstruct(MeasurementRecord(counts=np.zeros(36)))


class TestBootstrap:
    def test_errors_reproducible(self):
        rng = np.random.default_rng(57)
        rec = counts_from_phase_settings(
            setting_tables(20_000, v0=0.9, rng=rng))
        a = bootstrap_errors(rec, n_replicas=20, seed=3)
        b = bootstrap_errors(rec, n_replicas=20, seed=3)
        assert a.errors == b.errors
        assert not a.low_precision

    def test_error_scales_with_counts(self):
        rng = np.random.default_rng(58)
        small = counts_from_phase_settings(
            setting_tables(5_000, v0=0.9, rng=rng))
        big = counts_from_phase_settings(
            setting_tables(500_000, v0=0.9, rng=rng))
        e_small = bootstrap_errors(small, n_replicas=40, seed=1)
        e_big = bootstrap_errors(big, n_replicas=40, seed=1)
        ratio = (e_small.errors["concurrence"]["std"]
                 / e_big.errors["concurrence"]["std"])
        # counts grew by 100x, so the error should shrink about 10x
        assert 4 < ratio < 25

    def test_few_replicas_flagged_low_precision(self):
        rec = counts_from_phase_settings(setting_tables(20_000))
        result = bootstrap_errors(rec, n_replicas=4, seed=0)
        assert result.low_precision

    def test_dropped_replicas_flagged(self):
        rec = counts_from_phase_settings(setting_tables(20_000))
        # The base fit certifies in exactly max_iter, its replicas need more.
        max_iter = mle_reconstruct(rec).iterations
        result = bootstrap_errors(rec, n_replicas=10, seed=0, max_iter=max_iter)
        assert result.converged and result.n_replicas_dropped > 1
        assert result.low_precision

    def test_batched_figures_match_per_replica_figures(self):
        rng = np.random.default_rng(62)
        rec = counts_from_phase_settings(
            setting_tables(20_000, v0=0.9, rng=rng, accidentals=2.0))
        draws = np.stack([rng.poisson(rec.counts) for _ in range(30)])
        # fitted states, plus unphysical matrices the projection must repair
        stack = np.concatenate([
            mle_batch(draws).rho,
            [BELL_DM + 1e-3 * rng.normal(size=(4, 4))
             for _ in range(10)]])
        rho, c, f, lo, hi = _figures(stack)
        for k, m in enumerate(stack):
            dm = quantum._physical(m)
            quantum.validate_density_matrix(dm)
            c_k = quantum.concurrence(dm)
            lo_k, hi_k = quantum.chsh_bounds(c_k)
            assert np.max(np.abs(rho[k] - dm)) < 1e-12
            assert abs(c[k] - c_k) < 1e-12
            assert abs(f[k] - quantum.fidelity_to_pure(dm, bell_phi_plus())) < 1e-12
            assert abs(lo[k] - lo_k) < 1e-12 and abs(hi[k] - hi_k) < 1e-12

    def test_sliced_fits_are_the_whole_fit(self, monkeypatch):
        # Rows are fitted independently, so slicing changes no bit: of the
        # fits, and of a bootstrap whose slices do not divide its replicas.
        rng = np.random.default_rng(63)
        rec = counts_from_phase_settings(
            setting_tables(20_000, v0=0.9, rng=rng, accidentals=2.0))
        draws = np.stack([rng.poisson(rec.counts) for _ in range(50)])
        whole = mle_batch(draws)
        parts = [mle_batch(draws[lo:lo + 16]) for lo in range(0, 50, 16)]
        assert np.concatenate([p.rho for p in parts]).tobytes() == whole.rho.tobytes()
        assert np.concatenate([p.iterations for p in parts]).tolist() == \
            whole.iterations.tolist()
        at_once = bootstrap_errors(rec, n_replicas=50, seed=4).to_json()
        monkeypatch.setattr(tomography, "BOOTSTRAP_SLICE", 16)
        assert bootstrap_errors(rec, n_replicas=50, seed=4).to_json() == at_once

    def test_memory_is_bounded_by_a_slice(self, monkeypatch):
        # Four slices of replicas peak near one: the fit arrays of a slice,
        # about 20 kB a row, go before the next is drawn, and a replica
        # keeps only its fitted state, iteration count and flag.  Fitted
        # at once, the replicas of --replicas 200000 asked for 781 MiB.
        rec = counts_from_phase_settings(setting_tables(20_000))
        monkeypatch.setattr(tomography, "BOOTSTRAP_SLICE", 64)
        peaks = []
        for n_replicas in (64, 4 * 64):
            tracemalloc.start()
            try:
                bootstrap_errors(rec, n_replicas=n_replicas, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]

    def test_rejects_single_replica(self):
        rec = counts_from_phase_settings(setting_tables(1_000))
        with pytest.raises(ValueError):
            bootstrap_errors(rec, n_replicas=1)
