import numpy as np
import pytest

from cstomo.simulate import (
    MAX_MEAN_TOTAL_COUNTS,
    MeasurementSet,
    TwoPhotonState,
    counts_to_probs,
    ell_range,
    expectations,
    joint_state_vector,
    joint_vectors,
    make_downconversion_state,
    make_max_entangled,
    random_mode,
    simulate_measurements,
    state_to_density,
)


def random_arms(d, n, rng):
    """n random projectors' (signal, idler) rows, drawn in simulate_measurements'
    order: one projector after another, signal before idler."""
    signal, idler = [], []
    for _ in range(n):
        signal.append(random_mode(d, rng))
        idler.append(random_mode(d, rng))
    return np.array(signal), np.array(idler)


def loop_arms(d, n, seed):
    """The arms as an earlier per-projector loop drew them: four generator
    calls and one np.linalg.norm per projector; the reference for the bits
    of every campaign."""
    rng = np.random.default_rng(seed)
    arms = np.empty((2, n, d), dtype=complex)
    for i in range(n):
        for arm in arms:
            amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            arm[i] = amps / np.linalg.norm(amps)
    return arms


class ZeroModeRng:
    """A generator whose draws are the real ones, but with every amplitude of
    mode ``zero`` (in C order over the draw's leading axes) set to 0."""

    def __init__(self, rng, zero):
        self.rng = rng
        self.zero = zero

    def standard_normal(self, size):
        draws = self.rng.standard_normal(size)
        draws.reshape(-1, *draws.shape[-2:])[self.zero] = 0.0
        return draws


def projector_operator(signal, idler):
    """The D×D operator |w⟩⟨w| of a single projector's (1, d) arms, from its
    joint_vectors row."""
    w = joint_vectors(signal, idler)[0]
    return np.outer(w, w.conj())


class TestTypes:
    def test_mode_vector_requires_unit_norm(self):
        signal, idler = random_arms(3, 4, np.random.default_rng(0))
        idler[2] = [1.0, 1.0, 0.0]
        with pytest.raises(ValueError, match=r"^projectors\[2\]\.idler is not normalized"):
            MeasurementSet(d=3, signal=signal, idler=idler, probs=np.zeros(4))

    def test_two_photon_state_requires_unit_norm(self):
        with pytest.raises(ValueError, match="not normalized"):
            TwoPhotonState(np.array([0.5, 0.5, 0.5]))

    @pytest.mark.parametrize("coeffs", [[np.nan, 1.0], [np.nan, np.nan, np.nan],
                                        [np.inf, 0.0, 0.0], [1.0, 1j * np.nan, 0.0]])
    def test_two_photon_state_rejects_non_finite_coefficients(self, coeffs):
        # NaN compares false against the norm tolerance, so it must fail the check
        with pytest.raises(ValueError, match="^two-photon state is not normalized"):
            TwoPhotonState(np.array(coeffs))

    def test_projector_requires_matching_arms(self):
        signal = np.ones((1, 1), dtype=complex)
        idler = np.array([[1.0, 0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match=r"signal amplitudes have shape \(1, 1\), expected \(1, 3\)"):
            MeasurementSet(d=3, signal=signal, idler=idler, probs=[0.5])
        with pytest.raises(ValueError, match=r"idler amplitudes have shape \(1, 3\), expected \(1, 1\)"):
            MeasurementSet(d=1, signal=signal, idler=idler, probs=[0.5])

    def test_measurement_set_length_mismatch(self):
        signal, idler = random_arms(3, 1, np.random.default_rng(0))
        with pytest.raises(ValueError, match="probabilities"):
            MeasurementSet(d=3, signal=signal, idler=idler, probs=np.array([0.1, 0.2]))

    def test_measurement_set_prob_range(self):
        signal, idler = random_arms(3, 1, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            MeasurementSet(d=3, signal=signal, idler=idler, probs=np.array([1.5]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_row_named(self, value):
        signal, idler = random_arms(3, 5, np.random.default_rng(1))
        signal[3, 1] = value
        idler[4] = 2 * idler[4]  # a later bad row is not the first
        with pytest.raises(ValueError, match=r"^projectors\[3\]\.signal has a non-finite amplitude$"):
            MeasurementSet(d=3, signal=signal, idler=idler, probs=np.zeros(5))


class TestStates:
    def test_max_entangled_d1(self):
        s = make_max_entangled(1)
        assert s.coeffs.tolist() == [1.0 + 0.0j]

    def test_max_entangled_d17(self):
        s = make_max_entangled(17)
        assert np.allclose(s.coeffs, 1 / np.sqrt(17))
        assert np.sum(np.abs(s.coeffs) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_max_entangled_purity_one(self):
        rho = state_to_density(make_max_entangled(7))
        assert np.vdot(rho, rho).real == pytest.approx(1.0, abs=1e-10)

    def test_max_entangled_rejects_even_d(self):
        with pytest.raises(ValueError, match="odd"):
            make_max_entangled(4)
        with pytest.raises(ValueError):
            make_max_entangled(0)

    def test_downconversion_wide_limit(self):
        wide = make_downconversion_state(5, 1e6)
        flat = make_max_entangled(5)
        assert np.abs(wide.coeffs - flat.coeffs).max() < 1e-6

    def test_downconversion_closed_form_d3(self):
        s = make_downconversion_state(3, 1.0)
        expected = np.array([np.exp(-0.5), 1.0, np.exp(-0.5)])
        expected /= np.linalg.norm(expected)
        assert np.allclose(s.coeffs, expected, atol=1e-14)

    def test_downconversion_rejects_bad_width(self):
        with pytest.raises(ValueError, match="positive"):
            make_downconversion_state(3, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("width", [1e-300, 1e-162, 5e-324, -1.0, float("nan"),
                                       float("-inf")])
    def test_downconversion_rejects_a_width_whose_square_is_not_positive(self, width):
        # below about 1.6e-162, 2*width**2 underflows to 0: no warning, no NaN state
        with pytest.raises(ValueError, match="^spiral_width and its square must be positive"):
            make_downconversion_state(5, width)

    @pytest.mark.parametrize("width, coeffs", [
        (1e-160, [0.0, 0.0, 1.0, 0.0, 0.0]),  # ℓ²/(2σ²) overflows: the central pair alone
        (1e-155, [0.0, 0.0, 1.0, 0.0, 0.0]),
        (1e200, [5**-0.5] * 5),  # width**2 would overflow: a flat spectrum
        (float("inf"), [5**-0.5] * 5),
    ])
    @pytest.mark.filterwarnings("error")
    def test_downconversion_extreme_widths_without_warnings(self, width, coeffs):
        s = make_downconversion_state(5, width)
        assert np.allclose(s.coeffs, coeffs, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("width", [2.5, 4.0, 1e-3, 1e150])
    def test_downconversion_coefficients_are_the_formula_bit_for_bit(self, width):
        ells = ell_range(7).astype(float)
        c = np.exp(-(ells**2) / (2.0 * width**2))
        assert make_downconversion_state(7, width).coeffs.tobytes() == (
            (c / np.linalg.norm(c)).astype(complex).tobytes())

    def test_ell_range(self):
        assert ell_range(5).tolist() == [-2, -1, 0, 1, 2]
        with pytest.raises(ValueError, match="odd"):
            ell_range(2)


class TestDensity:
    def test_d1_density(self):
        rho = state_to_density(TwoPhotonState(np.array([1.0 + 0j])))
        assert rho.tolist() == [[1.0 + 0j]]

    def test_max_entangled_d3_entries(self):
        # outer product by hand: 1/3 exactly at the nine (-l, l) pair slots
        rho = state_to_density(make_max_entangled(3))
        d, half = 3, 1
        hot = [(half - l) * d + (l + half) for l in (-1, 0, 1)]
        expected = np.zeros((9, 9))
        for r in hot:
            for c in hot:
                expected[r, c] = 1 / 3
        assert np.allclose(rho, expected, atol=1e-15)

    def test_trace_one_rank_one(self):
        rho = state_to_density(make_downconversion_state(5, 2.0))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        w = np.linalg.eigvalsh(rho)
        assert w[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(w[:-1], 0.0, atol=1e-12)

    def test_joint_vector_anticorrelated_slots(self):
        s = TwoPhotonState(np.array([1.0, 0, 0], dtype=complex))  # c at l=-1
        psi = joint_state_vector(s)
        # l=-1: signal l=+1 (index 2), idler l=-1 (index 0) -> slot 2*3+0
        assert psi[6] == 1.0
        assert np.count_nonzero(psi) == 1


class TestRandomDraws:
    def test_random_mode_unit_norm(self):
        rng = np.random.default_rng(0)
        for d in (1, 3, 7):
            m = random_mode(d, rng)
            assert m.shape == (d,)
            assert np.sum(np.abs(m) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_random_mode_d1_unit_modulus(self):
        m = random_mode(1, np.random.default_rng(1))
        assert abs(m[0]) == pytest.approx(1.0, abs=1e-12)

    def test_random_mode_deterministic(self):
        a = random_mode(5, np.random.default_rng(42))
        b = random_mode(5, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_random_projector_trace_one(self):
        op = projector_operator(*random_arms(5, 1, np.random.default_rng(2)))
        assert np.trace(op).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.matrix_rank(op) == 1

    def test_random_projector_idempotent(self):
        op = projector_operator(*random_arms(3, 1, np.random.default_rng(3)))
        assert np.linalg.norm(op @ op - op) < 1e-10

    def test_independent_draws_overlap(self):
        # two projectors from different seeds: strictly between 0 and 1
        a = projector_operator(*random_arms(5, 1, np.random.default_rng(4)))
        b = projector_operator(*random_arms(5, 1, np.random.default_rng(5)))
        ov = abs(np.vdot(a, b))
        assert 0.0 < ov < 1.0

    def test_arms_are_per_projector_random_mode_draws(self):
        # the RNG stream behind every campaign file: projector after projector,
        # signal before idler
        ms = simulate_measurements(5, 40, seed=21, mean_total_counts=1e3)
        signal, idler = random_arms(5, 40, np.random.default_rng(21))
        assert np.array_equal(ms.signal, signal)
        assert np.array_equal(ms.idler, idler)

    @pytest.mark.parametrize("d", [3, 5, 7, 17])
    @pytest.mark.parametrize("n", [1, 2, 13, 250])
    @pytest.mark.parametrize("seed", [0, 21, 2**40 + 7])
    def test_arms_have_the_bits_of_the_per_projector_loop(self, d, n, seed):
        # the batched draw keeps the stream order and np.linalg.norm's
        # arithmetic, so every campaign keeps its bits
        ms = simulate_measurements(d, n, seed=seed)
        signal, idler = loop_arms(d, n, seed)
        for got, want in ((ms.signal, signal), (ms.idler, idler)):
            assert got.flags.c_contiguous
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("d", [1, 4, 17])
    def test_random_mode_has_the_bits_of_the_loop(self, d):
        rng = np.random.default_rng(d)
        amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        want = amps / np.linalg.norm(amps)
        got = random_mode(d, np.random.default_rng(d))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_all_zero_mode_raises(self, monkeypatch):
        # a redraw would shift the stream, so a zero mode is an error, not a
        # division by zero; mode 5 of the campaign is projector 2's idler
        with pytest.raises(ValueError, match="^a random mode drew all-zero amplitudes$"):
            random_mode(3, ZeroModeRng(np.random.default_rng(0), 0))
        real = np.random.default_rng
        monkeypatch.setattr("cstomo.simulate.np.random.default_rng",
                            lambda seed: ZeroModeRng(real(seed), 5))
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="^a random mode drew all-zero amplitudes$"):
                simulate_measurements(3, 4, seed=0)

    def test_removed_identical_arms_is_a_type_error(self):
        # a projector's arms are always two independent draws
        with pytest.raises(TypeError, match="identical_arms"):
            simulate_measurements(5, 6, seed=6, identical_arms=True)


def probability(signal, idler, rho):
    """Tr[Â ρ] of one projector through the batched map."""
    return expectations(joint_vectors(signal[None], idler[None]), rho)[0]


class TestProbabilities:
    def test_central_mode_projector_on_max_entangled(self):
        # |l=0>_S |l=0>_I against the flat state: p = |c_0|^2 = 1/d
        for d in (3, 5, 7):
            half = (d - 1) // 2
            e0 = np.zeros(d, dtype=complex)
            e0[half] = 1.0
            rho = state_to_density(make_max_entangled(d))
            assert probability(e0, e0, rho) == pytest.approx(1 / d, abs=1e-12)

    def test_any_projector_on_maximally_mixed(self):
        d = 5
        rho = np.eye(d * d, dtype=complex) / (d * d)
        signal, idler = random_arms(d, 1, np.random.default_rng(7))
        assert probability(signal[0], idler[0], rho) == pytest.approx(1 / d**2, abs=1e-12)

    def test_matches_materialized_inner_product(self):
        rng = np.random.default_rng(8)
        d = 3
        signal, idler = random_arms(d, 1, rng)
        rho = state_to_density(make_downconversion_state(d, 1.5))
        assert probability(signal[0], idler[0], rho) == pytest.approx(
            np.vdot(projector_operator(signal, idler), rho).real, abs=1e-10
        )

    def test_dimension_mismatch(self):
        signal, idler = random_arms(3, 1, np.random.default_rng(9))
        with pytest.raises(ValueError, match="match"):
            probability(signal[0], idler[0], np.eye(4))

    def test_complete_basis_probabilities_sum_to_one(self):
        d = 3
        rho = state_to_density(make_downconversion_state(d, 1.0))
        total = 0.0
        for i in range(d):
            for j in range(d):
                s = np.zeros(d, dtype=complex)
                s[i] = 1.0
                t = np.zeros(d, dtype=complex)
                t[j] = 1.0
                total += probability(s, t, rho)
        assert total == pytest.approx(1.0, abs=1e-10)


    @pytest.mark.parametrize("identical_rows", [False, True])
    @pytest.mark.parametrize("d", [1, 3, 7])
    def test_joint_vectors_equal_kron_per_row(self, d, identical_rows):
        rng = np.random.default_rng(d)
        signal, idler = random_arms(d, 12, rng)
        if identical_rows:  # each projector's idler row equals its signal row
            idler = signal.copy()
        loop = np.array([np.kron(s, t) for s, t in zip(signal, idler)])
        assert np.array_equal(joint_vectors(signal, idler), loop)
        empty = np.empty((0, d), dtype=complex)
        assert joint_vectors(empty, empty).shape == (0, d * d)

    def test_expectations_match_per_projector_loop(self):
        rng = np.random.default_rng(13)
        d = 3
        signal, idler = random_arms(d, 15, rng)
        a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        rho = (a + a.conj().T) / 2
        loop = [np.vdot(np.kron(s, t), rho @ np.kron(s, t)).real for s, t in zip(signal, idler)]
        assert np.abs(expectations(joint_vectors(signal, idler), rho) - loop).max() <= 1e-12


class TestCounts:
    def test_poisson_mean(self):
        # the counts' summed deviation from p*C over 1000 projectors, each
        # Poisson with variance p*C, within 3 sigma of zero; the noiseless
        # campaign of the same seed draws the same projectors
        c = 1e6
        ideal = simulate_measurements(3, 1000, seed=11).probs
        counts = simulate_measurements(3, 1000, seed=11, mean_total_counts=c).counts
        sigma = np.sqrt(np.sum(ideal * c))
        assert abs(np.sum(counts - ideal * c)) < 3 * sigma

    def test_counts_to_probs(self):
        assert counts_to_probs([0, 0, 0], 100.0).tolist() == [0.0, 0.0, 0.0]
        assert counts_to_probs([100], 100.0).tolist() == [1.0]
        assert counts_to_probs([150], 100.0).tolist() == [1.0]  # clamped

    def test_counts_to_probs_exact_inverse(self):
        probs = np.array([0.125, 0.5, 0.03125])
        c = 256.0
        counts = probs * c  # exact in binary floating point
        assert counts_to_probs(counts, c).tolist() == probs.tolist()

    def test_counts_to_probs_rejects_bad_calibration(self):
        with pytest.raises(ValueError, match="positive"):
            counts_to_probs([1], 0.0)

    @pytest.mark.parametrize("calibration", [float("inf"), float("nan")])
    def test_counts_to_probs_rejects_non_finite_calibration(self, calibration):
        with pytest.raises(ValueError, match="positive and finite"):
            counts_to_probs([1], calibration)


class TestSimulateMeasurements:
    def test_noiseless_probs_are_ideal(self):
        ms = simulate_measurements(3, 10, seed=1)
        rho = state_to_density(ms.truth)
        expected = [np.vdot(np.kron(s, t), rho @ np.kron(s, t)).real
                    for s, t in zip(ms.signal, ms.idler)]
        assert np.allclose(ms.probs, expected, atol=1e-15)
        assert ms.counts is None and ms.calibration is None

    def test_noisy_records_calibration_and_counts(self):
        ms = simulate_measurements(3, 25, seed=2, mean_total_counts=1e4)
        assert ms.calibration == 1e4
        assert ms.counts is not None and len(ms.counts) == 25
        assert np.allclose(ms.probs, np.clip(ms.counts / 1e4, 0, 1))

    def test_deterministic_for_seed(self):
        a = simulate_measurements(3, 8, seed=3, mean_total_counts=1e3)
        b = simulate_measurements(3, 8, seed=3, mean_total_counts=1e3)
        assert np.array_equal(a.probs, b.probs)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.signal, b.signal)
        assert np.array_equal(a.idler, b.idler)

    def test_rejects_zero_measurements(self):
        with pytest.raises(ValueError, match="at least one"):
            simulate_measurements(3, 0, seed=0)

    @pytest.mark.parametrize("counts", [0.0, -1.0, float("inf"), float("nan"), 1e30,
                                        np.nextafter(MAX_MEAN_TOTAL_COUNTS, np.inf)])
    def test_rejects_bad_mean_total_counts(self, counts):
        with pytest.raises(ValueError, match="must be positive and finite"):
            simulate_measurements(3, 5, seed=0, mean_total_counts=counts)

    @pytest.mark.parametrize("counts", [-1.0, float("nan")])
    def test_bad_mean_total_counts_fails_before_any_draw(self, monkeypatch, counts):
        draws = []

        class CountingRng:
            def __init__(self, seed):
                self.rng = real(seed)

            def __getattr__(self, name):
                def draw(*args, **kwargs):
                    draws.append(name)
                    return getattr(self.rng, name)(*args, **kwargs)
                return draw

        real = np.random.default_rng
        monkeypatch.setattr("cstomo.simulate.np.random.default_rng", CountingRng)
        with pytest.raises(ValueError, match="must be positive and finite"):
            simulate_measurements(3, 5, seed=0, mean_total_counts=counts)
        assert draws == []
        simulate_measurements(3, 5, seed=0, mean_total_counts=300)
        # one draw of every mode, then one of the counts
        assert draws == ["standard_normal", "poisson"]

    def test_accepts_the_largest_mean_total_counts(self):
        # the bound lies below numpy's Poisson limit: a campaign at it samples
        ms = simulate_measurements(3, 5, seed=0, mean_total_counts=MAX_MEAN_TOTAL_COUNTS)
        assert ms.calibration == MAX_MEAN_TOTAL_COUNTS
        assert np.array_equal(ms.probs, np.clip(ms.counts / MAX_MEAN_TOTAL_COUNTS, 0, 1))
