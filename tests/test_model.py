import hashlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import hamiltonian, reference_json, third_order_tensor
from isingmarket import model
from isingmarket.inference import InferenceConfig, infer
from isingmarket.model import (IsingParams, SampleStats, _floats_json, _gelman_rubin,
                               _odd_tokens, _simulate, boltzmann_distribution,
                               encode_states, energy_split, enumerate_states,
                               exact_moments_small, metropolis_sample,
                               params_from_json, params_to_json,
                               third_order_from_samples, write_params)
from isingmarket.stats import window_stats
from isingmarket.synthetic import random_model


def coupling_matrix(n, pairs):
    j = np.zeros((n, n))
    for i, k, v in pairs:
        j[i, k] = j[k, i] = v
    return j


class TestIsingParams:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            IsingParams(np.zeros(2), np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            IsingParams(np.zeros(2), np.eye(2))

    @pytest.mark.parametrize("big", [1.7976931348623157e308, -1.7976931348623157e308])
    def test_rejects_coupling_that_overflows_when_symmetrized(self, big):
        # (j + j.T) / 2 overflows to inf for |J_ij| above about 8.99e307
        with pytest.raises(ValueError, match="parameters must be finite"):
            IsingParams(np.zeros(2), [[0.0, big], [big, 0.0]])

    def test_symmetric_coupling_checked_without_float_temporaries(self):
        n = 200
        a = np.random.default_rng(0).normal(size=(n, n))
        j = (a + a.T) / 2.0
        np.fill_diagonal(j, 0.0)
        h = np.zeros(n)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            params = IsingParams(h, j)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the stored (J + J^T) / 2 and boolean masks, no float temporary
        assert peak - base < 1.5 * n * n * 8
        assert params.J.tobytes() == j.tobytes()

    def test_json_round_trip(self):
        params = random_model(5, 0.5, 0.3, seed=1)
        again = params_from_json(params_to_json(params))
        np.testing.assert_array_equal(again.h, params.h)
        np.testing.assert_array_equal(again.J, params.J)
        assert again.tickers == params.tickers


class TestParamsJson:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 200])
    def test_matches_json_dumps(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(scale=0.1, size=(n, n))
        j = a + a.T
        np.fill_diagonal(j, 0.0)
        tickers = tuple(f"S{i:03d}" for i in range(n)) or None
        params = IsingParams(rng.normal(size=n), j, tickers=tickers)
        data = params_to_json(params)
        assert data == reference_json(params).encode()
        assert params_to_json(params_from_json(data)) == data  # N = 0 too

    def test_edge_values_and_tickers(self):
        # -0.0, the smallest subnormal and normal, the largest float, both
        # repr exponent switch points and the values on either side of
        # them; rows 6 and 7 hold only values that orjson prints as repr
        # does, 1e-4 and 9999999999999998.0 among them
        j = coupling_matrix(8, [(0, 1, -0.0), (0, 2, 5e-324), (1, 3, 1e-05),
                                (2, 3, 1e+16), (0, 3, -1e-05), (0, 4, 9.99e-05),
                                (1, 2, -1.234e-05), (1, 4, 1e-4), (2, 4, -1e-07),
                                (3, 4, 1.5e17), (0, 5, 1e22),
                                (2, 5, 2.2250738585072014e-308), (6, 7, 1e-4),
                                (1, 6, 9999999999999998.0), (5, 7, -0.25)])
        h = np.array([-0.0, 5e-324, 1e16, -2.5, 1.7976931348623157e308,
                      2.2250738585072014e-308, 1e22, -1e-07])
        for tickers in (None, ('A"B', "C\\D", "Ünï", "日本", "e", "f", "g", "h")):
            params = IsingParams(h, j, tickers=tickers)
            assert params_to_json(params) == reference_json(params).encode()

    def test_log_uniform_sweep_matches_json_dumps(self):
        # magnitudes from underflow to 1e300, about a tenth of them -0.0
        rng = np.random.default_rng(1234)

        def draw(size):
            values = rng.normal(size=size) * 10.0 ** rng.integers(-330, 301, size=size)
            return np.where(rng.random(size) < 0.1, -0.0, values)

        for _ in range(300):
            n = int(rng.integers(1, 41))
            upper = np.triu_indices(n, k=1)
            j = np.zeros((n, n))
            j[upper] = draw(upper[0].size)
            j.T[upper] = j[upper]
            params = IsingParams(draw(n), j)
            assert params_to_json(params) == reference_json(params).encode()

    def test_odd_tokens_at_row_edges(self):
        # values orjson writes in another notation (0 < |x| < 1e-4 or
        # |x| >= 1e16): several in one row, in its first and last column;
        # a row whose every off-diagonal value is odd; h with odd values
        # at index 0 and N-1, and an h made only of odd values
        n = 6
        j = coupling_matrix(n, [(0, 1, 3e-05), (0, 3, -2.5e17), (0, 5, 1e-07),
                                (1, 5, 7.25), (2, 3, 0.125)])
        j[4, :4] = j[:4, 4] = [-4e-06, 1e16, 6.02e23, -9.99e-05]
        j[4, 5] = j[5, 4] = 5e-324
        for h in ([1e-05, 0.5, -0.25, 2.0, 0.75, -3e20],
                  [1e-07, -2e-05, 1e16, -5e-324, 8e-05, 1e300]):
            params = IsingParams(np.array(h), j)
            assert params_to_json(params) == reference_json(params).encode()
        # J's diagonal is never odd; any row may have odd ends
        m = np.array([[1e-07, 0.5, 2e16], [-0.0, 3.5, 1.5], [4e-05, 0.25, -1e300]])
        for row in m:
            odd = np.flatnonzero(_odd_tokens(row))
            assert _floats_json(row, odd) == json.dumps(row.tolist()).encode()

    @pytest.mark.parametrize("h", [0.3, 1e-07, -2e16, 0.0])
    def test_single_spin(self, h):
        params = IsingParams(np.array([h]), np.zeros((1, 1)), tickers=("A",))
        assert params_to_json(params) == reference_json(params).encode()

    def test_reads_bytes_and_str_alike(self):
        rng = np.random.default_rng(9)
        a = rng.normal(scale=0.05, size=(12, 12)) * 10.0 ** rng.integers(-9, 20, (12, 12))
        j = a + a.T
        np.fill_diagonal(j, 0.0)
        data = params_to_json(IsingParams(rng.normal(size=12), j))
        from_bytes, from_str = params_from_json(data), params_from_json(data.decode())
        assert from_bytes.h.tobytes() == from_str.h.tobytes()
        assert from_bytes.J.tobytes() == from_str.J.tobytes()
        assert from_bytes.tickers is from_str.tickers is None

    @pytest.mark.parametrize("h, j", [("[]", "[[]]"), ("[]", "[0.0]"),
                                      ("[0.5]", "[]"), ("[0.5, 0.1]", "[0.0, 0.0]")])
    def test_wrong_j_shape_rejected(self, h, j):
        with pytest.raises(ValueError, match="shape mismatch"):
            params_from_json(f'{{"tickers": null, "h": {h}, "J": {j}}}')

    @pytest.mark.parametrize("n", [0, 1, 64, 65, 129, 200])
    def test_streamed_blocks_match_json_dumps(self, n):
        # odd-notation tokens in the first and last row and column of J,
        # each row of which is formatted and written on its own
        rng = np.random.default_rng(n)
        a = rng.normal(scale=0.1, size=(n, n))
        j = a + a.T
        odd = (1e-07, 9.99e-05, 1e+16)
        for r in {0, n - 1} if n else ():
            for c, value in zip((0, n // 2, n - 1), odd):
                j[r, c] = j[c, r] = value
        np.fill_diagonal(j, 0.0)
        h = rng.normal(size=n)
        if n:
            h[0], h[-1] = -1e-07, 1e+16
        params = IsingParams(h, j, tickers=tuple(f"S{i:03d}" for i in range(n)) or None)
        expected = reference_json(params).encode()
        buf = io.BytesIO()
        write_params(buf, params)
        assert buf.getvalue() == expected
        assert params_to_json(params) == expected

    def test_writing_a_document_holds_no_whole_copy(self, tmp_path):
        rng = np.random.default_rng(200)
        block = rng.choice([-1.0, 1.0], size=(200, 250))
        params = infer(window_stats(block), InferenceConfig(method="nmf")).params
        with open(tmp_path / "params.json", "wb") as fh:
            tracemalloc.start()
            try:
                base, _ = tracemalloc.get_traced_memory()
                write_params(fh, params)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # one row formatted at a time; the document is 0.84 MB
        assert peak - base < 0.5e6
        assert (tmp_path / "params.json").read_bytes() == reference_json(params).encode()

    def test_round_trip_bit_exact_at_n200(self):
        rng = np.random.default_rng(200)
        a = rng.normal(scale=0.05, size=(200, 200))
        j = a + a.T
        np.fill_diagonal(j, 0.0)
        params = IsingParams(rng.normal(size=200), j,
                             tickers=tuple(f"S{i:03d}" for i in range(200)))
        again = params_from_json(params_to_json(params))
        assert again.h.tobytes() == params.h.tobytes()
        assert again.J.tobytes() == params.J.tobytes()
        assert again.tickers == params.tickers

    # finite float64 values, subnormals and -0.0 included, with the values
    # on either side of repr's exponent switch points drawn often
    FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64) | st.sampled_from(
        [-0.0, 5e-324, 1e-07, -9.99e-05, 1e-05, 1e-4, 9999999999999998.0, 1e16, -1.5e17])

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(arrays(np.float64, st.integers(0, 40), elements=FINITE))
    def test_any_finite_vector_matches_json_dumps(self, v):
        expected = json.dumps(v.tolist()).encode()
        assert _floats_json(v, np.flatnonzero(_odd_tokens(v))) == expected
        # as h, and as J's first row and column where J's (J + J^T) / 2 stays finite
        j = np.zeros((v.size, v.size))
        if v.size:
            j[0, 1:] = j[1:, 0] = np.where(np.abs(v[1:]) < 1e300, v[1:], 0.0)
        params = IsingParams(v, j)
        assert params_to_json(params) == reference_json(params).encode()


class TestHamiltonian:
    def test_zero_params_zero_energy(self):
        params = IsingParams(np.zeros(3), np.zeros((3, 3)))
        for s in enumerate_states(3):
            assert hamiltonian(params, s) == 0.0

    def test_two_spin_double_count(self):
        # the quadratic form s'Js counts the pair twice
        j = 0.3
        params = IsingParams(np.zeros(2), coupling_matrix(2, [(0, 1, j)]))
        assert hamiltonian(params, [1.0, 1.0]) == pytest.approx(-2 * j)
        assert hamiltonian(params, [1.0, -1.0]) == pytest.approx(2 * j)

    def test_flip_delta_matches_local_field(self):
        # dE = 2 s_i (h_i + 2 sum_j J_ij s_j), checked against full recompute
        rng = np.random.default_rng(0)
        for _ in range(20):
            params = random_model(6, 1.0, 0.5, seed=rng.integers(1 << 30))
            s = rng.choice([-1.0, 1.0], size=6)
            i = rng.integers(6)
            flipped = s.copy()
            flipped[i] = -flipped[i]
            de_full = hamiltonian(params, flipped) - hamiltonian(params, s)
            de_local = 2 * s[i] * (params.h[i] + 2 * params.J[i] @ s)
            assert de_full == pytest.approx(de_local, abs=1e-10)

    def test_global_flip_symmetry_at_zero_field(self):
        params = random_model(5, 0.0, 0.4, seed=2)
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = rng.choice([-1.0, 1.0], size=5)
            assert hamiltonian(params, s) == pytest.approx(hamiltonian(params, -s))

    def test_boltzmann_distribution_is_exp_minus_energy(self):
        params = random_model(5, 0.6, 0.4, seed=4)
        weights = np.exp([-hamiltonian(params, s) for s in enumerate_states(5)])
        np.testing.assert_allclose(boltzmann_distribution(params),
                                   weights / weights.sum(), rtol=1e-12)


class TestExactMoments:
    def test_single_spin_tanh(self):
        params = IsingParams(np.array([0.7]), np.zeros((1, 1)))
        assert exact_moments_small(params).means[0] == pytest.approx(np.tanh(0.7))

    def test_zero_field_means_vanish(self):
        params = random_model(6, 0.0, 0.5, seed=4)
        np.testing.assert_allclose(exact_moments_small(params).means, 0.0,
                                   atol=1e-14)

    def test_two_spin_hand_enumeration(self):
        # 4-state sum: <s1 s2> = tanh(2j) under the double-count energy
        j = 0.4
        params = IsingParams(np.zeros(2), coupling_matrix(2, [(0, 1, j)]))
        got = exact_moments_small(params).pair_moments[0, 1]
        # hand enumeration of the four states
        weights = {s: math.exp(2 * j * s[0] * s[1]) for s in
                   [(1, 1), (1, -1), (-1, 1), (-1, -1)]}
        z = sum(weights.values())
        expected = sum(s[0] * s[1] * w for s, w in weights.items()) / z
        assert got == pytest.approx(expected, abs=1e-14)
        assert got == pytest.approx(np.tanh(2 * j), abs=1e-14)

    def test_matches_distribution(self):
        params = random_model(4, 0.5, 0.5, seed=5)
        probs = boltzmann_distribution(params)
        states = enumerate_states(4)
        np.testing.assert_allclose(exact_moments_small(params).means,
                                   probs @ states, atol=1e-14)

    def test_one_enumeration_per_call(self, monkeypatch):
        params = random_model(6, 0.3, 0.3, seed=7)
        probs, states = boltzmann_distribution(params), enumerate_states(6)
        calls = []

        def counted(n):
            calls.append(n)
            return enumerate_states(n)

        monkeypatch.setattr(model, "enumerate_states", counted)
        got = exact_moments_small(params)
        assert calls == [6]
        # the same sums as over a distribution enumerated on its own
        assert got.means.tobytes() == (probs @ states).tobytes()
        assert got.sample_count == 64
        calls.clear()
        metropolis_sample(params, n_sweeps=1, n_burnin=0, n_chains=4, seed=0, init="exact")
        assert calls == [6]

    def test_enumeration_guard(self):
        params = random_model(17, 0.1, 0.1, seed=6)
        with pytest.raises(ValueError, match="N <= 16"):
            exact_moments_small(params)

    def test_encode_inverts_enumerate(self):
        states = enumerate_states(5)
        np.testing.assert_array_equal(encode_states(states), np.arange(32))


class TestMetropolis:
    def test_single_spin_mean(self):
        params = IsingParams(np.array([0.5]), np.zeros((1, 1)))
        stats = metropolis_sample(params, n_sweeps=400, n_burnin=100,
                                  n_chains=50, seed=0)
        se = stats.se_means[0]
        assert abs(stats.means[0] - np.tanh(0.5)) < 3 * se

    def test_two_spin_pair_moment_vs_oracle(self):
        params = IsingParams(np.zeros(2), coupling_matrix(2, [(0, 1, 0.5)]))
        exact = exact_moments_small(params).pair_moments[0, 1]
        stats = metropolis_sample(params, n_sweeps=400, n_burnin=100,
                                  n_chains=100, seed=1)
        assert abs(stats.pair_moments[0, 1] - exact) < 3 * stats.se_pairs[0, 1]

    def test_se_pairs_match_einsum_reference(self):
        params = random_model(6, 0.4, 0.3, seed=3)
        stats = metropolis_sample(params, n_sweeps=40, n_burnin=10,
                                  n_chains=30, seed=9)
        cf = _simulate(params, 30, 40, 10, np.random.default_rng(9)).astype(np.float64)
        chain_pairs = np.einsum("cti,ctj->cij", cf, cf) / 40
        reference = chain_pairs.std(axis=0, ddof=1) / math.sqrt(30)
        assert stats.se_pairs.tobytes() == reference.tobytes()

    def test_state_distribution_against_exhaustive(self):
        params = random_model(4, 0.6, 0.4, seed=7)
        stats = metropolis_sample(params, n_sweeps=500, n_burnin=150,
                                  n_chains=400, seed=2, track_states=True)
        emp = stats.state_counts / stats.state_counts.sum()
        tv = 0.5 * np.abs(emp - boltzmann_distribution(params)).sum()
        assert tv < 0.02

    def test_zero_field_means_within_error(self):
        params = random_model(5, 0.0, 0.3, seed=8)
        stats = metropolis_sample(params, n_sweeps=300, n_burnin=100,
                                  n_chains=100, seed=3)
        assert np.all(np.abs(stats.means) < 4 * stats.se_means + 1e-12)

    def test_deterministic_given_seed(self):
        params = random_model(3, 0.3, 0.3, seed=9)
        a = metropolis_sample(params, 50, 20, 10, seed=11)
        b = metropolis_sample(params, 50, 20, 10, seed=11)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.pair_moments, b.pair_moments)

    def test_pair_diagonal_identically_one(self):
        params = random_model(4, 0.2, 0.2, seed=10)
        stats = metropolis_sample(params, 50, 20, 10, seed=12)
        np.testing.assert_array_equal(np.diag(stats.pair_moments), 1.0)

    def test_tv_distance_decreases_with_sweeps(self):
        # from a cold random start, more sweeps bring the empirical state
        # distribution closer to the exact one
        params = random_model(4, 0.3, 0.2, seed=20)
        probs = boltzmann_distribution(params)

        def tv(n_sweeps, n_burnin):
            stats = metropolis_sample(params, n_sweeps=n_sweeps,
                                      n_burnin=n_burnin, n_chains=300,
                                      seed=6, track_states=True)
            emp = stats.state_counts / stats.state_counts.sum()
            return 0.5 * np.abs(emp - probs).sum()

        assert tv(400, 100) < tv(4, 0)

    def test_exact_init_starts_in_equilibrium(self):
        params = random_model(4, 0.5, 0.5, seed=21)
        stats = metropolis_sample(params, n_sweeps=50, n_burnin=0,
                                  n_chains=2000, seed=7, track_states=True,
                                  init="exact")
        emp = stats.state_counts / stats.state_counts.sum()
        tv = 0.5 * np.abs(emp - boltzmann_distribution(params)).sum()
        assert tv < 0.05

    @pytest.mark.parametrize("n_burnin,n_chains", [(-1, 4), (0, 0)])
    def test_negative_burnin_and_zero_chains_rejected(self, n_burnin, n_chains):
        # a negative burn-in would leave the first record uninitialised
        with pytest.raises(ValueError, match="n_burnin >= 0 and at least one chain"):
            metropolis_sample(random_model(6, 0.1, 0.1, seed=0), n_sweeps=5,
                              n_burnin=n_burnin, n_chains=n_chains, seed=0)



def _digest(*arrays) -> str:
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


class TestPersistentChains:
    # recorded with the sampler before array starts existed; any change to
    # how the "random" or "exact" start consumes the generator moves them
    PINNED = {
        "random": ("d1e5cace12e1c7a51937759adebab3ebc37271950b81b69f879fafa8497bad14",
                   "055b5a50cb2c4c5fd106a361b270f7129ed1e1a3ec170af7e97146c444050a30"),
        "exact": ("6b6bbb197b3ccc61e4d9b2df83fb1d37ff0aee797486710af18cd8fa298f5bf3",
                  "625a175d959e20a537c81e3888f89949c1e2fc35ffdef4de225554513f7fee75"),
    }

    @pytest.mark.parametrize("init", ["random", "exact"])
    def test_named_starts_pinned(self, init):
        params = random_model(6, 0.3, 0.3, seed=5)
        states = _simulate(params, 20, 15, 5, np.random.default_rng(2024), init=init)
        stats = metropolis_sample(params, 15, 5, 20, seed=2024, init=init)
        assert (_digest(states),
                _digest(stats.means, stats.pair_moments, stats.se_means,
                        stats.se_pairs)) == self.PINNED[init]

    @pytest.mark.parametrize("init,match", [
        (np.ones((4, 5)), "shape"),
        (np.ones(6), "shape"),
        (np.ones((5, 6)), "shape"),
        (np.where(np.eye(4, 6) > 0, 0, 1), "-1 or \\+1"),
        (np.full((4, 6), 0.5), "-1 or \\+1"),
    ])
    def test_bad_start_states_rejected(self, init, match):
        with pytest.raises(ValueError, match=match):
            metropolis_sample(random_model(6, 0.1, 0.1, seed=0), n_sweeps=5,
                              n_burnin=0, n_chains=4, seed=0, init=init)

    def test_final_states_are_the_last_record(self):
        params = random_model(5, 0.2, 0.3, seed=4)
        stats = metropolis_sample(params, 12, 3, 7, seed=8)
        states = _simulate(params, 7, 12, 3, np.random.default_rng(8))
        assert stats.final_states.dtype == np.int8
        np.testing.assert_array_equal(stats.final_states, states[:, -1, :])

    def test_given_states_are_the_start(self):
        # the first recorded sweep is one sweep away from the given states:
        # a chain whose every flip is refused stays where it started
        params = IsingParams(np.full(3, 40.0), np.zeros((3, 3)))
        start = np.array([[1, 1, 1], [1, -1, 1]], dtype=np.int8)
        states = _simulate(params, 2, 1, 0, np.random.default_rng(0), init=start)
        np.testing.assert_array_equal(states[0, 0], [1, 1, 1])
        np.testing.assert_array_equal(start, [[1, 1, 1], [1, -1, 1]])  # not mutated

    def test_continuing_equilibrium_chains_matches_oracle(self):
        params = random_model(4, 0.5, 0.4, seed=31)
        exact = exact_moments_small(params)
        warm = metropolis_sample(params, n_sweeps=5, n_burnin=0, n_chains=2000,
                                 seed=3, init="exact")
        cont = metropolis_sample(params, n_sweeps=50, n_burnin=0, n_chains=2000,
                                 seed=4, init=warm.final_states)
        assert np.all(np.abs(cont.means - exact.means) < 3 * cont.se_means)
        iu = np.triu_indices(4, k=1)
        gap = np.abs(cont.pair_moments - exact.pair_moments)[iu]
        assert np.all(gap < 3 * cont.se_pairs[iu])


def reference_simulate(params, n_chains, n_sweeps, n_burnin, rng, init):
    """The Metropolis step written out: local field, energy change, accept.

    It makes the same two generator calls per step as `_simulate`, so its
    recorded states must equal the sampler's bit for bit.
    """
    n = params.n
    h, j = params.h, params.J
    if not isinstance(init, str):
        s = np.array(init, dtype=np.float64)
    elif init == "exact":
        picks = rng.choice(2**n, size=n_chains, p=boltzmann_distribution(params))
        s = enumerate_states(n)[picks]
    else:
        s = rng.choice(np.array([-1.0, 1.0]), size=(n_chains, n))
    out = np.empty((n_chains, n_sweeps, n), dtype=np.int8)
    rows = np.arange(n_chains)
    for sweep in range(n_burnin + n_sweeps):
        for _ in range(n):
            sites = rng.integers(0, n, size=n_chains)
            local = h[sites] + 2.0 * np.einsum("cn,cn->c", j[sites], s)
            cur = s[rows, sites]
            de = 2.0 * cur * local
            accept = rng.random(n_chains) < np.exp(np.minimum(-de, 0.0))
            s[rows[accept], sites[accept]] = -cur[accept]
        if sweep >= n_burnin:
            out[:, sweep - n_burnin, :] = s
    return out


def start_states(n_chains, n, seed):
    """Named and array starts; array starts in several layouts and dtypes."""
    spins = np.where(np.random.default_rng(seed).random((n_chains, n)) < 0.5, -1, 1)
    strided = np.zeros((2 * n_chains, 3 * n))
    strided[::2, 1::3] = spins
    starts = {"random": "random", "int8": spins.astype(np.int8),
              "fortran": np.asfortranarray(spins, dtype=np.float64),
              "strided": strided[::2, 1::3]}
    if n <= 7:
        starts["exact"] = "exact"
    return starts


def moments_of(states):
    """metropolis_sample's fields, computed from recorded states."""
    n_chains, n_sweeps, n = states.shape
    flat = states.reshape(-1, n).astype(np.float64)
    pair = flat.T @ flat / flat.shape[0]
    pair = (pair + pair.T) / 2.0
    np.fill_diagonal(pair, 1.0)
    want = {"means": flat.mean(axis=0), "pair_moments": pair,
            "final_states": states[:, -1, :].copy(),
            "se_means": None, "se_pairs": None, "r_hat": None}
    if n_chains > 1:
        chain_means = states.mean(axis=1)
        cf = states.astype(np.float64)
        chain_pairs = np.einsum("cti,ctj->cij", cf, cf) / n_sweeps
        want["se_means"] = chain_means.std(axis=0, ddof=1) / math.sqrt(n_chains)
        want["se_pairs"] = chain_pairs.std(axis=0, ddof=1) / math.sqrt(n_chains)
        want["r_hat"] = _gelman_rubin(chain_means, n_sweeps)
    return want


class TestStepOracle:
    SWEEPS = 2

    @pytest.mark.parametrize("n_burnin", [0, 5])
    @pytest.mark.parametrize("n_chains", [1, 3, 500])
    @pytest.mark.parametrize("n", [1, 2, 7, 24, 60])
    def test_states_and_moments_match_reference(self, n, n_chains, n_burnin):
        params = random_model(n, 0.4, 0.3, seed=n)
        seed = 100 * n + n_chains + n_burnin
        for name, init in start_states(n_chains, n, seed).items():
            given = None if isinstance(init, str) else init.copy()
            ref = reference_simulate(params, n_chains, self.SWEEPS, n_burnin,
                                     np.random.default_rng(seed), init)
            states = _simulate(params, n_chains, self.SWEEPS, n_burnin,
                               np.random.default_rng(seed), init=init)
            assert states.tobytes() == ref.tobytes(), name
            got = metropolis_sample(params, self.SWEEPS, n_burnin, n_chains,
                                    seed=seed, init=init)
            if given is not None:
                assert init.tobytes() == given.tobytes(), name
            want = moments_of(ref)
            for key, value in want.items():
                have = getattr(got, key)
                assert (have is None) == (value is None), (name, key)
                if value is not None:
                    assert have.dtype == value.dtype, (name, key)
                    assert have.tobytes() == value.tobytes(), (name, key)


class TestMomentBlocks:
    """The moments, read from the int8 record block by block, are those of
    one float64 copy of it, whatever the shape of the last block."""

    SHAPES = {  # (n, n_sweeps, n_chains, block values or None for the default)
        "chains not a multiple of the block": (24, 100, 500, None),  # 27 chains a block
        "small block, chains not a multiple": (5, 4, 13, 64),        # 3 chains a block
        "chain longer than the block": (5, 30, 4, 64),               # 12 sweeps a block
        "one chain": (6, 40, 1, 64),                                 # 10 sweeps a block
        "one sweep": (6, 1, 9, 16),                                  # 2 chains a block
        "record below one block": (4, 5, 3, None),
    }

    @pytest.mark.parametrize("n,n_sweeps,n_chains,block", SHAPES.values(), ids=SHAPES.keys())
    def test_matches_float64_reference(self, monkeypatch, n, n_sweeps, n_chains, block):
        if block is not None:
            monkeypatch.setattr(model, "_BLOCK_VALUES", block)
        params = random_model(n, 0.4, 0.3, seed=n)
        states = _simulate(params, n_chains, n_sweeps, 3, np.random.default_rng(n_chains))
        got = metropolis_sample(params, n_sweeps, 3, n_chains, seed=n_chains,
                                with_third_order=True, track_states=n <= 16)
        want = moments_of(states)
        flat = states.reshape(-1, n).astype(np.float64)
        want["third_order"] = third_order_from_samples(flat)
        if n <= 16:
            want["state_counts"] = np.bincount(encode_states(flat), minlength=2**n)
        for key, value in want.items():
            have = getattr(got, key)
            assert (have is None) == (value is None), key
            if value is not None:
                assert have.dtype == value.dtype, key
                assert have.tobytes() == value.tobytes(), key

    def test_model_without_spins_rejected(self):
        # an N = 0 params file reads back; sampling it used to fail inside numpy
        with pytest.raises(ValueError, match="no spins"):
            metropolis_sample(IsingParams(np.zeros(0), np.zeros((0, 0))), 5, seed=0)

    def test_traced_peak_below_a_float64_copy_of_the_record(self):
        # the int8 record is 1.2 MB and a float64 copy of it 9.6 MB
        assert traced_sample_peak() < 8e6

    def test_traced_peak_holds_one_pair_moment_array(self):
        # the per-chain pair moments take 2.3 MB; their spread is taken in
        # place, and one float64 block buffer (0.5 MB) serves every block.
        # Before, a copy of the deviations made the peak 6.25 MB
        assert traced_sample_peak() < 6.25e6 - 2e6


def traced_sample_peak():
    """tracemalloc peak of one N=24, 500-chain, 100-sweep metropolis_sample call."""
    params = random_model(24, 0.1, 0.05, seed=1)
    metropolis_sample(params, 2, 0, 2, seed=0)  # first-call allocations
    tracemalloc.start()
    try:
        metropolis_sample(params, n_sweeps=100, n_burnin=10, n_chains=500, seed=3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def ferromagnet(n, coupling):
    j = np.full((n, n), coupling)
    np.fill_diagonal(j, 0.0)
    return IsingParams(np.zeros(n), j)


class TestRHat:
    def test_mixed_chains_near_one(self):
        stats = metropolis_sample(random_model(6, 0.1, 0.1, seed=0), n_sweeps=100,
                                  n_burnin=100, n_chains=500, seed=0)
        assert stats.r_hat.shape == (6,)
        assert stats.r_hat.max() < 1.05

    def test_unmixed_ferromagnet_flagged(self):
        # half the chains start all up, half all down; 20 sweeps at J=0.15
        # are too few to cross between the two magnetized modes
        start = np.ones((500, 8), dtype=np.int8)
        start[250:] = -1
        stats = metropolis_sample(ferromagnet(8, 0.15), n_sweeps=20, n_burnin=0,
                                  n_chains=500, seed=1, init=start)
        assert stats.r_hat.max() > 1.5

    def test_matches_textbook_formula(self):
        params = random_model(5, 0.3, 0.3, seed=6)
        stats = metropolis_sample(params, n_sweeps=30, n_burnin=5, n_chains=12, seed=2)
        x = _simulate(params, 12, 30, 5, np.random.default_rng(2)).astype(np.float64)
        w = x.var(axis=1, ddof=1).mean(axis=0)
        b_over_n = x.mean(axis=1).var(axis=0, ddof=1)
        np.testing.assert_allclose(stats.r_hat,
                                   np.sqrt((29 / 30 * w + b_over_n) / w), rtol=1e-12)

    def test_frozen_spins(self):
        # at J=0.5 no spin flips: chains that disagree give inf, agree give NaN
        split = np.ones((6, 4), dtype=np.int8)
        split[3:] = -1
        frozen = ferromagnet(4, 0.5)
        disagree = metropolis_sample(frozen, 10, 0, 6, seed=0, init=split)
        agree = metropolis_sample(frozen, 10, 0, 6, seed=0, init=np.ones((6, 4)))
        assert np.all(np.isinf(disagree.r_hat))
        assert np.all(np.isnan(agree.r_hat))

    @pytest.mark.parametrize("n_chains,n_sweeps", [(1, 20), (5, 1)])
    def test_undefined_without_two_chains_and_two_sweeps(self, n_chains, n_sweeps):
        stats = metropolis_sample(random_model(3, 0.1, 0.1, seed=0), n_sweeps,
                                  5, n_chains, seed=0)
        assert stats.r_hat is None

class TestThirdOrder:
    def test_independent_symmetric_spins_vanish(self):
        rng = np.random.default_rng(12)
        samples = rng.choice([-1.0, 1.0], size=(20_000, 3))
        t = third_order_from_samples(samples)
        assert np.abs(t).max() < 0.05

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(13)
        t = third_order_from_samples(rng.normal(size=(500, 4)))
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)):
            np.testing.assert_allclose(t, np.transpose(t, perm), atol=1e-12)

    def test_cross_module_oracle(self):
        # the window-statistics einsum is an independent route to the same tensor
        rng = np.random.default_rng(14)
        samples = rng.normal(size=(300, 5))
        np.testing.assert_allclose(third_order_from_samples(samples),
                                   third_order_tensor(samples.T), atol=1e-12)

    def test_sampler_tensor_matches_helper(self):
        params = random_model(3, 0.4, 0.3, seed=15)
        stats = metropolis_sample(params, 100, 50, 20, seed=5,
                                  with_third_order=True)
        assert stats.third_order.shape == (3, 3, 3)
        np.testing.assert_allclose(stats.third_order,
                                   np.transpose(stats.third_order, (2, 1, 0)),
                                   atol=1e-12)


class TestEnergySplit:
    def test_zero_field(self):
        params = random_model(4, 0.0, 0.5, seed=16)
        split = energy_split(params, np.full(4, 0.3))
        assert split.e_ext == 0.0
        assert split.energy_ratio == 0.0

    def test_zero_couplings(self):
        params = IsingParams(np.array([0.2, -0.1]), np.zeros((2, 2)))
        split = energy_split(params, np.array([0.5, -0.5]))
        np.testing.assert_array_equal(split.h_int, 0.0)
        assert split.e_int == 0.0
        assert math.isinf(split.bias_ratio)

    def test_energy_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            params = random_model(6, 1.0, 1.0, seed=rng.integers(1 << 30))
            m = rng.uniform(-1, 1, size=6)
            split = energy_split(params, m)
            total = -(m @ params.h) - m @ params.J @ m
            assert split.e_ext + split.e_int == pytest.approx(total, abs=1e-10)

    def test_bias_ratio_sign_reported(self):
        params = IsingParams(np.array([-0.2, -0.2]),
                             coupling_matrix(2, [(0, 1, 0.5)]))
        split = energy_split(params, np.array([0.4, 0.4]))
        # mean external bias negative, mean internal bias positive
        assert split.bias_ratio < 0
        assert split.bias_ratio_sign == -1.0

    def test_zero_over_zero_ratios_are_zero(self):
        # no field and no coupling: both energies and both mean biases are 0
        split = energy_split(IsingParams(np.zeros(2), np.zeros((2, 2))), np.array([0.5, -0.5]))
        assert (split.energy_ratio, split.bias_ratio, split.bias_ratio_sign) == (0.0, 0.0, 0.0)

    def test_means_validated(self):
        params = random_model(2, 0.1, 0.1, seed=18)
        with pytest.raises(ValueError):
            energy_split(params, np.array([1.5, 0.0]))


ZERO2 = IsingParams(np.zeros(2), np.zeros((2, 2)))

# checks no other test reaches: (call, message), each a ValueError
INPUT_CHECKS = {
    "tickers length": (lambda: IsingParams(np.zeros(2), np.zeros((2, 2)), tickers=("A",)),
                       "tickers do not match parameter dimension"),
    "sample means": (lambda: SampleStats(np.array([1.5]), np.ones((1, 1)), 1),
                     "spin means must lie in [-1, 1]"),
    "sample pairs": (lambda: SampleStats(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]), 1),
                     "pair moments must be symmetric with unit diagonal"),
    "enumeration cap": (lambda: enumerate_states(21), "refusing to enumerate 2^21 states (cap 20)"),
    "sampler init": (lambda: metropolis_sample(ZERO2, 1, n_burnin=0, n_chains=1, init="cold"),
                     "unknown init 'cold'"),
    "samples not 2-d": (lambda: third_order_from_samples(np.ones(3)),
                        "samples must be (n_samples, N)"),
    "energy means": (lambda: energy_split(ZERO2, np.zeros(3)),
                     "means must match parameter dimension"),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_input_checks_name_what_they_reject(case):
    call, message = INPUT_CHECKS[case]
    with pytest.raises(ValueError) as err:
        call()
    assert err.type is ValueError and str(err.value) == message
