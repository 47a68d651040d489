"""Entanglement entropy: Gram-span computation against Fock-space oracles."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

from kerrlink import entangle
from kerrlink.design import (
    TargetCoefficients,
    coeffs_from_photon_target,
    semi_success_coeffs,
    solve_roots,
)
from kerrlink.entangle import (
    entropy_of_coefficients,
    optimize_coefficients,
    pair_gram,
    schmidt_entropy,
)
from kerrlink.errors import DomainError, ShapeMismatch
from kerrlink.fock import (
    FockVector,
    TruncationSpec,
    coherent_amplitudes,
    min_cutoff,
)
from oracles import (
    entropy_outer_sorted,
    poly_by_numpy,
    product_state,
    reduce_to_density,
    rot_gram_formula,
)


def pair_target(a2, chi):
    """Weak-coupling two-detector coefficients (x = a2 chi^2 small)."""
    x = a2 * chi**2
    p = np.exp(-2j * a2 * chi)
    return TargetCoefficients(np.array([1.0, -2 * (1 - x) * p, p * p]))


def fock_entropy(c, alpha, beta, chi):
    """Oracle: build the state in truncated Fock space and trace out mode b."""
    K = len(c) - 1
    zs_a = [alpha * np.exp(1j * chi * n) for n in range(K + 1)]
    zs_b = [beta * np.exp(1j * chi * n) for n in range(K + 1)]
    n_max = min_cutoff(zs_a + zs_b, 1e-14)
    trunc = TruncationSpec(n_max, tail_tol=1e-14)
    amp = 0.0
    for n in range(K + 1):
        term = product_state(
            ("a", "b"),
            [
                coherent_amplitudes(zs_a[n], n_max, tail_tol=1.0),
                coherent_amplitudes(zs_b[n], n_max, tail_tol=1.0),
            ],
            trunc,
        )
        amp = amp + c[n] * term.amplitudes
    amp = amp / np.linalg.norm(amp)
    rho = reduce_to_density(FockVector(("a", "b"), amp, trunc), ("a",))
    lam = np.linalg.eigvalsh(rho.matrix)
    lam = lam[lam > 1e-14]
    return float(-np.sum(lam * np.log2(lam)))


class TestGram:
    def test_matches_fock_inner_products(self):
        K, alpha, beta, chi = 3, 1.1 - 0.3j, 0.8j, 0.6
        G_a, G_b = pair_gram(K, alpha, beta, chi)
        n_max = 40
        for m in range(K + 1):
            qa_m = coherent_amplitudes(alpha * np.exp(1j * chi * m), n_max, tail_tol=1.0)
            qb_m = coherent_amplitudes(beta * np.exp(1j * chi * m), n_max, tail_tol=1.0)
            for n in range(K + 1):
                qa_n = coherent_amplitudes(
                    alpha * np.exp(1j * chi * n), n_max, tail_tol=1.0
                )
                qb_n = coherent_amplitudes(
                    beta * np.exp(1j * chi * n), n_max, tail_tol=1.0
                )
                assert abs(np.vdot(qa_m, qa_n) - G_a[m, n]) < 1e-10
                assert abs(np.vdot(qb_m, qb_n) - G_b[m, n]) < 1e-10

    def test_structure(self):
        for G in pair_gram(2, 1.0, 2.0, 0.3):
            assert np.max(np.abs(G - G.conj().T)) < 1e-14
            assert np.max(np.abs(np.diag(G) - 1.0)) < 1e-14
            assert np.min(np.linalg.eigvalsh(G)) > -1e-12

    @pytest.mark.parametrize("K", range(6))
    def test_in_place_build_is_the_formula_bit_for_bit(self, K):
        rng = np.random.default_rng(K)
        for _ in range(60):
            z2 = float(rng.exponential() * 10.0 ** rng.uniform(-4, 3))
            # signed angles of spread 1e-3 .. 1e2, bra and ket rows of one length
            bra, ket = rng.normal(size=(2, K + 1)) * 10.0 ** rng.uniform(-3, 2)
            for kets in (ket, bra):  # bra = ket: a zero diagonal angle
                got = entangle._rot_gram(z2, bra, kets)
                assert got.tobytes() == rot_gram_formula(z2, bra, kets).tobytes(), (z2, bra, kets)


class TestEntropy:
    def test_product_state_has_none(self):
        rep = entropy_of_coefficients(
            TargetCoefficients(np.array([1.0, 0.0, 0.0])).c, 1.0, 1.0, 0.5
        )
        assert rep.E < 1e-12

    def test_weak_coupling_pair_value(self):
        rep = entropy_of_coefficients(pair_target(10.0, np.sqrt(1e-5)).c, np.sqrt(10), np.sqrt(10), np.sqrt(1e-5))
        assert abs(rep.E - 1.463808410076) < 1e-9

    def test_weak_coupling_pair_approaches_three_halves(self):
        a2 = 1000.0
        chi = np.sqrt(1e-4 / a2)
        rep = entropy_of_coefficients(pair_target(a2, chi).c, np.sqrt(a2), np.sqrt(a2), chi)
        assert abs(rep.E - 1.499625239395) < 1e-9

    def test_separated_triple_reaches_log2_3(self):
        a2, chi = 1e4, 0.1
        c = np.array([1.0, -np.exp(-2j * a2 * chi), np.exp(-4j * a2 * chi)])
        rep = entropy_of_coefficients(c, np.sqrt(a2), np.sqrt(a2), chi)
        assert abs(rep.E - np.log2(3)) < 1e-9
        assert np.max(np.abs(rep.schmidt - 1 / 3)) < 1e-9

    def test_frozen_generic_case(self):
        rep = entropy_of_coefficients(
            np.array([1.0, 0.3 - 0.2j, -0.5j]), np.sqrt(2), np.sqrt(3), 0.7
        )
        assert abs(rep.E - 0.861006706560) < 1e-9
        want = np.array([0.788513535375, 0.184428106695, 0.02705835793])
        assert np.max(np.abs(rep.schmidt - want)) < 1e-9

    def test_schmidt_sums_to_one(self):
        rep = entropy_of_coefficients(
            np.array([0.5, -1.2j, 0.7]), 1.3, 0.9, 0.8
        )
        assert abs(np.sum(rep.schmidt) - 1.0) < 1e-10

    def test_gauge_invariance(self):
        c = np.array([1.0, -0.7 + 0.2j, 0.4j])
        e0 = entropy_of_coefficients(c, 1.2, 1.5, 0.4).E
        e1 = entropy_of_coefficients(3.7 * np.exp(0.9j) * c, 1.2, 1.5, 0.4).E
        assert abs(e0 - e1) < 1e-10

    def test_agrees_with_fock_partial_trace(self):
        cases = [
            (np.array([1.0, -1.0]), 0.9, 1.1, 0.8),
            (np.array([1.0, 0.5j, -0.3]), 1.2, 0.7, 0.5),
            (pair_target(2.0, 0.05).c, np.sqrt(2), np.sqrt(2), 0.05),
        ]
        for c, alpha, beta, chi in cases:
            rep = entropy_of_coefficients(c, alpha, beta, chi)
            assert abs(rep.E - fock_entropy(c, alpha, beta, chi)) < 1e-8

    def test_vanishes_when_states_coalesce(self):
        # generic c (nonzero sum): the state collapses onto one product term
        c = np.array([1.0, -0.4, 0.2])
        rep = entropy_of_coefficients(c, 1.0, 1.0, 1e-4)
        assert rep.E < 1e-4

    def test_rank_bound(self):
        rep = entropy_of_coefficients(np.array([1.0, -1.0, 1.0, -1.0]), 2.0, 2.0, 1.0)
        assert rep.E <= 2.0 + 1e-9

    def test_schmidt_entropy_needs_two_modes(self):
        st = FockVector(("a", "b", "c"), np.ones((2, 2, 2), dtype=complex), TruncationSpec(1))
        with pytest.raises(ShapeMismatch, match="exactly two modes"):
            schmidt_entropy(st)


def scratch_entropy(c, alpha, beta, chi):
    """(E, schmidt) from scratch: both Grams and the eigh of G_a rebuilt on
    every call, each float operation in the memoized objective's order."""
    c = np.asarray(c, dtype=complex)
    th = chi * np.arange(len(c))
    G_a = entangle._rot_gram(abs(alpha) ** 2, th, th)
    G_b = entangle._rot_gram(abs(beta) ** 2, th, th)
    norm2 = float(np.real(np.conj(c) @ ((G_a * G_b) @ c)))
    X = np.outer(c, np.conj(c)) * G_b.T
    w, v = np.linalg.eigh(G_a)
    w = np.where(w > entangle.EIG_FLOOR, w, 0.0)
    s = (v * np.sqrt(w)) @ v.conj().T
    lam = np.real(np.linalg.eigvalsh(s @ X @ s)) / norm2
    lam = np.sort(lam[lam > entangle.EIG_FLOOR])[::-1]
    return entangle._bits(lam), lam


class TestGramMemo:
    def test_bit_identical_to_scratch_cold_and_warm(self):
        alpha, beta = 1.3, 0.7 - 0.4j
        rng = np.random.default_rng(5)
        keys = [(K, np.sqrt(x) / abs(alpha)) for x in (1e-4, 1.0, 100.0)
                for K in (1, 2, 3)]
        entangle._mode_gram.cache_clear()
        entangle._gram_root.cache_clear()
        # each key cold, then warm twice in reverse order, every visit with a
        # fresh c, so that visits to different keys interleave
        visits = [(K, chi, "cold") for K, chi in keys]
        visits += [(K, chi, "warm") for K, chi in reversed(keys)] * 2
        for K, chi, state in visits:
            before = entangle._gram_root.cache_info()
            c = rng.normal(size=K + 1) + 1j * rng.normal(size=K + 1)
            rep = entropy_of_coefficients(c, alpha, beta, chi)
            after = entangle._gram_root.cache_info()
            assert (after.misses - before.misses) == (state == "cold")
            E, lam = scratch_entropy(c, alpha, beta, chi)
            assert rep.E == E, (K, chi)
            assert np.array_equal(rep.schmidt, lam), (K, chi)

    def test_shared_arrays_are_read_only(self):
        G_a, G_b = pair_gram(2, 1.1, 0.6, 0.3)
        for G in (G_a, G_b, entangle._gram_root(2, abs(1.1) ** 2, 0.3)):
            with pytest.raises(ValueError):
                G[0, 1] = 0.0
        assert pair_gram(2, -1.1, 0.6j, 0.3)[0] is G_a
        th = 0.3 * np.arange(3)
        assert np.array_equal(G_b, entangle._rot_gram(0.6**2, th, th))


def assert_same_entropy(c, alpha, beta, chi):
    rep = entropy_of_coefficients(c, alpha, beta, chi)
    ref = entropy_outer_sorted(c, alpha, beta, chi)
    assert rep.E == ref.E
    assert rep.schmidt.dtype == ref.schmidt.dtype
    assert np.array_equal(rep.schmidt, ref.schmidt)


def root_sets(rng, K):
    """Root sets of each kind the optimizer meets: generic, closed under
    conjugation, K-fold repeated, real and the structured unit-circle fans."""
    pairs = rng.normal(size=K // 2) + 1j * rng.normal(size=K // 2)
    yield rng.normal(size=K) + 1j * rng.normal(size=K)
    yield np.concatenate((pairs, pairs.conj(), rng.normal(size=K % 2) + 0j))
    yield np.concatenate((pairs.conj(), rng.normal(size=K % 2) + 0j, pairs))
    yield np.full(K, np.exp(0.7j))
    yield np.full(K, -1.0 + 0j)
    yield rng.normal(size=K) + 0j
    yield -np.exp(2j * np.pi * np.arange(1, K + 1) / (K + 1))
    yield np.exp(1j * (0.3 + 0.2 * (np.arange(K) - (K - 1) / 2.0)))


EDGE_ROOT_SETS = {
    "real-with-minus-zero-imag": [complex(0.5, -0.0), complex(-1.2, 0.0), complex(2.0, -0.0)],
    "pair-with-minus-zero-real": [complex(-0.0, 0.7), complex(0.0, -0.7)],
    "pair-one-ulp-from-conjugate": [complex(0.3, 0.7), complex(0.3, -np.nextafter(0.7, 1.0))],
    "pair-real-parts-one-ulp-apart": [complex(0.3, 0.7), complex(np.nextafter(0.3, 1.0), -0.7)],
    "repeated-pair": [complex(0.3, 0.7), complex(0.3, -0.7)] * 2,
    "pair-and-a-repeated-half": [complex(0.3, 0.7)] * 2 + [complex(0.3, -0.7)],
    "inf": [complex(np.inf, 0.0)],
    "minus-inf-minus-zero": [complex(-np.inf, -0.0)],
    "inf-pair": [complex(np.inf, 1.0), complex(np.inf, -1.0)],
    "nan-real-part": [complex(np.nan, 0.0)],
    "nan-imaginary-parts": [complex(0.5, np.nan), complex(0.5, np.nan)],
}


class TestLeanObjective:
    """The optimizer's objective and root expansion, bit for bit against the
    forms they replaced (tests/oracles.py): scan artifacts rest on it."""

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_entropy_matches_the_reference_bitwise(self, K):
        rng = np.random.default_rng(K)
        for x in (1e-4, 1e-2, 1.0, 100.0):
            for alpha, beta in ((math.sqrt(max(10.0, x)),) * 2, (1.3, 0.7 - 0.4j)):
                chi = math.sqrt(x) / abs(alpha)
                for _ in range(4):
                    c = rng.normal(size=K + 1) + 1j * rng.normal(size=K + 1)
                    assert_same_entropy(c, alpha, beta, chi)

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_root_expansion_matches_np_poly_bitwise(self, K):
        rng = np.random.default_rng(10 + K)
        for roots in root_sets(rng, K):
            got, want = entangle._poly(roots), poly_by_numpy(roots)
            assert got.dtype == want.dtype, roots
            assert np.array_equal(got, want), roots
            assert_same_entropy(got[::-1], math.sqrt(10), math.sqrt(10), 0.3)

    @pytest.mark.parametrize("roots", EDGE_ROOT_SETS.values(), ids=EDGE_ROOT_SETS.keys())
    def test_root_expansion_edge_cases_bitwise(self, roots):
        # np.poly's real rule at signed zeros, near pairs, repeats, inf and
        # NaN; the bytes compare NaNs too
        roots = np.array(roots, dtype=complex)
        got, want = entangle._poly(roots), poly_by_numpy(roots)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), (got, want)

    def test_vanishing_state_raises_on_both_sides(self):
        for entropy in (entropy_of_coefficients, entropy_outer_sorted):
            with pytest.raises(DomainError):
                entropy([1.0, -1.0], 0.0, 0.0, 0.5)


class TestOptimizer:
    def test_k1_recovers_closed_form(self):
        alpha = beta = np.sqrt(10)
        chi = 1 / np.sqrt(10)  # x = 1
        rep = optimize_coefficients(1, alpha, beta, chi, restarts=8, seed=1)
        want = -np.exp(-1j * (abs(alpha) ** 2 + abs(beta) ** 2) * np.sin(chi))
        ratio = rep.c_opt[1] / rep.c_opt[0]
        assert abs(abs(ratio) - 1.0) < 1e-3
        assert abs(np.angle(ratio / want)) < 1e-2
        assert abs(rep.E - 1.0) < 1e-4

    def test_k2_weak_coupling_matches_printed_ratios(self):
        a2 = 1000.0
        chi = np.sqrt(1e-4 / a2)
        rep = optimize_coefficients(2, np.sqrt(a2), np.sqrt(a2), chi, restarts=8, seed=2)
        want = pair_target(a2, chi).c
        got = rep.c_opt / rep.c_opt[0]
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-3

    def test_monotone_in_k(self):
        alpha = beta = np.sqrt(10)
        chi = 1 / np.sqrt(10)
        e1 = optimize_coefficients(1, alpha, beta, chi, restarts=6, seed=3).E
        e2 = optimize_coefficients(2, alpha, beta, chi, restarts=6, seed=3).E
        assert e2 >= e1 - 1e-6
        assert e2 <= np.log2(3) + 1e-9

    def test_k_validation(self):
        with pytest.raises(ValueError):
            optimize_coefficients(0, 1.0, 1.0, 0.5)


def counted_starts(monkeypatch):
    """Record the start point of every Nelder-Mead search optimize_coefficients runs."""
    starts = []
    real = entangle.minimize

    def counting(fun, x0, *args, **kwargs):
        starts.append(np.array(x0, dtype=float))
        return real(fun, x0, *args, **kwargs)

    monkeypatch.setattr(entangle, "minimize", counting)
    return starts


def recorded_searches(monkeypatch):
    """Record (start point, nfev) of every Nelder-Mead search."""
    searches = []
    real = entangle.minimize

    def recording(fun, x0, *args, **kwargs):
        res = real(fun, x0, *args, **kwargs)
        searches.append((np.array(x0, dtype=float), res.nfev))
        return res

    monkeypatch.setattr(entangle, "minimize", recording)
    return searches


class TestSingleStageSearch:
    """One root-space search per start: no polishing pass, no second stage."""

    @pytest.mark.parametrize("K,restarts", [(1, 1), (1, 5), (2, 3)])
    def test_one_search_per_start(self, monkeypatch, K, restarts):
        starts = counted_starts(monkeypatch)
        optimize_coefficients(K, np.sqrt(10), np.sqrt(10), 1 / np.sqrt(10),
                              restarts=restarts, seed=0)
        assert len(starts) == restarts

    @pytest.mark.parametrize("K,restarts", [(1, 20), (2, 8)])
    def test_start_roots_are_distinct(self, monkeypatch, K, restarts):
        starts = counted_starts(monkeypatch)
        optimize_coefficients(K, np.sqrt(10), np.sqrt(10), 1 / np.sqrt(10),
                              restarts=restarts, seed=0)
        polys = [np.poly(x[:K] * np.exp(1j * x[K:])) for x in starts]
        for i, j in itertools.combinations(range(len(polys)), 2):
            gap = np.max(np.abs(polys[i] - polys[j]))
            assert gap > 1e-9, f"starts {i} and {j} share their roots"

    @pytest.mark.parametrize("x", [1e-3, 1.0, 100.0])
    def test_k1_single_start_reaches_one_bit(self, x):
        # entangle-scan's rule: alpha^2 = max(10, x), chi = sqrt(x)/alpha
        alpha = math.sqrt(max(10.0, x))
        rep = optimize_coefficients(1, alpha, alpha, math.sqrt(x) / alpha,
                                    restarts=1, seed=1)
        assert abs(rep.E - 1.0) < 1e-9, f"x={x}: E = {rep.E!r}"

    def test_restarts_validation(self):
        with pytest.raises(ValueError):
            optimize_coefficients(1, 1.0, 1.0, 0.5, restarts=0)

    @pytest.mark.parametrize("K", [1, 2])
    def test_reported_roots_expand_to_c_opt_bit_for_bit(self, K):
        rep = optimize_coefficients(K, 1.0, 1.0, 0.3, restarts=1)
        assert rep.roots.shape == (K,)
        c = np.poly(rep.roots)[::-1]
        assert np.array_equal(c / c[0], rep.c_opt)

    @pytest.mark.parametrize("K", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_search_is_the_reference_search(self, monkeypatch, K, seed):
        # the same starts, the same nfev per start, the same result with the
        # objective and root expansion the optimizer used before
        runs = []
        for reference in (False, True):
            with monkeypatch.context() as m:
                if reference:
                    m.setattr(entangle, "entropy_of_coefficients", entropy_outer_sorted)
                    m.setattr(entangle, "_poly", poly_by_numpy)
                searches = recorded_searches(m)
                rep = optimize_coefficients(K, np.sqrt(10), np.sqrt(10), 1 / np.sqrt(10),
                                            restarts=3, seed=seed)
            runs.append((rep, searches))
        (rep, searches), (ref, ref_searches) = runs
        assert rep.E == ref.E
        assert rep.c_opt.dtype == ref.c_opt.dtype
        assert np.array_equal(rep.c_opt, ref.c_opt)
        assert len(searches) == len(ref_searches) == 3
        for (x0, nfev), (ref_x0, ref_nfev) in zip(searches, ref_searches):
            assert np.array_equal(x0, ref_x0)
            assert nfev == ref_nfev


def scan_searches(monkeypatch, K, x, restarts):
    """(objective, start, options) of the first ``restarts`` searches that
    optimize_coefficients sets up at scan point x, without running them."""
    searches = []

    def record(fun, x0, **options):
        searches.append((fun, x0, options))
        return SimpleNamespace(x=x0, fun=0.0, success=True, nfev=0)

    alpha = math.sqrt(max(10.0, x))
    with monkeypatch.context() as m:
        m.setattr(entangle, "minimize", record)
        optimize_coefficients(K, alpha, alpha, math.sqrt(x) / alpha, restarts=restarts)
    return searches


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2))


class TestNelderMeadOracle:
    """entangle.minimize against its oracle, scipy's Nelder-Mead: the same x
    to the last bit, fun, nfev and success at the same options."""

    OPTIONS = {"xatol": 1e-9, "fatol": 1e-12, "maxiter": 6000, "maxfev": 9000}

    def assert_same_search(self, fun, x0, **options):
        got = entangle.minimize(fun, x0, **options)
        want = scipy.optimize.minimize(fun, x0, method="Nelder-Mead", options=options)
        assert got.x.tobytes() == want.x.tobytes(), (got.x, want.x)
        assert got.fun == want.fun or np.isnan(got.fun) and np.isnan(want.fun)
        assert got.nfev == want.nfev
        assert got.success == want.success

    @pytest.mark.parametrize("K,x", [(1, 1.0), (2, 1e-2), (3, 100.0)])
    def test_scan_objective(self, monkeypatch, K, x):
        searches = scan_searches(monkeypatch, K, x, restarts=2)
        fun, _, options = searches[0]
        assert options == self.OPTIONS
        rng = np.random.default_rng(K)
        roots = rng.normal(size=K) + 1j * rng.normal(size=K)
        starts = [x0 for _, x0, _ in searches]
        starts.append(np.concatenate((np.abs(roots), np.angle(roots))))
        # a zero coordinate: the first simplex puts 0.00025 there
        starts.append(np.concatenate((np.ones(K), np.zeros(K))))
        for x0 in starts:
            self.assert_same_search(fun, x0, **options)

    def test_stop_inside_a_shrink(self, monkeypatch):
        # this search's first shrink evaluates its 4 points as evaluations
        # 35-38, so maxfev 36 stops it after two of them
        fun, x0, options = scan_searches(monkeypatch, 2, 1e-2, restarts=1)[0]
        for maxfev in (35, 36, 37, 38, 39):
            self.assert_same_search(fun, x0, **{**options, "maxfev": maxfev})

    def test_flat_objective_ties(self):
        # every value ties, so each iteration ends in a shrink; maxfev 9
        # stops the first after two of its four points
        for maxfev in (9, 200):
            self.assert_same_search(lambda x: 0.0, np.array([1.0, 0.0, -2.0, 3.0]),
                                    **{**self.OPTIONS, "maxfev": maxfev})

    @pytest.mark.parametrize("fun", [
        rosenbrock,
        lambda x: float(np.round(np.sum(x**2), 1)),  # plateaus: ties
        lambda x: np.nan if x[0] > -1.0 else rosenbrock(x),  # NaNs order last
        # NaN off the start's x[0]: the simplex shrinks onto it and keeps a
        # NaN vertex, so the search never converges and fun is NaN
        lambda x: 0.0 if x[0] == -1.2 else np.nan,
    ], ids=["rosenbrock", "plateaus", "nan-region", "nan-off-start"])
    def test_rosenbrock_ties_and_nans(self, fun):
        x0 = np.array([-1.2, 1.0, 0.5])
        self.assert_same_search(fun, x0, **self.OPTIONS)
        self.assert_same_search(fun, x0, **{**self.OPTIONS, "maxiter": 40})


class TestSemiSuccess:
    def test_one_missing_detector_near_bell(self):
        # kept root at gamma: heralded state ~ (|0>|1> + |1>|0>)/sqrt(2) at small alpha
        chi, gamma, alpha = 1.0, 0.1, 0.1
        t = coeffs_from_photon_target(2, 2, chi)
        r = solve_roots(t, gamma)
        c = semi_success_coeffs(r, {2}).c
        rep = entropy_of_coefficients(c, alpha, alpha, chi)
        assert abs(rep.E - 0.9782698274) < 1e-8
        smaller = entropy_of_coefficients(c, 0.05, 0.05, chi)
        assert smaller.E > rep.E  # approaches 1 as alpha shrinks

    def test_all_missing_is_product(self):
        t = coeffs_from_photon_target(1, 2, 0.5)
        r = solve_roots(t, 0.1)
        rep = entropy_of_coefficients(semi_success_coeffs(r, {1, 2}).c, 0.3, 0.3, 0.5)
        assert rep.E < 1e-12


class TestProductStateSign:
    def test_entropies_of_a_product_state_are_plus_zero(self):
        # one Schmidt weight 1: the entropy is +0.0, never -0.0
        E = entropy_of_coefficients([1.0], 1.0, 1.0, 0.1).E
        assert E == 0.0 and math.copysign(1, E) == 1
        st = FockVector(("a", "b"), np.outer([1.0, 0.0], [0.0, 1.0]).astype(complex),
                        TruncationSpec(1))
        E = schmidt_entropy(st)
        assert E == 0.0 and math.copysign(1, E) == 1


class TestVanishingTarget:
    @pytest.mark.parametrize("c, alpha, chi", [
        ([1.0, -1.0], 0.0, 0.5),  # both terms are the two-mode vacuum
        ([1.0, 0.0, -1.0], 0.5, np.pi),  # c_0 and c_2 label one pair at chi = pi
    ])
    def test_raises_domain_error(self, c, alpha, chi):
        with pytest.raises(DomainError, match="the target state has squared norm"):
            entropy_of_coefficients(c, alpha, alpha, chi)

    def test_objective_takes_a_vanishing_state_as_its_worst_value(self, monkeypatch):
        # roots 1 and -1 give c = (-1, 0, 1) up to round-off, whose state
        # vanishes at chi = pi; the search sees -E = 0 there, not an error
        seen = []

        def one_step(fun, x0, **options):
            seen.append(fun(np.array([1.0, 1.0, 0.0, np.pi])))
            return SimpleNamespace(x=x0, fun=fun(x0), success=True, nfev=2)

        monkeypatch.setattr(entangle, "minimize", one_step)
        rep = optimize_coefficients(2, 0.5, 0.5, np.pi, restarts=1)
        assert seen == [0.0]
        assert rep.E > 0
