"""Protocol simulation: independent routes must agree with each other and
with the analytic constructions."""

import dataclasses
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from kerrlink import protocol
from kerrlink.design import (
    EliminationRoots,
    TargetCoefficients,
    coeffs_from_photon_target,
    reference_amplitudes,
    reference_network,
    solve_roots,
    transmittances,
)
from kerrlink.entangle import pair_gram, schmidt_entropy
from kerrlink.errors import DomainError, MemoryBudgetExceeded
from kerrlink.fock import (
    HERMITIAN_TILE,
    FockVector,
    TruncationSpec,
    coherent_amplitudes,
    fidelity,
)
from kerrlink.noise import success_probability
from kerrlink.presets import get_preset
from kerrlink.protocol import (
    DENSE_BYTES_LIMIT,
    EIGSH_MIN_ROWS,
    _assemble_rho,
    _branch_labels,
    _dense_bytes,
    _pattern_kernel,
    all_click_record,
    analytic_target_state,
    dominant_eigenstate,
    make_protocol,
    run_full_protocol,
)
from oracles import (
    _run_fock_pipeline,
    apply_beamsplitter,
    apply_displacement,
    build_target_by_elimination,
    equivalence_report,
    gathered_rho,
    inner,
    operator_path_state,
    probe_cascade,
    product_state,
    project_click,
    trace_distance,
)


def small_k1(gamma=0.1):
    a2 = 0.3
    c = TargetCoefficients(np.array([1.0, -np.exp(-2j * a2 * np.sin(0.9))]))
    return make_protocol(np.sqrt(a2), np.sqrt(a2), gamma, 0.9, c, delta=0.2)


def small_k2(gamma=0.1):
    t = coeffs_from_photon_target(1, 2, 0.9)
    return make_protocol(0.5, 0.4, gamma, 0.9, t, delta=0.25)


class TestParams:
    def test_chi_range(self):
        t = TargetCoefficients(np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            make_protocol(0.5, 0.5, 0.1, 0.0, t)
        with pytest.raises(ValueError):
            make_protocol(0.5, 0.5, 0.1, 3.5, t)

    def test_strong_probe_warns(self):
        # the warning points at the line that asked for the protocol, not at
        # the dataclass's generated __init__ or at make_protocol
        t = TargetCoefficients(np.array([1.0, -1.0]))
        with pytest.warns(UserWarning) as rec:
            make_protocol(0.5, 0.5, 0.8, 0.9, t)
        assert [w.filename for w in rec] == [__file__]

    def test_cutoff_covers_references(self):
        p = small_k2()
        biggest = max(
            abs(z) for z in [p.alpha, p.beta, p.gamma, *p.scheme.gtilde]
        )
        from kerrlink.fock import coherent_tail

        assert coherent_tail(biggest, p.trunc.n_max) <= p.trunc.tail_tol


class TestAnalyticTarget:
    def test_single_coefficient_is_product(self):
        t = TargetCoefficients(np.array([1.0]))
        st = analytic_target_state(t, 0.7, -0.3j, 0.5)
        trunc = st.trunc
        want = product_state(
            ("a", "b"),
            [
                coherent_amplitudes(0.7, trunc.n_max, tail_tol=1.0),
                coherent_amplitudes(-0.3j, trunc.n_max, tail_tol=1.0),
            ],
            trunc,
        )
        assert abs(abs(inner(want, st)) - 1.0) < 1e-12

    def test_small_alpha_photon_pair_limit(self):
        # two-detector pair target at small alpha approaches
        # (|0 2> + sqrt(2) |1 1> + |2 0>)/2
        chi = 1.0
        t = coeffs_from_photon_target(2, 2, chi)
        st = analytic_target_state(t, 0.1, 0.1, chi, TruncationSpec(6))
        want = np.zeros((7, 7), dtype=complex)
        want[0, 2] = 0.5
        want[1, 1] = np.sqrt(2) / 2
        want[2, 0] = 0.5
        ov = abs(np.vdot(want, st.amplitudes)) ** 2
        assert ov > 0.95, f"overlap {ov:.4f}"

    def test_vanishing_target_raises(self):
        # 1 - 1 at alpha = beta = 0: both terms are the two-mode vacuum
        t = TargetCoefficients(np.array([1.0, -1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="squared norm 0"):
                analytic_target_state(t, 0.0, 0.0, 0.5)

    def test_elimination_product_identity(self):
        # the root-product construction equals the coefficient superposition
        for params in (small_k1(), small_k2()):
            tgt = analytic_target_state(
                params.target, params.alpha, params.beta, params.chi, params.trunc
            )
            elim = build_target_by_elimination(params)
            assert abs(abs(inner(tgt, elim)) - 1.0) < 1e-10


class TestFullProtocol:
    def test_probabilities_sum_to_one(self):
        for params in (small_k1(), small_k2()):
            recs = run_full_protocol(params)
            assert len(recs) == 2**params.scheme.K
            total = sum(r.probability for r in recs)
            assert abs(total - 1.0) < 1e-10, f"sum {total}"
            for r in recs:
                assert abs(r.state.trace() - 1.0) < 1e-10

    def test_blocked_matches_monolithic(self):
        for params in (small_k1(), small_k2()):
            fast = run_full_protocol(params)
            slow = _run_fock_pipeline(params)
            for rf, rs in zip(fast, slow):
                assert rf.pattern == rs.pattern
                assert abs(rf.probability - rs.probability) < 1e-9
                if rf.probability > 1e-12:
                    assert trace_distance(rf.state, rs.state) < 1e-8

    def test_displaced_variant_matches(self):
        params = small_k2()
        fast = run_full_protocol(params)
        disp = _run_fock_pipeline(params, displaced=True)
        for rf, rd in zip(fast, disp):
            assert abs(rf.probability - rd.probability) < 1e-9
            if rf.probability > 1e-12:
                assert trace_distance(rf.state, rd.state) < 1e-8

    def test_all_click_close_to_target(self):
        for params in (small_k1(), small_k2()):
            rec = all_click_record(run_full_protocol(params))
            tgt = analytic_target_state(
                params.target, params.alpha, params.beta, params.chi, params.trunc
            )
            f = fidelity(rec.state, tgt)
            assert f >= 1 - 5 * abs(params.gamma) ** 2, f"fidelity {f:.4f}"

    def test_silent_detector_matches_semi_success_state(self):
        from kerrlink.design import semi_success_coeffs

        params = small_k2()
        recs = {r.pattern: r for r in run_full_protocol(params)}
        for silent in (1, 2):
            pattern = tuple(j + 1 != silent for j in range(2))
            ctil = semi_success_coeffs(params.scheme.roots, {silent})
            want = analytic_target_state(
                ctil, params.alpha, params.beta, params.chi, params.trunc
            )
            f = fidelity(recs[pattern].state, want)
            assert f >= 1 - 8 * abs(params.gamma) ** 2, f"silent {silent}: {f:.4f}"


class TestNearDegenerateRoots:
    """c = poly(1 - eps, 1 + eps): a root pair 2 eps gamma apart at gamma 0.1,
    on either side of solve_roots' merge tolerance (1e-7 of the largest root)."""

    @staticmethod
    def target(eps):
        return TargetCoefficients(np.poly([1 - eps, 1 + eps])[::-1])

    @pytest.mark.parametrize("eps, mults", [(1e-9, [2]), (1e-8, [2]),
                                            (1e-6, [1, 1]), (1e-5, [1, 1])])
    def test_merge_threshold(self, eps, mults):
        roots = solve_roots(self.target(eps), 0.1)
        assert [m for _, m in roots.roots] == mults
        assert np.allclose(roots.expanded(), 0.1, rtol=2 * eps + 1e-8)

    def test_state_is_continuous_across_the_merge(self):
        out = {}
        for eps in (1e-9, 1e-6):
            t = self.target(eps)
            params = make_protocol(0.5, 0.5, 0.1, 0.9, t, delta=0.2)
            recs = run_full_protocol(params)
            assert abs(sum(r.probability for r in recs) - 1.0) < 1e-9
            rec = all_click_record(recs)
            tgt = analytic_target_state(t, 0.5, 0.5, 0.9, params.trunc)
            out[eps] = np.array([rec.probability, fidelity(rec.state, tgt)])
        assert np.allclose(out[1e-9], out[1e-6], rtol=1e-6, atol=0), out


class TestAssembly:
    @pytest.mark.parametrize("pattern", [(True, False)], ids=["click"])
    def test_bit_identical_to_the_gathered_formula(self, pattern):
        params = small_k2()
        arms, probe = _branch_labels(params)
        kernel = _pattern_kernel(arms, probe, pattern)
        rho = _assemble_rho(params, kernel).matrix
        assert np.array_equal(rho, gathered_rho(params, kernel))


def preset_protocol(name):
    p = get_preset(name)
    return make_protocol(p.alpha, p.beta, p.gamma, p.chi, p.target, delta=p.delta)


class TestMemoryBudget:
    """The dense-size estimate: nothing here allocates an oversized route."""

    def test_maxent_k2_high_is_over_budget(self):
        prot = preset_protocol("maxent-k2-high")
        dim = prot.trunc.dim
        assert dim == 10712
        kernel = 16 * (2 * dim - 1) ** 2  # 7.3 GB on its own
        # 4 operators kept plus two tiles of the Hermiticity check
        tiles = 2 * 16 * HERMITIAN_TILE**2
        assert _dense_bytes(prot, 4) == kernel + 4 * 16 * dim**4 + tiles
        assert kernel > DENSE_BYTES_LIMIT

    @pytest.mark.parametrize("name", ["bell-k1", "maxent-k2-low", "photon-correlated:2,2",
                                      "photon-correlated:1,3", "photon-correlated:2,4"])
    def test_simulate_presets_fit(self, name):
        prot = preset_protocol(name)
        need = _dense_bytes(prot, 2**prot.scheme.K)
        assert need <= DENSE_BYTES_LIMIT
        if name == "bell-k1":
            assert 82e6 < need < 83e6, f"bell-k1 needs {need} B"

    def test_estimate_covers_the_traced_peak(self):
        prot = preset_protocol("bell-k1")
        tracemalloc.start()
        try:
            run_full_protocol(prot)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        need = _dense_bytes(prot, 2)
        assert peak <= need + 2**20, f"traced peak {peak} B, estimate {need} B"
        assert need <= peak + 2 * 2**20, f"traced peak {peak} B, estimate {need} B"
        assert peak <= 90e6

    @pytest.mark.parametrize("route", ["blocked", "monolithic", "displaced"])
    def test_over_budget_raises_before_simulating(self, monkeypatch, route):
        prot = small_k2()
        dim = prot.trunc.dim
        limit = _dense_bytes(prot, 4) if route == "blocked" else 16 * dim**5
        monkeypatch.setattr(protocol, "DENSE_BYTES_LIMIT", limit - 1)
        with pytest.raises(MemoryBudgetExceeded):
            if route == "blocked":
                run_full_protocol(prot)
            else:
                _run_fock_pipeline(prot, displaced=(route == "displaced"))

    def test_operator_path_routes_are_guarded(self, monkeypatch):
        prot = small_k1()
        monkeypatch.setattr(protocol, "DENSE_BYTES_LIMIT", 1000)
        for counts in ([range(1, 4)], [(1,)]):
            with pytest.raises(MemoryBudgetExceeded):
                operator_path_state(prot, counts)

    def test_single_pattern_estimate(self):
        prot = small_k2()
        dim = prot.trunc.dim
        tile = min(HERMITIAN_TILE, dim**2)
        assert _dense_bytes(prot, 1) == 16 * ((2 * dim - 1) ** 2 + dim**4 + 2 * tile**2)


class TestEliminationSoundness:
    def test_probe_at_root_never_clicks_its_detector(self):
        params = small_k2()
        gam = params.scheme.roots.expanded()
        for j, g in enumerate(gam, start=1):
            p = project_click(probe_cascade(params.scheme, g, 25), f"r{j}", True).norm2()
            assert p < 1e-10, f"detector {j} clicked with p={p:.2e}"

    def test_single_added_photon_cannot_click_twice(self):
        # photon-added coherent probe split 50/50, each arm's coherent part
        # cancelled: with one excitation only, both detectors firing is
        # impossible
        g = 0.4 + 0.2j
        n_max = 18
        trunc = TruncationSpec(n_max, tail_tol=1e-9)
        base = coherent_amplitudes(g, n_max, tail_tol=1.0)
        raised = np.zeros(n_max + 1, dtype=complex)
        raised[1:] = base[:-1] * np.sqrt(np.arange(1, n_max + 1))
        raised /= np.linalg.norm(raised)
        st = product_state(
            ("c", "r"),
            [raised, coherent_amplitudes(0.0, n_max, tail_tol=1.0)],
            trunc,
        )
        st = apply_beamsplitter(st, "c", "r", np.pi / 4)
        s2 = 1 / np.sqrt(2)
        st = apply_displacement(st, "c", -g * s2)
        st = apply_displacement(st, "r", -1j * g * s2)
        both = project_click(project_click(st, "c", True), "r", True).norm2()
        assert both < 1e-10, f"joint click probability {both:.2e}"


class TestOperatorPath:
    def test_matches_network_all_click(self):
        for params in (small_k1(), small_k2()):
            net = all_click_record(run_full_protocol(params)).state
            op = operator_path_state(params, [range(1, 5)] * params.scheme.K)
            assert trace_distance(net, op) < 1e-6

    def test_count_range_kernel_is_sum_of_single_counts(self):
        # a count range on each arm heralds the sum of the single-count
        # outcomes it covers: per-arm sums multiply out to the sum over tuples
        n_cut = 3
        for params in (small_k1(), small_k2()):
            K = params.scheme.K
            whole = operator_path_state(params, [range(1, n_cut + 1)] * K).matrix
            parts = sum(
                operator_path_state(params, [(n,) for n in counts]).matrix
                for counts in itertools.product(range(1, n_cut + 1), repeat=K)
            )
            err = np.max(np.abs(whole - parts))
            assert err < 1e-13 * np.max(np.abs(whole)), f"K={K}: {err:.2e}"

    def test_single_count_state_is_elimination_product(self):
        # small delta: the end probe barely depends on the branch, so the
        # exact-count state is the pure elimination product to high accuracy
        t = coeffs_from_photon_target(1, 2, 0.9)
        params = make_protocol(0.5, 0.4, 0.05, 0.9, t, delta=1e-3)
        rho = operator_path_state(params, [(1,), (1,)])
        elim = build_target_by_elimination(params)
        f = fidelity(rho, elim)
        assert f > 1 - 3e-5, f"fidelity {f:.8f}"

    def test_root_order_invariance(self):
        # the polynomial operators commute, so detector ordering is irrelevant
        params = small_k2()
        roots = params.scheme.roots
        flipped = EliminationRoots(tuple(reversed(roots.roots)), roots.gamma)
        T, q = transmittances(2, params.scheme.delta)
        gt = reference_amplitudes(flipped, T, q)
        from kerrlink.design import DetectionScheme

        scheme2 = DetectionScheme(
            flipped, T, q, params.scheme.delta, gt, reference_network(gt)
        )
        params2 = dataclasses.replace(params, scheme=scheme2)
        r1 = operator_path_state(params, [(1,), (2,)]).normalized()
        r2 = operator_path_state(params2, [(2,), (1,)]).normalized()
        assert np.max(np.abs(r1.matrix - r2.matrix)) < 1e-12


class TestEquivalenceAndProbability:
    def test_equivalence_report(self):
        td, residual, exponent = equivalence_report(small_k1())
        assert td < 1e-6
        assert residual < 5e-2
        assert 1.5 < exponent < 2.5

    def test_success_probability_formula(self):
        for params in (small_k1(), small_k2()):
            G_a, G_b = pair_gram(params.target.K, params.alpha, params.beta, params.chi)
            c = params.target.c
            norm2 = float(np.real(np.conj(c) @ ((G_a * G_b) @ c)))
            want = success_probability(
                params.target,
                params.gamma,
                1.0,
                q=params.scheme.q,
                norm_squared=norm2,
            )
            got = all_click_record(run_full_protocol(params)).probability
            rel = abs(got - want) / want
            assert rel < 3 * abs(params.gamma) ** 2, f"rel err {rel:.3e}"

    def test_zero_gamma_probability(self):
        t = TargetCoefficients(np.array([1.0, -1.0]))
        assert success_probability(t, 0.0, 1.0, q=0.7) == 0.0


class TestDominantEigenstate:
    def test_recovers_pure_state(self):
        params = small_k1()
        rec = all_click_record(run_full_protocol(params))
        lam, vec = dominant_eigenstate(rec.state)
        assert lam > 0.9
        # eigenvector of a nearly pure heralded state carries its entanglement;
        # weak-probe corrections push it slightly off the ideal two-term value
        e = schmidt_entropy(vec)
        assert abs(e - 1.0) < 0.05

    def test_agrees_with_dense_eigh(self):
        params = small_k1()
        rec = all_click_record(run_full_protocol(params))
        lam, vec = dominant_eigenstate(rec.state)
        w, v = np.linalg.eigh(rec.state.matrix)
        assert abs(lam - w[-1]) < 1e-10
        ov = abs(np.vdot(v[:, -1], vec.amplitudes.ravel()))
        assert abs(ov - 1.0) < 1e-8

    @pytest.mark.parametrize("name, rows", [("photon-correlated:2,2", 81),
                                            ("maxent-k2-low", 225)])
    def test_both_solvers_agree_with_dense_eigh(self, name, rows):
        # one preset below the LAPACK/ARPACK crossover, one above it
        assert (rows < EIGSH_MIN_ROWS) == (name == "photon-correlated:2,2")
        for rec in run_full_protocol(preset_protocol(name)):
            m = rec.state.matrix
            assert m.shape == (rows, rows)
            lam, vec = dominant_eigenstate(rec.state)
            w, v = np.linalg.eigh(m)
            assert abs(lam - w[-1] / rec.state.trace()) < 1e-12, rec.pattern
            ov = abs(np.vdot(v[:, -1], vec.amplitudes.ravel()))
            assert abs(ov - 1.0) < 1e-10, rec.pattern

    def test_arpack_route_repeats_bit_for_bit(self):
        # the near-product "00" row prints an entanglement of ~4e-11, whose
        # last digits follow the eigenvector's rounding
        prot = preset_protocol("maxent-k2-low")
        rec = {r.pattern: r for r in run_full_protocol(prot)}[(False, False)]
        assert rec.state.matrix.shape[0] >= EIGSH_MIN_ROWS
        (lam1, vec1), (lam2, vec2) = (dominant_eigenstate(rec.state) for _ in range(2))
        assert lam1 == lam2
        assert np.array_equal(vec1.amplitudes, vec2.amplitudes)
