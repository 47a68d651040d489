"""Protocol simulation: independent routes must agree with each other and
with the analytic constructions."""

import dataclasses
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from kerrlink import protocol
from kerrlink.design import (
    DetectionScheme,
    EliminationRoots,
    TargetCoefficients,
    coeffs_from_photon_target,
    semi_success_coeffs,
    solve_roots,
)
from kerrlink.entangle import pair_gram, schmidt_entropy
from kerrlink.errors import DomainError, MemoryBudgetExceeded, ShapeMismatch
from kerrlink.fock import (
    HERMITIAN_TILE,
    P_NEGLIGIBLE,
    DensOp,
    FockVector,
    TruncationSpec,
    coherent_amplitudes,
    fidelity,
    min_cutoff,
)
from kerrlink.noise import success_probability
from kerrlink.presets import get_preset
from kerrlink.protocol import (
    DENSE_BYTES_LIMIT,
    SUBSPACE_COLS,
    SUBSPACE_MAX_STEPS,
    SUBSPACE_MIN_ROWS,
    _branch_labels,
    _dense_bytes,
    _held_block,
    _metric_rows,
    _target_states,
    _top_eigenpairs,
    all_click_record,
    analytic_target_state,
    dominant_eigenstate,
    lift_to_modes,
    make_protocol,
    run_full_protocol,
)
from oracles import (
    _pattern_kernel,
    _run_fock_pipeline,
    apply_beamsplitter,
    apply_displacement,
    block_norms,
    build_target_by_elimination,
    dense_target_state,
    dense_view,
    equivalence_report,
    gathered_rho,
    inner,
    operator_path_state,
    probe_cascade,
    product_state,
    project_click,
    simulate_rows_per_pattern,
    trace_distance,
)


# the targets of small_k1 and small_k2; a protocol keeps only its scheme
SMALL_K1_TARGET = TargetCoefficients(np.array([1.0, -np.exp(-2j * 0.3 * np.sin(0.9))]))
SMALL_K2_TARGET = coeffs_from_photon_target(1, 2, 0.9)


def small_k1(gamma=0.1):
    a = np.sqrt(0.3)
    return make_protocol(a, a, gamma, 0.9, SMALL_K1_TARGET, delta=0.2)


def small_k2(gamma=0.1):
    return make_protocol(0.5, 0.4, gamma, 0.9, SMALL_K2_TARGET, delta=0.25)


def small_cases():
    """(protocol, its target) for small_k1 and small_k2."""
    return ((small_k1(), SMALL_K1_TARGET), (small_k2(), SMALL_K2_TARGET))


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

    def test_fields_are_the_independent_inputs(self):
        names = [f.name for f in dataclasses.fields(protocol.ProtocolParams)]
        assert names == ["alpha", "beta", "chi", "scheme", "trunc"]
        p = small_k2(gamma=0.07 + 0.02j)
        assert p.gamma is p.scheme.roots.gamma and p.gamma == 0.07 + 0.02j

    @pytest.mark.parametrize("change", [{"gamma": 0.2}, {"target": SMALL_K1_TARGET}])
    def test_gamma_and_target_cannot_be_set_apart_from_the_scheme(self, change):
        # the probe amplitude comes with the scheme, and no target is kept
        with pytest.raises(TypeError):
            dataclasses.replace(small_k1(), **change)

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
        cut = TruncationSpec(min_cutoff([0.7, -0.3j]))
        st = lift_to_modes(analytic_target_state(t, 0.7, -0.3j, 0.5, cut), 0.7, -0.3j)
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
        st = lift_to_modes(analytic_target_state(t, 0.1, 0.1, chi, TruncationSpec(6)), 0.1, 0.1)
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
                analytic_target_state(
                    t, 0.0, 0.0, 0.5, TruncationSpec(min_cutoff([0.0, 0.0]))
                )

    def test_lift_needs_a_vector_over_s(self):
        st = FockVector(("a",), np.ones(3, dtype=complex), TruncationSpec(2))
        with pytest.raises(ShapeMismatch, match="over \\('s',\\)"):
            lift_to_modes(st, 0.5, 0.5)

    def test_cutoff_is_required(self):
        t = TargetCoefficients(np.array([1.0, -1.0]))
        with pytest.raises(TypeError):
            analytic_target_state(t, 0.5, 0.5, 0.5)

    def test_target_at_the_protocol_cutoff_meets_its_records(self):
        # photon-correlated:2,2 sizes n_max from every beam (8), above what
        # alpha and beta alone need (4); a target at prot.trunc has the
        # records' shape, so the library session gives a fidelity
        p = get_preset("photon-correlated:2,2")
        prot = make_protocol(p.alpha, p.beta, p.gamma, p.chi, p.target, delta=p.delta)
        assert prot.trunc.n_max == 8 and min_cutoff([p.alpha, p.beta]) == 4
        rec = all_click_record(run_full_protocol(prot))
        tgt = analytic_target_state(p.target, p.alpha, p.beta, p.chi, prot.trunc)
        assert 0.99 < fidelity(rec.state, tgt) <= 1 + 1e-12

    def test_elimination_product_identity(self):
        # the root-product construction equals the coefficient superposition
        for params, target in small_cases():
            tgt = analytic_target_state(
                target, params.alpha, params.beta, params.chi, params.trunc
            )
            elim = build_target_by_elimination(params)
            tgt = lift_to_modes(tgt, params.alpha, params.beta)
            assert abs(abs(inner(tgt, elim)) - 1.0) < 1e-10

    @pytest.mark.parametrize("c, alpha, beta, chi", [
        ([1.0, -1.0], 0.7, 0.5, 0.9),
        ([1.0, 0.3j, -0.8], 1.5, -0.4j, 0.4),
        ([2.0, 0.0, 0.0, 1.0], 0.9, 0.0, 2.1),
    ])
    def test_lifted_block_target_is_the_dense_target(self, c, alpha, beta, chi):
        # the s-vector sqrt(N_s) p(s), lifted to (a, b), against the term-by-
        # term coherent sum on the same grid
        t = TargetCoefficients(np.array(c))
        block = analytic_target_state(
            t, alpha, beta, chi, TruncationSpec(min_cutoff([alpha, beta]))
        )
        dense = dense_target_state(t, alpha, beta, chi)
        assert block.modes == ("s",) and block.trunc.n_max == 2 * dense.trunc.n_max
        lifted = lift_to_modes(block, alpha, beta)
        assert abs(lifted.norm() - 1.0) < 1e-13
        assert np.max(np.abs(lifted.amplitudes - dense.amplitudes)) < 1e-13


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
                    assert trace_distance(dense_view(params, rf.state), rs.state) < 1e-8

    def test_displaced_variant_matches(self):
        params = small_k2()
        fast = run_full_protocol(params)
        disp = _run_fock_pipeline(params, displaced=True)
        for rf, rd in zip(fast, disp):
            assert abs(rf.probability - rd.probability) < 1e-9
            if rf.probability > 1e-12:
                assert trace_distance(dense_view(params, rf.state), rd.state) < 1e-8

    def test_all_click_close_to_target(self):
        for params, target in small_cases():
            rec = all_click_record(run_full_protocol(params))
            tgt = analytic_target_state(
                target, params.alpha, params.beta, params.chi, params.trunc
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
    on either side of a double root's merge tolerance (design.ROOT_SPLIT
    eps^(1/2), 2.4e-7 of the largest root)."""

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


class TestStrongProbe:
    """|gamma|^2 > 0.5 lies outside the weak-probe regime the scheme is
    designed for: the protocol warns once, and its routes stay exact."""

    @pytest.mark.parametrize("gamma", [0.8, 1.0])
    def test_blocked_route_matches_displaced_oracle(self, gamma):
        t = coeffs_from_photon_target(1, 1, 0.9)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            params = make_protocol(0.5, 0.4, gamma, 0.9, t, delta=0.25)
            fast = run_full_protocol(params)
            disp = _run_fock_pipeline(params, displaced=True)
        assert len(caught) == 1, [str(w.message) for w in caught]
        assert abs(sum(r.probability for r in fast) - 1.0) < 1e-12
        for rf, rd in zip(fast, disp):
            assert rf.pattern == rd.pattern
            assert abs(rf.probability - rd.probability) < 1e-12
            assert trace_distance(dense_view(params, rf.state), rd.state) < 1e-12


def preset_protocol(name):
    p = get_preset(name)
    return make_protocol(p.alpha, p.beta, p.gamma, p.chi, p.target, delta=p.delta)


def strong_probe():
    t = coeffs_from_photon_target(1, 1, 0.9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # |gamma|^2 > 0.5, see TestStrongProbe
        return make_protocol(0.5, 0.4, 0.8, 0.9, t, delta=0.25)


def bell_k1_beta0():
    p = get_preset("bell-k1")
    return make_protocol(p.alpha, 0.0, p.gamma, p.chi, p.target, delta=p.delta)


# the target of k1_wide, at |alpha|^2 = 40 and chi = sqrt(1 / 40)
K1_WIDE_TARGET = TargetCoefficients(
    np.array([1.0, -np.exp(-2j * 40.0 * np.sin(np.sqrt(1 / 40)))]))


def k1_wide():
    """K = 1 at |alpha|^2 = 40 and x = 1: n_max 92, so the block operators
    have 185 rows and dominant_eigenstate takes the subspace iteration."""
    return make_protocol(np.sqrt(40.0), np.sqrt(40.0), 0.1, np.sqrt(1 / 40), K1_WIDE_TARGET)


# the target of faint_probe_k3
FAINT_PROBE_TARGET = coeffs_from_photon_target(1, 3, 0.9)


def k2_wide():
    """maxent-k2-low at |alpha|^2 = 160: n_max 257, so the four block
    operators have 515 rows."""
    p = get_preset("maxent-k2-low")
    return make_protocol(np.sqrt(160), np.sqrt(160), p.gamma, p.chi, p.target, delta=p.delta)


def k3_wide():
    """K = 3 at |alpha|^2 = 120 and chi = 0.08, the roots e^{i chi m} for
    m = 1..3: n_max 205, so the eight block operators have 411 rows."""
    chi = 0.08
    t = TargetCoefficients.from_roots(np.exp(1j * chi * np.arange(1, 4)))
    return make_protocol(np.sqrt(120), np.sqrt(120), 0.1, chi, t)


def faint_probe_k3():
    """K = 3 at gamma = 1e-8: every pattern with two or three clicks has
    probability <= P_NEGLIGIBLE, so the live patterns (100, 010, 001, 000)
    are not contiguous in pattern order."""
    return make_protocol(0.5, 0.4, 1e-8, 0.9, FAINT_PROBE_TARGET, delta=0.25)


def k4_wide():
    """K = 4 at |alpha|^2 = 9 and chi = 0.3: n_max 80, so the block operators
    have 161 rows, past one tile of DensOp's Hermiticity check."""
    return make_protocol(3.0, 3.0, 0.1, 0.3, coeffs_from_photon_target(1, 4, 0.3))


BLOCK_CASES = {
    "bell-k1": lambda: preset_protocol("bell-k1"),
    "maxent-k2-low": lambda: preset_protocol("maxent-k2-low"),
    "photon-correlated:2,2": lambda: preset_protocol("photon-correlated:2,2"),
    "photon-correlated:1,3": lambda: preset_protocol("photon-correlated:1,3"),
    "photon-correlated:2,4": lambda: preset_protocol("photon-correlated:2,4"),
    "small_k1": small_k1,
    "small_k2": small_k2,
    "strong-probe": strong_probe,
}


def dense_records(params):
    """(pattern, dense (a, b) operator) per click pattern, each assembled from
    the pattern's kernel by the oracle gather, unnormalized."""
    arms, probe = _branch_labels(params)
    return [(pattern, gathered_rho(params, _pattern_kernel(arms, probe, pattern)))
            for pattern in itertools.product((True, False), repeat=params.scheme.K)]


class TestBlockRoute:
    """The heralded operators over s = n_a + n_b against the dense (a, b)
    operators the oracle gathers from the same kernels."""

    @pytest.mark.parametrize("name", list(BLOCK_CASES))
    def test_dense_view_matches_the_gathered_assembly(self, name):
        params = BLOCK_CASES[name]()
        S = 2 * params.trunc.n_max + 1
        for rec, (pattern, dense) in zip(run_full_protocol(params), dense_records(params)):
            assert rec.pattern == pattern
            assert rec.state.modes == ("s",) and rec.state.matrix.shape == (S, S)
            p = np.trace(dense).real
            assert abs(rec.probability - p) <= 1e-12 * p, (pattern, rec.probability, p)
            td = trace_distance(dense_view(params, rec.state), DensOp(("a", "b"), dense, params.trunc))
            assert td <= 1e-10, (pattern, td)

    @pytest.mark.parametrize("name", [*BLOCK_CASES, "k4-wide"])
    def test_records_are_the_oracle_kernels_bit_for_bit(self, name):
        """The prefix products repeat the one-pattern kernel's multiplications
        in its order, so each record is that kernel scaled by sqrt(N_s) and
        normalized as _record does, to the last bit."""
        params = {**BLOCK_CASES, "k4-wide": k4_wide}[name]()
        arms, probe = _branch_labels(params)
        root = np.sqrt(_held_block(params.alpha, params.beta, params.trunc)[2])
        patterns = list(itertools.product((True, False), repeat=params.scheme.K))
        records = run_full_protocol(params)
        assert [rec.pattern for rec in records] == patterns
        for rec, pattern in zip(records, patterns):
            w = _pattern_kernel(arms, probe, pattern)
            w *= root[:, None]
            w *= root
            p = float(np.trace(w).real)
            if p > P_NEGLIGIBLE:
                w /= p
            assert rec.probability == p, (pattern, rec.probability, p)
            assert np.array_equal(rec.state.matrix, w), pattern

    def test_block_norms_sum_the_grid(self):
        for params in (small_k2(), bell_k1_beta0()):
            got = _held_block(params.alpha, params.beta, params.trunc)[2]
            assert np.allclose(got, block_norms(params), rtol=1e-13, atol=1e-300)

    def test_beta_zero_leaves_the_upper_s_empty(self):
        # |beta> = |0>: N_s = |Q_s(alpha)|^2 up to n_max and exactly 0 beyond,
        # so the block rows past n_max are zero and the lift masks them
        params = bell_k1_beta0()
        target = get_preset("bell-k1").target
        n_max = params.trunc.n_max
        norms = block_norms(params)
        assert np.all(norms[n_max + 1 :] == 0) and np.all(norms[: n_max + 1] > 0)
        tgt = analytic_target_state(target, params.alpha, 0.0, params.chi, params.trunc)
        dense_tgt = dense_target_state(target, params.alpha, 0.0, params.chi, params.trunc)
        for rec, (pattern, dense) in zip(run_full_protocol(params), dense_records(params)):
            assert np.all(rec.state.matrix[n_max + 1 :] == 0)
            p = np.trace(dense).real
            assert abs(rec.probability - p) <= 1e-12 * p
            dense = DensOp(("a", "b"), dense / p, params.trunc)
            assert abs(fidelity(rec.state, tgt) - fidelity(dense, dense_tgt)) < 1e-12
            missing = {j for j, b in enumerate(pattern, start=1) if not b}
            own = semi_success_coeffs(params.scheme.roots, missing)
            residual = 1 - fidelity(rec.state, analytic_target_state(
                own, params.alpha, 0.0, params.chi, params.trunc))
            dense_residual = 1 - fidelity(dense, dense_target_state(
                own, params.alpha, 0.0, params.chi, params.trunc))
            assert abs(residual - dense_residual) < 1e-12
            _, vec = dominant_eigenstate(rec.state)
            e = schmidt_entropy(lift_to_modes(vec, params.alpha, 0.0))
            assert e == 0 and math.copysign(1, e) == 1

    @pytest.mark.parametrize("make", [small_k2, lambda: preset_protocol("bell-k1"),
                                      lambda: dataclasses.replace(
                                          small_k2(), trunc=TruncationSpec(3, tail_tol=0.1))],
                             ids=["small_k2", "bell-k1", "short-cutoff"])
    def test_truncated_mass_is_the_trace_lost_before_heralding(self, make):
        params = make()
        lost = 1 - sum(np.trace(dense).real for _, dense in dense_records(params))
        assert abs(params.truncated_mass - lost) < 1e-14, (params.truncated_mass, lost)
        assert params.truncated_mass >= 0


SIM_PRESETS = ("bell-k1", "maxent-k2-low", "photon-correlated:2,2",
               "photon-correlated:1,3", "photon-correlated:2,4")
# (protocol, its target) of each case whose simulate rows are checked
ROW_CASES = {
    **{name: (lambda name=name: (preset_protocol(name), get_preset(name).target))
       for name in SIM_PRESETS},
    "small_k1": lambda: (small_k1(), SMALL_K1_TARGET),
    "small_k2": lambda: (small_k2(), SMALL_K2_TARGET),
    "k1_wide": lambda: (k1_wide(), K1_WIDE_TARGET),
    "faint_probe_k3": lambda: (faint_probe_k3(), FAINT_PROBE_TARGET),
}


def stacked_rows(prot, target):
    tgt = analytic_target_state(target, prot.alpha, prot.beta, prot.chi, prot.trunc)
    return _metric_rows(prot, tgt, run_full_protocol(prot))


class TestStackedRows:
    """The simulate rows as stacks (protocol._metric_rows) against the loop
    that computed them pattern by pattern (oracles.simulate_rows_per_pattern).
    The probability is the record's own, and the heralded targets'
    coefficients are the loop's byte for byte (``design._heralded_coeffs``).
    The other columns may still differ in the order of float operations:
    the stacks build the targets from zero-padded coefficient rows
    (``_target_states``), which moves the oracle residual by 2.2e-16 on 4 of
    these 50 rows, and sum zero-padded Schmidt weights; hence these absolute
    tolerances."""

    FIDELITY_TOL = 1e-14  # fidelity_vs_target and oracle_residual
    ENTANGLEMENT_TOL = 1e-12

    @pytest.mark.parametrize("name", list(ROW_CASES))
    def test_rows_match_the_per_pattern_loop(self, name):
        prot, target = ROW_CASES[name]()
        got = stacked_rows(prot, target)
        want = simulate_rows_per_pattern(prot, target)
        assert len(got) == len(want) == 2**prot.scheme.K
        for (p, f, e, r), (pat, p0, f0, e0, r0) in zip(got, want):
            assert p == p0, pat
            assert abs(f - f0) <= self.FIDELITY_TOL, (pat, f, f0)
            assert abs(e - e0) <= self.ENTANGLEMENT_TOL, (pat, e, e0)
            assert abs(r - r0) <= self.FIDELITY_TOL, (pat, r, r0)

    def test_cases_cover_both_solvers_and_skipped_patterns(self):
        assert 2 * k1_wide().trunc.n_max + 1 >= SUBSPACE_MIN_ROWS
        assert 2 * preset_protocol("bell-k1").trunc.n_max + 1 >= SUBSPACE_MIN_ROWS
        assert 2 * preset_protocol("maxent-k2-low").trunc.n_max + 1 < SUBSPACE_MIN_ROWS
        live = [p > P_NEGLIGIBLE for p, *_ in stacked_rows(faint_probe_k3(), FAINT_PROBE_TARGET)]
        assert live == [False, False, False, True, False, True, True, True]

    def test_negligible_patterns_get_zero_metrics(self):
        for p, *metrics in stacked_rows(faint_probe_k3(), FAINT_PROBE_TARGET):
            if p <= P_NEGLIGIBLE:
                assert metrics == [0.0, 0.0, 0.0]

    def test_each_heralded_target_is_checked(self):
        # at alpha = beta = 0 only s = 0 is held, where a target is sum_n c_n:
        # the second row's state vanishes, whatever the rows around it
        cs = np.array([[1.0, 1.0, 0.0], [-1.0, 1.0, 0.0], [2.0, 0.0, 0.0]], complex)
        with pytest.raises(DomainError, match="squared norm"):
            _target_states(cs, 0.0, 0.0, 0.5, TruncationSpec(3))
        amps = _target_states(cs[[0, 2]], 0.0, 0.0, 0.5, TruncationSpec(3))
        assert np.allclose(amps[:, 0], 1.0) and not amps[:, 1:].any()


class TestMemoryBudget:
    """The dense-size estimate: nothing here allocates an oversized route."""

    def test_maxent_k2_high_is_over_budget(self):
        prot = preset_protocol("maxent-k2-high")
        S = 2 * prot.trunc.n_max + 1
        assert S == 21423
        kernel = 16 * S**2  # 7.3 GB on its own
        # 4 block operators, the real silent factor of the last arm and two
        # tiles of casting buffers
        tiles = 2 * 16 * HERMITIAN_TILE**2
        assert _dense_bytes(prot, 4) == 4 * kernel + kernel // 2 + tiles
        assert kernel > DENSE_BYTES_LIMIT

    @pytest.mark.parametrize("name", ["bell-k1", "maxent-k2-low", "photon-correlated:2,2",
                                      "photon-correlated:1,3", "photon-correlated:2,4"])
    def test_simulate_presets_fit(self, name):
        prot = preset_protocol(name)
        need = _dense_bytes(prot, 2**prot.scheme.K)
        assert need <= DENSE_BYTES_LIMIT
        if name == "bell-k1":
            assert 0.49e6 < need < 0.5e6, f"bell-k1 needs {need} B"

    @staticmethod
    def traced_peak(prot):
        tracemalloc.start()
        try:
            run_full_protocol(prot)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_estimate_covers_the_traced_peak(self):
        prot = preset_protocol("bell-k1")
        peak, need = self.traced_peak(prot), _dense_bytes(prot, 2)
        assert peak <= need + 2**20, f"traced peak {peak} B, estimate {need} B"
        assert peak <= 2e6
        # K = 1 at |alpha|^2 = 400: 1099 block rows, so each operator (19 MB)
        # dwarfs the cutoff-sized vectors and the estimate must hold by itself
        a2, chi = 400.0, 0.05
        t = TargetCoefficients(np.array([1.0, -np.exp(-2j * a2 * np.sin(chi))]))
        prot = make_protocol(np.sqrt(a2), np.sqrt(a2), 0.1, chi, t)
        assert 2 * prot.trunc.n_max + 1 == 1099
        peak, need = self.traced_peak(prot), _dense_bytes(prot, 2)
        assert peak <= need <= peak + 2**20, f"traced peak {peak} B, estimate {need} B"

    # K = 2 at 515 block rows and K = 3 at 411: the operators and the silent
    # factor dwarf everything else; at K = 3 the click factor's slot 0 is
    # taken by a click child only at the third arm
    @pytest.mark.parametrize("make, rows", [(k2_wide, 515), (k3_wide, 411)],
                             ids=["k2-515-rows", "k3-411-rows"])
    def test_estimate_covers_the_traced_peak_at_k2(self, make, rows):
        prot = make()
        assert 2 * prot.trunc.n_max + 1 == rows
        peak, need = self.traced_peak(prot), _dense_bytes(prot, 2**prot.scheme.K)
        assert peak <= need <= peak + 2**20, f"traced peak {peak} B, estimate {need} B"

    # both cases run the subspace side of _top_eigenpairs (79 and 515 rows)
    @pytest.mark.parametrize("a2, rows", [(None, 79), (160, 515)],
                             ids=["bell-k1-subspace", "k2-subspace"])
    def test_metric_pass_fits_the_tightest_limit(self, monkeypatch, a2, rows):
        """At the smallest DENSE_BYTES_LIMIT a run passes its check at, the
        metric pass takes the records one at a time: with the kernels, it
        stays under the limit, and it gives the rows of the one-chunk pass
        bit for bit."""
        p = get_preset("bell-k1" if a2 is None else "maxent-k2-low")
        alpha = p.alpha if a2 is None else np.sqrt(a2)
        prot = make_protocol(alpha, alpha, p.gamma, p.chi, p.target, delta=p.delta)
        assert 2 * prot.trunc.n_max + 1 == rows
        target = p.target
        tgt = analytic_target_state(target, prot.alpha, prot.beta, prot.chi, prot.trunc)
        want = _metric_rows(prot, tgt, run_full_protocol(prot))
        limit = _dense_bytes(prot, 2**prot.scheme.K)
        monkeypatch.setattr(protocol, "DENSE_BYTES_LIMIT", limit)
        tracemalloc.start()
        try:
            records = run_full_protocol(prot)
            tracemalloc.reset_peak()  # the kernels' own peak: the tests above
            got = _metric_rows(prot, tgt, records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak <= limit, f"traced peak {peak} B, limit {limit} B"

    def test_estimate_stays_within_the_one_pattern_budget(self):
        # the budget of the route that built one pattern's kernel at a time:
        # the operators kept, the kernel in the making and two check tiles;
        # an argv it let run must still run
        for n_max in (5, 39, 63, 64, 90, 549, 10711):
            prot = dataclasses.replace(small_k2(), trunc=TruncationSpec(n_max))
            S = 2 * n_max + 1
            tile = min(HERMITIAN_TILE, S)
            for n in (2**K for K in range(1, 7)):
                old = 16 * ((n + 1) * S**2 + 2 * tile**2)
                assert _dense_bytes(prot, n) <= old, (n_max, n)

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
        S = 2 * prot.trunc.n_max + 1
        tile = min(HERMITIAN_TILE, S)
        assert _dense_bytes(prot, 1) == 16 * (2 * S**2 + 2 * tile**2)


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
            assert trace_distance(dense_view(params, net), op) < 1e-6

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
        params2 = dataclasses.replace(
            params, scheme=DetectionScheme(flipped, params.scheme.delta)
        )
        r1 = operator_path_state(params, [(1,), (2,)]).normalized()
        r2 = operator_path_state(params2, [(2,), (1,)]).normalized()
        assert np.max(np.abs(r1.matrix - r2.matrix)) < 1e-12


class TestEquivalenceAndProbability:
    def test_equivalence_report(self):
        td, residual, exponent = equivalence_report(small_k1(), SMALL_K1_TARGET)
        assert td < 1e-6
        assert residual < 5e-2
        assert 1.5 < exponent < 2.5

    def test_success_probability_formula(self):
        for params, target in small_cases():
            G_a, G_b = pair_gram(target.K, params.alpha, params.beta, params.chi)
            c = target.c
            norm2 = float(np.real(np.conj(c) @ ((G_a * G_b) @ c)))
            want = success_probability(
                target,
                params.gamma,
                1.0,
                q=params.scheme.q,
                norm_squared=norm2,
            )
            got = all_click_record(run_full_protocol(params)).probability
            rel = abs(got - want) / want
            assert rel < 3 * abs(params.gamma) ** 2, f"rel err {rel:.3e}"

    def test_no_all_click_record_raises(self):
        with pytest.raises(ValueError, match="no all-click record"):
            all_click_record([])

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
        e = schmidt_entropy(lift_to_modes(vec, params.alpha, params.beta))
        assert abs(e - 1.0) < 0.05

    def test_agrees_with_dense_eigh(self):
        params = small_k1()
        rec = all_click_record(run_full_protocol(params))
        lam, vec = dominant_eigenstate(rec.state)
        w, v = np.linalg.eigh(dense_view(params, rec.state).matrix)
        assert abs(lam - w[-1]) < 1e-10
        lifted = lift_to_modes(vec, params.alpha, params.beta).amplitudes.ravel()
        ov = abs(np.vdot(v[:, -1], lifted))
        assert abs(ov - 1.0) < 1e-8

    @pytest.mark.parametrize("name, rows", [("photon-correlated:2,2", 81),
                                            ("maxent-k2-low", 225)])
    def test_both_solvers_agree_with_dense_eigh(self, name, rows):
        # rows of the dense (a, b) view; the block operators have 17 and 29
        # rows, below the heevd/subspace crossover
        params = preset_protocol(name)
        for rec in run_full_protocol(params):
            m = dense_view(params, rec.state).matrix
            assert m.shape == (rows, rows)
            assert rec.state.matrix.shape[0] == 2 * params.trunc.n_max + 1 < SUBSPACE_MIN_ROWS
            lam, vec = dominant_eigenstate(rec.state)
            w, v = np.linalg.eigh(m)
            assert abs(lam - w[-1] / np.trace(m).real) < 1e-12, rec.pattern
            lifted = lift_to_modes(vec, params.alpha, params.beta).amplitudes.ravel()
            ov = abs(np.vdot(v[:, -1], lifted))
            assert abs(ov - 1.0) < 1e-10, rec.pattern

    def test_subspace_branch_agrees_with_dense_eigh(self):
        params = k1_wide()
        for rec in run_full_protocol(params):
            m = rec.state.matrix
            assert m.shape[0] == 185 >= SUBSPACE_MIN_ROWS
            lam, vec = dominant_eigenstate(rec.state)
            w, v = np.linalg.eigh(m)
            assert abs(lam - w[-1]) < 1e-12, rec.pattern
            ov = abs(np.vdot(v[:, -1], vec.amplitudes))
            assert abs(ov - 1.0) < 1e-10, rec.pattern

    def test_subspace_route_repeats_bit_for_bit(self):
        # a near-product row: its printed entanglement follows the
        # eigenvector's rounding
        rec = {r.pattern: r for r in run_full_protocol(k1_wide())}[(False,)]
        assert rec.state.matrix.shape[0] >= SUBSPACE_MIN_ROWS
        (lam1, vec1), (lam2, vec2) = (dominant_eigenstate(rec.state) for _ in range(2))
        assert lam1 == lam2
        assert np.array_equal(vec1.amplitudes, vec2.amplitudes)


def flat_spectrum(dim, seed=0):
    """A positive semidefinite matrix of full rank whose eigenvalues fall by
    0.5% each (lam_2 / lam_1 = 0.995): past the subspace block, far from any
    one-step convergence."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    m = (u * 0.995 ** np.arange(dim)) @ u.conj().T
    return (m + m.conj().T) / 2


class TestSubspaceSolver:
    """The top eigenpairs from SUBSPACE_MIN_ROWS rows on, by block subspace
    iteration, against ARPACK (the solver it replaced) and LAPACK."""

    @pytest.mark.parametrize("case, rows", [(k1_wide, 185), (k2_wide, 515)],
                             ids=["k1_wide", "k2-515"])
    def test_agrees_with_eigsh(self, case, rows):
        from scipy.sparse.linalg import eigsh

        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, rows)
        for rec in run_full_protocol(case()):
            m = rec.state.matrix
            assert m.shape[0] == rows
            (lam,), (vec,) = _top_eigenpairs(m[None])
            w, v = eigsh(m, k=1, which="LA", v0=v0)
            assert abs(lam - w[0]) <= 1e-12, rec.pattern
            assert abs(abs(np.vdot(v[:, 0], vec)) - 1.0) <= 1e-10, rec.pattern

    @staticmethod
    def mixed_stack():
        """maxent-k2-low's four operators at n_max 20 (41 rows), of which two
        converge in one step and two in two, and a flat-spectrum matrix that
        takes the dense branch."""
        prot = dataclasses.replace(preset_protocol("maxent-k2-low"), trunc=TruncationSpec(20))
        ms = [r.state.matrix for r in run_full_protocol(prot)]
        return np.stack(ms + [flat_spectrum(41)])

    @pytest.mark.parametrize("cap", [1, 2, SUBSPACE_MAX_STEPS])
    def test_each_matrix_gets_its_own_bits_in_a_stack(self, monkeypatch, cap):
        monkeypatch.setattr(protocol, "SUBSPACE_MAX_STEPS", cap)
        ms = self.mixed_stack()
        assert ms.shape[-1] >= SUBSPACE_MIN_ROWS
        alone = [_top_eigenpairs(m[None]) for m in ms]
        for order in (np.arange(len(ms)), np.arange(len(ms))[::-1]):
            lam, vecs = _top_eigenpairs(ms[order])
            for i, l, v in zip(order, lam, vecs):
                assert l == alone[i][0][0]
                assert np.array_equal(v, alone[i][1][0])
        if cap == 1:
            # the matrices need different step counts: at a one-step cap,
            # some give heevd's bits and some their own
            dense = [np.linalg.eigh(m)[1][:, -1] for m in ms]
            same = [np.array_equal(d, a[1][0]) for d, a in zip(dense, alone)]
            assert any(same) and not all(same)

    @pytest.mark.parametrize("dim", [SUBSPACE_MIN_ROWS, 79])
    def test_flat_spectrum_agrees_with_eigh(self, dim):
        m = flat_spectrum(dim, seed=dim)
        w, v = np.linalg.eigh(m)
        assert w[-2] / w[-1] >= 0.99 and np.linalg.matrix_rank(m) > SUBSPACE_COLS
        (lam,), (vec,) = _top_eigenpairs(m[None])
        assert abs(lam - w[-1]) <= 1e-12
        assert abs(abs(np.vdot(v[:, -1], vec)) - 1.0) <= 1e-10
