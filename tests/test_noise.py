"""Nonideality maps checked against closed forms and a dense Fock-space
reconstruction of the same pipeline."""

import dataclasses
import itertools
import math
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.stats import poisson

import kerrlink.noise as noise_module
from kerrlink.design import TargetCoefficients, semi_success_coeffs, solve_roots
from kerrlink.entangle import _rot_gram, pair_gram
from kerrlink.errors import DegenerateLeadingCoefficient, DomainError
from kerrlink.fock import DensOp, TruncationSpec, coherent_amplitudes, min_cutoff
from kerrlink.noise import (
    DB_PER_KM,
    P_FLOOR,
    FeasibilityReport,
    FidelityBreakdown,
    InequalityCheck,
    NoiseParams,
    _poisson_weights,
    attenuation_db,
    budget_success,
    darkcount_loss_limit,
    db_to_loss,
    eta_params,
    feasibility_check,
    fidelity_leading_order,
    min_distinguishability,
    practical_cutoff_db,
    success_probability,
    superop_pipeline_fidelity,
)
from kerrlink.presets import get_preset
from oracles import (
    _chi_error_term,
    apply_discrete_phase_channel,
    dark_count_mixture,
    darkcount_term_per_detector,
    dense_target_state,
    pipeline_fidelity_per_term,
)


def bell_target(a2, b2, chi):
    """K=1 target with the phase that survives the heralding exactly."""
    return TargetCoefficients(
        np.array([1.0, -np.exp(-1j * (a2 + b2) * np.sin(chi))])
    )


def bell_gram_tau(a2, chi):
    """|<pair_0|pair_1>| for equal intensities a2 in both modes."""
    return math.exp(-2.0 * a2 * (1.0 - math.cos(chi)))


def fock_pipeline_fidelity(target, noise, alpha, beta, gamma, chi):
    """Dense reconstruction: assemble the decayed pair operator in Fock space,
    push it through the discrete-phase channel, compare with the compensated
    reference."""
    c = np.asarray(target.c, dtype=complex)
    K = target.K
    chi_ac = chi * (1.0 + noise.eps_ac)
    chi_bc = chi * (1.0 + noise.eps_bc)
    eta1, eta2 = eta_params(noise, alpha, beta, chi_ac, chi_bc)
    trunc = TruncationSpec(min_cutoff([alpha, beta]))
    vecs = []
    for n in range(K + 1):
        qa = coherent_amplitudes(alpha * np.exp(1j * chi_ac * n), trunc.n_max)
        qb = coherent_amplitudes(beta * np.exp(1j * chi_bc * n), trunc.n_max)
        vecs.append(np.multiply.outer(qa, qb).ravel())
    dim2 = trunc.dim**2
    mat = np.zeros((dim2, dim2), dtype=complex)
    for n1 in range(K + 1):
        for n2 in range(K + 1):
            d = n1 - n2
            mat += (
                c[n1]
                * np.conj(c[n2])
                * np.exp(1j * eta1 * d - eta2 * d * d)
                * np.outer(vecs[n1], np.conj(vecs[n2]))
            )
    rho = DensOp(("a", "b"), mat, trunc)
    rho = apply_discrete_phase_channel(rho, noise.Lambda, gamma, chi_ac)
    cb = TargetCoefficients(c * np.exp(1j * eta1 * np.arange(K + 1)))
    ref = dense_target_state(cb, alpha, beta, chi, trunc).amplitudes.ravel()
    val = float(np.real(np.vdot(ref, rho.matrix @ ref)))
    return val / rho.trace()


class TestNoiseParams:
    def test_defaults_are_quiet(self):
        n = NoiseParams()
        assert n.Lambda == 0 and n.lambda_det == 1.0 and n.zeta == 0

    def test_rejects_negative_loss(self):
        for field in ("Lambda", "Lambda1", "Lambda2", "dphi2"):
            with pytest.raises(ValueError):
                NoiseParams(**{field: -1e-3})

    def test_rejects_bad_detector_numbers(self):
        with pytest.raises(ValueError):
            NoiseParams(lambda_det=0.0)
        with pytest.raises(ValueError):
            NoiseParams(lambda_det=1.5)
        with pytest.raises(ValueError):
            NoiseParams(zeta=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["Lambda", "Lambda1", "Lambda2", "dphi2",
                                       "lambda_det", "zeta", "eps_ac", "eps_bc"])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            NoiseParams(**{field: value})

    def test_feasibility_check_rejects_nan_noise(self):
        with pytest.raises(ValueError):
            feasibility_check(NoiseParams(Lambda=math.nan, dphi2=math.nan), 1.0, 0.1, 0.3, 0.01, 1)


class TestEtaParams:
    def test_worked_example(self):
        noise = NoiseParams(Lambda1=0.01)
        eta1, eta2 = eta_params(noise, math.sqrt(10), math.sqrt(10), 0.01, 0.01)
        assert abs(eta1 - 1e-3) < 1e-15, f"eta1 {eta1}"
        want = 0.01 * (10 * 1e-4 + 10 * 1e-4) / 3
        assert abs(eta2 - want) < 1e-18, f"eta2 {eta2} != {want}"

    def test_symmetric_reduction(self):
        noise = NoiseParams(Lambda1=0.004)
        for a in (0.7, 1.8):
            eta1, _ = eta_params(noise, a, a, 0.05, 0.05)
            assert abs(eta1 - 0.004 * a**2 * 0.05) < 1e-15

    def test_storage_enters_mode_a_only(self):
        noise = NoiseParams(Lambda2=0.02)
        eta1, eta2 = eta_params(noise, 2.0, 3.0, 0.1, 0.7)
        assert abs(eta1 - 4 * 0.1 * 0.02) < 1e-15
        assert abs(eta2 - 0.5 * 4 * 0.01 * 0.02) < 1e-15

    def test_eta1_cancelled_by_redesigned_roots(self):
        # rotating every root by e^{-i eta1} re-phases c_n by e^{i eta1 n},
        # which is exactly what the phase drift eta1 does to the pairs
        gamma, eta1 = 0.25, 0.6
        t = TargetCoefficients(
            np.array([0.5, -1.1 + 0.2j, 1.0], dtype=complex)
        )
        roots = solve_roots(t, gamma)
        rotated = np.array(roots.expanded()) * np.exp(-1j * eta1)
        redesigned = np.poly(rotated / gamma)[::-1]
        want = t.c * np.exp(1j * eta1 * np.arange(t.K + 1))
        scale = redesigned[-1] / want[-1]
        assert np.allclose(redesigned, scale * want, rtol=0, atol=1e-12), (
            f"{redesigned} is not a multiple of {want}"
        )


class TestDiscretePhaseChannel:
    def test_zero_loss_is_identity(self):
        trunc = TruncationSpec(4)
        rng = np.random.default_rng(3)
        m = rng.normal(size=(25, 25)) + 1j * rng.normal(size=(25, 25))
        m = m @ m.conj().T
        rho = DensOp(("a", "b"), m, trunc)
        out = apply_discrete_phase_channel(rho, 0.0, 0.5, 0.1)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_diagonal_states_unaffected_and_trace_kept(self):
        trunc = TruncationSpec(5)
        diag = np.diag(np.linspace(0.5, 0.1, 36))
        rho = DensOp(("a", "b"), diag.astype(complex), trunc)
        out = apply_discrete_phase_channel(rho, 0.8, 0.9, 0.3)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-13)
        assert abs(out.trace() - rho.trace()) < 1e-12

    def test_small_intensity_infidelity(self):
        # exact small-x coefficient for the K=1 pair: (2 + 1/(4 a2)) x (s + s^2);
        # the budget formula x (s + s^2) agrees only up to this O(1) factor
        for a2 in (1.0, 4.0):
            chi = 0.01
            t = bell_target(a2, a2, chi)
            a = math.sqrt(a2)
            trunc = TruncationSpec(min_cutoff([a, a]))
            psi = dense_target_state(t, a, a, chi, trunc).amplitudes.ravel()
            rho = DensOp(("a", "b"), np.outer(psi, np.conj(psi)), trunc)
            s = 0.05
            out = apply_discrete_phase_channel(rho, s, 1.0, chi)
            f = float(np.real(np.vdot(psi, out.matrix @ psi))) / out.trace()
            want = (2 + 1 / (4 * a2)) * a2 * chi**2 * (s + s * s)
            assert abs((1 - f) - want) < 0.01 * want, f"a2={a2}: {1 - f} vs {want}"
            rough = a2 * chi**2 * (s + s * s)
            assert rough / 2.5 < (1 - f) < 2.5 * rough

    @pytest.mark.parametrize("s", [0.08, 1.0, 36.0, 100.0, 700.0])
    def test_poisson_weights_keep_the_mass(self, s):
        w = _poisson_weights(s)
        k = np.arange(len(w))
        kept = poisson.cdf(k[-1], s)
        assert kept >= 1 - 1e-12, f"s={s}: kept mass {kept} over {len(w)} terms"
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.allclose(w, poisson.pmf(k, s) / kept, rtol=1e-9, atol=1e-15)
        # rising up to the mode, falling after it
        mode = int(np.argmax(w))
        assert s - 1 <= mode <= s
        assert np.all(np.diff(w[: mode + 1]) >= 0) and np.all(np.diff(w[mode:]) <= 0)

    def test_poisson_weights_beyond_float_range(self):
        with pytest.raises(DomainError):
            _poisson_weights(1000.0)

    @pytest.mark.parametrize("s", [math.nan, -1.0, math.inf])
    def test_poisson_weights_outside_their_domain(self, s):
        # NaN and -1 once gave [1.], and inf never left the series loop
        with pytest.raises(DomainError, match="finite and >= 0"):
            _poisson_weights(s)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    @pytest.mark.parametrize("budget", [fidelity_leading_order, superop_pipeline_fidelity])
    def test_budgets_reject_a_non_finite_poisson_mean(self, budget, gamma):
        # at gamma = 0.1 the exact F is 0.4379; gamma = NaN once gave 1.0
        # there and F = NaN from the leading order, gamma = inf a hang
        p = get_preset("bell-k1")
        with pytest.raises(DomainError, match="finite and >= 0"):
            budget(p.target, NoiseParams(Lambda=99), p.alpha, p.beta, gamma, p.chi)


def chi_err(t, alpha, beta, chi, eps_ac, eps_bc):
    """The budget's chi_err term with only the nonlinearity errors set."""
    noise = NoiseParams(eps_ac=eps_ac, eps_bc=eps_bc)
    return fidelity_leading_order(t, noise, alpha, beta, 0.3, chi).terms["chi_err"]


ALL_PRESETS = ("bell-k1", "maxent-k2-low", "maxent-k2-high", "photon-correlated:2,2",
               "photon-correlated:1,3", "photon-correlated:2,4")
CHI_ERR_EPS = ((1e-3, -5e-4), (0.03, -0.02), (0.01, 0.02), (-0.04, 0.02), (1e-6, 5e-7))


class TestChiError:
    def test_matches_dense_variance(self):
        # same second moment evaluated with explicit Fock operators
        a, chi = math.sqrt(10), 0.2
        t = bell_target(10.0, 10.0, chi)
        eps_ac, eps_bc = 0.04, -0.03
        trunc = TruncationSpec(min_cutoff([a, a]))
        c = t.c
        vecs = []
        for n in range(2):
            qa = coherent_amplitudes(a * np.exp(1j * chi * n), trunc.n_max)
            qb = coherent_amplitudes(a * np.exp(1j * chi * n), trunc.n_max)
            vecs.append(np.multiply.outer(qa, qb))
        raw = c[0] * vecs[0] + c[1] * vecs[1]
        norm = np.linalg.norm(raw)
        psi_f = raw / norm
        psi_1 = (0 * c[0] * vecs[0] + 1 * c[1] * vecs[1]) / norm
        na = np.arange(trunc.dim)[:, None]
        nb = np.arange(trunc.dim)[None, :]
        g = eps_ac * chi * na + eps_bc * chi * nb
        quad = float(np.sum(g**2 * np.abs(psi_1) ** 2))
        lin = complex(np.sum(np.conj(psi_1) * g * psi_f))
        want = quad - abs(lin) ** 2
        got = chi_err(t, a, a, chi, eps_ac, eps_bc)
        assert abs(got - want) < 1e-10, f"chi error {got} != dense {want}"

    def test_small_chi_closed_form(self):
        # (2|alpha|^2 (e_ac+e_bc)^2 + (e_ac-e_bc)^2)/4 for the K=1 pair
        a2, chi = 10.0, 1e-4
        t = bell_target(a2, a2, chi)
        eps_ac, eps_bc = 0.02, -0.01
        want = (2 * a2 * (eps_ac + eps_bc) ** 2 + (eps_ac - eps_bc) ** 2) / 4
        got = chi_err(t, math.sqrt(a2), math.sqrt(a2), chi, eps_ac, eps_bc)
        assert abs(got - want) < 5e-3 * want, f"{got} vs closed form {want}"

    def test_zero_error_is_zero(self):
        t = bell_target(10.0, 10.0, 0.3)
        got = chi_err(t, math.sqrt(10), math.sqrt(10), 0.3, 0.0, 0.0)
        assert abs(got) < 1e-14

    # the larger errors push chi_err past the budget's validity range
    @pytest.mark.filterwarnings("ignore:loss term chi_err")
    @pytest.mark.parametrize("preset", ALL_PRESETS)
    def test_recorded_weights_match_the_moment_matrices(self, preset):
        # s1^2 A + s2 C from the operating point's record against the per-call
        # moment matrices it replaced; measured worst 8.4e-12 relative
        # (maxent-k2-low, x = 1e-4)
        p = get_preset(preset)
        c = np.asarray(p.target.c, dtype=complex)
        _, G, N, *_ = noise_module._nominal(c, p.K, p.alpha, p.beta, p.chi)
        v = c / math.sqrt(N)
        a2, b2 = abs(p.alpha) ** 2, abs(p.beta) ** 2
        for eps_ac, eps_bc in CHI_ERR_EPS:
            got = chi_err(p.target, p.alpha, p.beta, p.chi, eps_ac, eps_bc)
            want = _chi_error_term(v, G, a2, b2, p.chi, eps_ac, eps_bc)
            assert abs(got - want) <= 1e-11 * want, (eps_ac, eps_bc, got, want)

    @pytest.mark.filterwarnings("ignore:loss term chi_err")
    @pytest.mark.parametrize("preset", ALL_PRESETS)
    def test_quadratic_in_the_errors(self, preset):
        # chi_err(t eps) = t^2 chi_err(eps); measured worst 1.2e-15 relative
        p = get_preset(preset)
        for eps_ac, eps_bc in CHI_ERR_EPS:
            once = chi_err(p.target, p.alpha, p.beta, p.chi, eps_ac, eps_bc)
            thrice = chi_err(p.target, p.alpha, p.beta, p.chi, 3 * eps_ac, 3 * eps_bc)
            assert abs(thrice - 9 * once) <= 1e-14 * 9 * once, (eps_ac, eps_bc, thrice, once)


class TestDarkCounts:
    def test_zero_zeta_is_target_projector(self):
        t = bell_target(10.0, 10.0, 0.2)
        roots = solve_roots(t, 0.3)
        rho = dark_count_mixture(t, roots, math.sqrt(10), math.sqrt(10), 0.2, 0.3, 0.5, 0.0)
        psi = dense_target_state(t, math.sqrt(10), math.sqrt(10), 0.2).amplitudes.ravel()
        assert abs(rho.trace() - 1.0) < 1e-10
        assert np.allclose(rho.matrix, np.outer(psi, np.conj(psi)), atol=1e-12)

    def test_trace_grows_with_zeta(self):
        t = bell_target(10.0, 10.0, 0.2)
        roots = solve_roots(t, 0.3)
        traces = [
            dark_count_mixture(
                t, roots, math.sqrt(10), math.sqrt(10), 0.2, 0.3, 0.5, z
            ).trace()
            for z in (0.0, 1e-5, 1e-4, 1e-3)
        ]
        assert all(b > a for a, b in zip(traces, traces[1:])), f"traces {traces}"

    def test_k1_infidelity_closed_form(self):
        # weight zeta/(lambda|gamma|^2) |c_1|^2/N on the silent-detector state
        a2, chi = 10.0, 0.01
        lam, g2, zeta = 0.1, 0.1, 1e-6
        t = bell_target(a2, a2, chi)
        roots = solve_roots(t, math.sqrt(g2))
        rho = dark_count_mixture(
            t, roots, math.sqrt(a2), math.sqrt(a2), chi, math.sqrt(g2), lam, zeta
        )
        psi = dense_target_state(t, math.sqrt(a2), math.sqrt(a2), chi).amplitudes.ravel()
        f = float(np.real(np.vdot(psi, rho.matrix @ psi))) / rho.trace()
        tau = bell_gram_tau(a2, chi)
        w = zeta / (lam * g2)
        ck2 = 1.0 / (2 - 2 * tau)
        want = w * ck2 * (1 - (1 - tau) / 2) / (1 + w * ck2)
        assert abs((1 - f) - want) < 1e-10, f"infidelity {1 - f} != {want}"
        approx = zeta / (2 * lam * g2 * a2 * chi**2)
        assert abs((1 - f) - approx) < 0.1 * approx

    @staticmethod
    def dense_and_budget(t, a2, chi, gamma, lam, zeta):
        """1 - F of the dense dark-count mixture against the target, and the
        budget's darkcount term, at equal intensities a2 in both modes."""
        a = math.sqrt(a2)
        rho = dark_count_mixture(t, solve_roots(t, gamma), a, a, chi, gamma, lam, zeta)
        psi = dense_target_state(t, a, a, chi, rho.trunc).amplitudes.ravel()
        f = float(np.real(np.vdot(psi, rho.matrix @ psi))) / rho.trace()
        noise = NoiseParams(lambda_det=lam, zeta=zeta)
        return 1 - f, fidelity_leading_order(t, noise, a, a, gamma, chi).terms["darkcount"]

    @pytest.mark.parametrize("a2,chi,gamma,lam,zeta", [
        (10.0, 0.2, 0.3, 0.5, 1e-4),
        (10.0, 0.01, math.sqrt(0.1), 0.1, 1e-6),
        (1.0, 0.5, 0.3, 0.5, 1e-4),
    ])
    def test_k1_budget_term_is_dense_infidelity(self, a2, chi, gamma, lam, zeta):
        # one silent-detector state of weight w1 ck2 beside the target:
        # 1 - F = t_dark / (1 + w1 ck2) exactly (measured gap <= 2e-15)
        t = bell_target(a2, a2, chi)
        infid, t_dark = self.dense_and_budget(t, a2, chi, gamma, lam, zeta)
        a = math.sqrt(a2)
        G_a, G_b = pair_gram(1, a, a, chi)
        G = G_a * G_b
        ck2 = abs(t.c[-1]) ** 2 / float(np.real(np.conj(t.c) @ G @ t.c))
        w1 = zeta / (lam * gamma**2)
        want = t_dark / (1 + w1 * ck2)
        assert abs(infid - want) < 1e-12, f"dense {infid} vs budget {want}"

    @pytest.mark.parametrize("c,a2,chi", [
        ([1, 0.4 - 0.2j, 0.7j], 1.0, 0.8),
        ([1, -1, 1], 2.0, 0.6),
    ])
    @pytest.mark.parametrize("zeta", [1e-6, 1e-5, 1e-4])
    def test_k2_budget_term_matches_to_second_order(self, c, a2, chi, zeta):
        # the budget drops the trace renormalization and the two-dark-count
        # states, both O(t_dark^2) (measured gap 1.4-3.2 t_dark^2)
        t = TargetCoefficients(np.array(c, dtype=complex))
        infid, t_dark = self.dense_and_budget(t, a2, chi, 0.3, 0.5, zeta)
        assert abs(infid - t_dark) <= 5 * t_dark**2, f"dense {infid} vs budget {t_dark}"

    def test_zero_gamma_with_dark_counts_is_a_domain_error(self):
        # the term's weight zeta/(lambda_det |gamma|^2) has no value at gamma 0;
        # without dark counts gamma = 0 is a valid (lossless) budget
        t = bell_target(1.0, 1.0, 0.5)
        with pytest.raises(DomainError, match="gamma"):
            fidelity_leading_order(t, NoiseParams(zeta=1e-6), 1.0, 1.0, 0.0, 0.5)
        quiet = fidelity_leading_order(t, NoiseParams(), 1.0, 1.0, 0.0, 0.5)
        assert quiet.terms["darkcount"] == 0.0

    def test_warns_when_truncation_unreliable(self):
        t = bell_target(1.0, 1.0, 0.5)
        roots = solve_roots(t, 0.1)
        with pytest.warns(UserWarning):
            dark_count_mixture(t, roots, 1.0, 1.0, 0.5, 0.1, 0.5, 1e-3)


class TestBreakdown:
    def test_quiet_noise_gives_unit_fidelity(self):
        t = bell_target(10.0, 10.0, 0.1)
        b = fidelity_leading_order(
            t, NoiseParams(), math.sqrt(10), math.sqrt(10), 0.3, 0.1
        )
        assert b.F == 1.0
        assert all(v == 0.0 for v in b.terms.values())

    def test_fidelity_is_one_minus_the_terms(self):
        assert [f.name for f in dataclasses.fields(FidelityBreakdown)] == ["terms"]
        t = bell_target(10.0, 10.0, 0.1)
        noise = NoiseParams(Lambda=0.5, dphi2=1e-5, Lambda1=1e-3, eps_ac=1e-3)
        b = fidelity_leading_order(t, noise, math.sqrt(10), math.sqrt(10), 0.3, 0.1)
        assert b.F == 1.0 - sum(b.terms.values()) < 1.0

    def test_dephasing_term_closed_form(self):
        # eta2 susceptibility (1+tau)/(2(1-tau)) for the K=1 pair
        a2, chi = 10.0, 10**-0.5
        t = bell_target(a2, a2, chi)
        b = fidelity_leading_order(
            t, NoiseParams(dphi2=1e-5), math.sqrt(a2), math.sqrt(a2), 0.3, chi
        )
        tau = bell_gram_tau(a2, chi)
        want = 1e-5 * (1 + tau) / (2 * (1 - tau))
        assert abs(b.terms["dephase"] - want) < 1e-15, f"{b.terms['dephase']} != {want}"
        assert abs((1 - b.F) - want) < 1e-15

    def test_small_x_limit_is_eta2_over_x(self):
        a2, chi = 10.0, 1e-3
        t = bell_target(a2, a2, chi)
        b = fidelity_leading_order(
            t, NoiseParams(dphi2=1e-9), math.sqrt(a2), math.sqrt(a2), 0.3, chi
        )
        want = 1e-9 / (a2 * chi**2)
        assert abs(b.terms["dephase"] - want) < 0.01 * want

    def test_each_source_owns_one_term(self):
        a2, chi = 1.0, 0.01
        t = bell_target(a2, a2, chi)
        full = NoiseParams(
            Lambda=0.1,
            Lambda1=1e-3,
            Lambda2=1e-3,
            dphi2=1e-6,
            zeta=1e-7,
            lambda_det=0.5,
            eps_ac=0.01,
            eps_bc=-0.02,
        )
        kill = {
            "dephase": {"dphi2": 0.0},
            "kerr_loss": {"Lambda1": 0.0},
            "storage": {"Lambda2": 0.0},
            "chi_err": {"eps_ac": 0.0, "eps_bc": 0.0},
            "darkcount": {"zeta": 0.0},
            "discrete_phase": {"Lambda": 0.0},
        }
        base = fidelity_leading_order(t, full, 1.0, 1.0, 0.3, chi)
        for name, patch in kill.items():
            cut = NoiseParams(**{**full.__dict__, **patch})
            b = fidelity_leading_order(t, cut, 1.0, 1.0, 0.3, chi)
            assert b.terms[name] == 0.0, f"{name} not zeroed"
            for other, val in b.terms.items():
                if other != name:
                    assert abs(val - base.terms[other]) < 1e-15, (
                        f"{other} moved when zeroing {name}"
                    )

    def test_terms_are_nonnegative(self):
        t = bell_target(10.0, 10.0, 0.05)
        b = fidelity_leading_order(
            t,
            NoiseParams(Lambda=0.2, Lambda1=1e-3, Lambda2=1e-3, dphi2=1e-6,
                        zeta=1e-8, lambda_det=0.1, eps_ac=0.005, eps_bc=0.004),
            math.sqrt(10), math.sqrt(10), 0.3, 0.05,
        )
        for name, v in b.terms.items():
            assert v >= -1e-12, f"term {name} = {v} negative"

    def test_warns_between_regimes_and_on_large_terms(self):
        t = bell_target(10.0, 10.0, 10**-0.5)
        with pytest.warns(UserWarning, match="interpolating"):
            fidelity_leading_order(
                t, NoiseParams(Lambda=0.1), math.sqrt(10), math.sqrt(10), 0.3, 10**-0.5
            )
        t2 = bell_target(1.0, 1.0, 0.01)
        with pytest.warns(UserWarning, match="validity"):
            fidelity_leading_order(
                t2, NoiseParams(dphi2=0.05), 1.0, 1.0, 0.3, 0.01
            )

    @pytest.mark.parametrize("s", [1e-3, 1e-2, 0.1])
    def test_discrete_phase_interpolation_tracks_exact(self, s):
        # between the small- and large-x closed forms the budget interpolates
        # log-linearly; Lambda-only noise, so 1 - F is the discrete-phase term
        # alone.  Measured lead/exact ratios over this grid: 0.535-1.364.
        a2, gamma = 10.0, 0.3
        a = math.sqrt(a2)
        noise = NoiseParams(Lambda=s / gamma**2)
        ratios = []
        for x in np.geomspace(0.3, 3, 9):
            chi = math.sqrt(x / a2)
            u = np.exp(-2j * a2 * chi)
            targets = (
                [1, -np.exp(-2j * a2 * np.sin(chi))],
                [1, -u, u * u],
                [1, -2 * u, u * u],
            )
            for c in targets:
                t = TargetCoefficients(np.array(c, dtype=complex))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    lead = 1 - fidelity_leading_order(t, noise, a, a, gamma, chi).F
                exact = 1 - superop_pipeline_fidelity(t, noise, a, a, gamma, chi)
                ratios.append(lead / exact)
        assert 0.5 <= min(ratios) and max(ratios) <= 2.0, (
            f"s={s}: lead/exact ratios {min(ratios):.3f}-{max(ratios):.3f}"
        )


class TestGramPerBudget:
    """Each budget asks for the nominal pair Gram once per call."""

    @staticmethod
    def count_pair_gram(monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return pair_gram(*args)

        monkeypatch.setattr(noise_module, "pair_gram", counted)
        return calls

    def test_leading_order_builds_one_gram(self, monkeypatch):
        calls = self.count_pair_gram(monkeypatch)
        t = TargetCoefficients(np.array([1, 0.4 - 0.2j, 0.7j]))
        noise = NoiseParams(Lambda=0.1, Lambda1=1e-3, Lambda2=1e-3, dphi2=1e-5,
                            lambda_det=0.5, zeta=1e-6, eps_ac=0.01, eps_bc=0.02)
        fidelity_leading_order(t, noise, 1.0, 1.0, 0.3, 0.2)
        assert len(calls) == 1

    def test_pipeline_builds_one_gram(self, monkeypatch):
        calls = self.count_pair_gram(monkeypatch)
        t = bell_target(10.0, 10.0, 0.3)
        noise = NoiseParams(Lambda=0.2, dphi2=1e-4, eps_ac=0.03, eps_bc=-0.02)
        superop_pipeline_fidelity(t, noise, math.sqrt(10), math.sqrt(10), 0.3, 0.3)
        assert len(calls) == 1


# The noise-budget benchmark's grid at four attenuations: its presets, and
# its three mixes, two of which carry a nonlinearity mismatch scaled by dB.
GRID_PRESETS = ("bell-k1", "maxent-k2-low", "photon-correlated:2,2", "photon-correlated:1,3")
GRID_MIXES = (
    (dict(dphi2=1e-4, Lambda1=1e-3, Lambda2=1e-2), (3e-6, -2e-6)),
    (dict(lambda_det=1e-1, zeta=1e-6), (0.0, 0.0)),
    (dict(lambda_det=1e-2, zeta=1e-8), (2e-3, -1e-3)),
)


def grid_noise(db, mix):
    extra, (eps_ac, eps_bc) = mix
    scale = 1.0 + db / 31
    return NoiseParams(
        Lambda=db_to_loss(db), eps_ac=eps_ac * scale, eps_bc=eps_bc * scale, **extra
    )


class TestSingleContraction:
    """The budgets' contractions against the loops they replaced."""

    @pytest.mark.parametrize("preset", GRID_PRESETS)
    def test_budgets_match_the_loops_on_the_grid(self, preset):
        p = get_preset(preset)
        for db, mix in itertools.product((0, 10, 20, 30), GRID_MIXES):
            args = (p.target, grid_noise(db, mix), p.alpha, p.beta, p.gamma, p.chi)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # between-regime interpolation
                dark = fidelity_leading_order(*args).terms["darkcount"]
            want = darkcount_term_per_detector(*args)
            assert abs(dark - want) <= 1e-11 * abs(want), (db, mix, dark, want)
            exact, want = superop_pipeline_fidelity(*args), pipeline_fidelity_per_term(*args)
            assert abs(exact - want) <= 1e-11 * abs(want), (db, mix, exact, want)
            assert 0.0 <= exact <= 1.0, (db, mix, exact)

    def test_second_call_solves_no_roots(self, monkeypatch):
        calls = []
        np_roots = np.roots

        def counted(p):
            calls.append(p)
            return np_roots(p)

        monkeypatch.setattr(np, "roots", counted)
        noise_module._MEMO.clear()
        t = TargetCoefficients(np.array([1, -0.3 + 0.1j, 0.2j, 0.5]))
        noise = NoiseParams(lambda_det=0.5, zeta=1e-6)
        first, second = (fidelity_leading_order(t, noise, 1.0, 1.0, 0.3, 0.2) for _ in range(2))
        # the target solves its roots once; the rows come from them
        assert len(calls) == 1
        assert first == second


class TestOperatingPointMemo:
    """What depends only on the operating point is recorded once per key, and
    a warm call reads back the cold call's values bit for bit."""

    NOISE = NoiseParams(Lambda=0.1, Lambda1=1e-3, Lambda2=1e-3, dphi2=1e-5,
                        lambda_det=0.5, zeta=1e-6, eps_ac=0.01, eps_bc=0.02)
    ARGS = (0.5, 0.5, 0.3, 0.1)  # alpha, beta, gamma, chi

    def budgets(self, t):
        lead = fidelity_leading_order(t, self.NOISE, *self.ARGS)
        return repr((lead.terms, superop_pipeline_fidelity(t, self.NOISE, *self.ARGS)))

    def cold(self, t):
        noise_module._MEMO.clear()
        return self.budgets(t)

    def test_warm_calls_equal_cold_calls(self):
        t = TargetCoefficients(np.array([1, 0.4 - 0.2j, 0.7j]))
        cold = self.cold(t)
        assert len(noise_module._MEMO) == 2  # the nominal and the dark-count record
        assert self.budgets(t) == self.budgets(t) == cold

    @pytest.mark.parametrize("view_first", [True, False])
    def test_layouts_of_one_c_get_their_own_records(self, view_first):
        # the same values as a reversed view and as a contiguous copy: their
        # Gram products round differently on common BLAS builds
        c = np.array([0.7j, 0.4 - 0.2j, 1.0])[::-1]
        view, copy = TargetCoefficients(c), TargetCoefficients(c.copy())
        assert view.c.strides == (-16,) and copy.c.strides == (16,)
        cold = [(t, self.cold(t)) for t in (view, copy)]
        noise_module._MEMO.clear()
        order = cold if view_first else cold[::-1]
        for t, want in order + order:
            assert self.budgets(t) == want
        assert len(noise_module._MEMO) == 4

    def test_a_vanishing_target_raises_on_every_call(self):
        t = TargetCoefficients(np.array([1.0, -1.0]))
        noise_module._MEMO.clear()
        for budget in (fidelity_leading_order, superop_pipeline_fidelity) * 2:
            with pytest.raises(DomainError, match="squared norm 0"):
                budget(t, NoiseParams(), 0.0, 0.0, 0.1, 0.5)
        assert not noise_module._MEMO

    def test_records_are_read_only(self):
        self.cold(TargetCoefficients(np.array([1, 0.4 - 0.2j, 0.7j])))
        nominal, dark = noise_module._MEMO.values()
        arrays = [x for x in nominal if isinstance(x, np.ndarray)]
        assert len(arrays) == 1  # G; the rest are scalars
        assert not any(a.flags.writeable for a in arrays)
        assert type(dark) is float  # the dark-count sum

    def test_dark_factors_are_read_only_and_read_semi_success_coeffs(self):
        t = TargetCoefficients(np.array([1, 0.4 - 0.2j, 0.7j]))
        c = t.c
        noise_module._MEMO.clear()
        key, G, N, *_ = noise_module._nominal(c, t.K, 1.0, 1.0, 0.2)
        S = noise_module._dark_factors(key, c, G, N, t.roots, 0.3 + 0j)
        assert type(S) is float  # immutable
        roots = solve_roots(t, 0.3)
        rows = [semi_success_coeffs(roots, {j}).c for j in range(1, t.K + 1)]
        ct = np.array([np.pad(cj, (0, t.K + 1 - len(cj))) for cj in rows])
        nt = np.real(np.sum(np.sum(np.conj(ct)[:, :, None] * G, axis=1) * ct, axis=1))
        ov = np.sum(ct * (np.conj(c) @ G), axis=1)
        miss = 1.0 - np.real(ov * np.conj(ov)) / (N * nt)
        assert S == float(abs(c[-1]) ** 2 / N * np.sum(miss))

    def test_threads_share_the_memo(self):
        # more workers than cores, each evicting records past the memo's bound
        t = TargetCoefficients(np.array([1, 0.5 - 0.5j]))
        noise = NoiseParams(dphi2=1e-5, lambda_det=0.5, zeta=1e-6)
        chis = np.linspace(0.1, 0.2, noise_module._MEMO_SIZE + 40)

        def sweep():
            return [repr(fidelity_leading_order(t, noise, 1.0, 1.0, 0.3, chi).terms)
                    for chi in chis]

        noise_module._MEMO.clear()
        want = sweep()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(sweep) for _ in range(8)]
                got = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * 8
        assert len(noise_module._MEMO) == noise_module._MEMO_SIZE


class TestPipeline:
    def test_quiet_noise_is_exact_unity(self):
        t = bell_target(10.0, 10.0, 0.3)
        f = superop_pipeline_fidelity(
            t, NoiseParams(), math.sqrt(10), math.sqrt(10), 0.3, 0.3
        )
        assert abs(f - 1.0) < 1e-12, f"quiet pipeline fidelity {f}"

    def test_matches_dense_fock_k1(self):
        a, chi = math.sqrt(10), 10**-0.5
        t = bell_target(10.0, 10.0, chi)
        noise = NoiseParams(
            Lambda=0.2, Lambda1=1e-3, Lambda2=2e-3, dphi2=1e-4,
            eps_ac=0.03, eps_bc=-0.02,
        )
        got = superop_pipeline_fidelity(t, noise, a, a, 0.3, chi)
        want = fock_pipeline_fidelity(t, noise, a, a, 0.3, chi)
        assert abs(got - want) < 1e-8, f"pair {got} vs Fock {want}"

    def test_detectors_do_not_enter(self):
        # the exact budget composes the channel stages only: detector
        # efficiency and dark counts leave F bit-identical
        p = get_preset("bell-k1")
        noise = NoiseParams(Lambda=0.2, Lambda1=1e-3, Lambda2=2e-3, dphi2=1e-4,
                            eps_ac=0.03, eps_bc=-0.02)
        detectors = dataclasses.replace(noise, lambda_det=0.01, zeta=1e-3)
        args = (p.alpha, p.beta, p.gamma, p.chi)
        f = superop_pipeline_fidelity(p.target, noise, *args)
        assert f < 1.0
        assert superop_pipeline_fidelity(p.target, detectors, *args) == f

    def test_matches_dense_fock_k2(self):
        chi = 0.01
        x = 1e-4
        c = np.array(
            [1.0, -2 * (1 - x) * np.exp(-2j * chi), np.exp(-4j * chi)]
        )
        t = TargetCoefficients(c)
        noise = NoiseParams(
            Lambda=0.5, Lambda1=5e-3, Lambda2=1e-3, dphi2=5e-4,
            eps_ac=-0.04, eps_bc=0.02,
        )
        got = superop_pipeline_fidelity(t, noise, 1.0, 1.0, 0.4, chi)
        want = fock_pipeline_fidelity(t, noise, 1.0, 1.0, 0.4, chi)
        assert abs(got - want) < 1e-8, f"pair {got} vs Fock {want}"

    def test_pure_dephasing_agrees_with_budget(self):
        a2, chi = 10.0, 10**-0.5
        t = bell_target(a2, a2, chi)
        noise = NoiseParams(dphi2=1e-6)
        f = superop_pipeline_fidelity(t, noise, math.sqrt(a2), math.sqrt(a2), 0.3, chi)
        tau = bell_gram_tau(a2, chi)
        want = 1e-6 * (1 + tau) / (2 * (1 - tau))
        assert abs((1 - f) - want) < 1e-9, f"pipeline {1 - f} vs budget {want}"

    def test_discrete_phase_small_x_closed_form(self):
        a2, chi = 1.0, 0.01
        t = bell_target(a2, a2, chi)
        noise = NoiseParams(Lambda=0.05)
        f = superop_pipeline_fidelity(t, noise, 1.0, 1.0, 1.0, chi)
        s = 0.05
        want = (2 + 1 / (4 * a2)) * a2 * chi**2 * (s + s * s)
        assert abs((1 - f) - want) < 0.01 * want, f"{1 - f} vs {want}"

    def test_long_distance_weighs_the_full_poisson_law(self):
        # 40 dB (~200 km at 0.2 dB/km) puts s = Lambda |gamma|^2 near 100, far
        # past the Poisson mode; every rotation chi k counts with weight
        # Poisson(k; s).  F is not monotone in dB here: at 30 dB the mean
        # rotation chi s is near pi and F dips below its large-s plateau.
        p = get_preset("bell-k1")
        lam = db_to_loss(40.0)
        s = lam * abs(p.gamma) ** 2
        got = superop_pipeline_fidelity(
            p.target, NoiseParams(Lambda=lam), p.alpha, p.beta, p.gamma, p.chi
        )
        c = p.target.c
        th = p.chi * np.arange(p.target.K + 1)
        a2, b2 = abs(p.alpha) ** 2, abs(p.beta) ** 2
        G_b = _rot_gram(b2, th, th)
        norm2 = float(np.real(np.conj(c) @ (_rot_gram(a2, th, th) * G_b) @ c))
        k = np.arange(int(s + 20 * math.sqrt(s)))
        f_k = [
            abs(np.conj(c) @ (_rot_gram(a2, th, th + p.chi * kk) * G_b) @ c) ** 2 / norm2**2
            for kk in k
        ]
        want = float(np.sum(poisson.pmf(k, s) * f_k))
        assert got < 0.5, f"F(40 dB) = {got}"
        assert abs(got - want) < 1e-9, f"pipeline {got} vs full Poisson mixture {want}"


class TestVanishingTarget:
    @pytest.mark.parametrize("budget", [fidelity_leading_order, superop_pipeline_fidelity])
    def test_zero_norm_target_raises(self, budget):
        # 1 - 1 at alpha = beta = 0: every coherent pair is the vacuum, so the
        # target state is zero and has no fidelity to report
        t = TargetCoefficients(np.array([1.0, -1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="squared norm 0"):
                budget(t, NoiseParams(), 0.0, 0.0, 0.1, 0.5)

    @pytest.mark.parametrize("c, chi, Lambda", [
        ([1.0, 0.0, -1.0], math.pi / 1.01, 0.0),
        ([1.0, -1.0], 2 * math.pi / 1.01, 0.5),
    ])
    def test_vanishing_noisy_state_raises(self, c, chi, Lambda):
        # chi_ac = chi_bc = 1.01 chi puts pairs 0 and 2 (or 0 and 1) on one
        # label, so the noisy state vanishes while the nominal target does not
        t = TargetCoefficients(np.array(c))
        noise = NoiseParams(Lambda=Lambda, eps_ac=0.01, eps_bc=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="noisy state has squared norm"):
                superop_pipeline_fidelity(t, noise, 1.0, 1.0, 0.1, chi)


class TestRootsOnlyForDarkCounts:
    def test_budgets_run_on_a_target_whose_c_K_vanishes(self):
        # only the dark-count term reads the target's roots
        t = TargetCoefficients(np.array([1.0, 0.5, 0.0]))
        noise = NoiseParams(dphi2=1e-5, Lambda=0.1, lambda_det=0.5)
        budget = fidelity_leading_order(t, noise, 1.0, 1.0, 0.1, 0.3)
        assert budget.terms["darkcount"] == 0.0 and 0.0 < budget.F < 1.0
        assert 0.0 < superop_pipeline_fidelity(t, noise, 1.0, 1.0, 0.1, 0.3) <= 1.0
        with pytest.raises(DegenerateLeadingCoefficient):
            fidelity_leading_order(
                t, dataclasses.replace(noise, zeta=1e-6), 1.0, 1.0, 0.1, 0.3
            )


class TestSuccessProbability:
    def test_k1_example(self):
        t = TargetCoefficients(np.array([1.0, -1.0]))
        p = success_probability(t, math.sqrt(0.1), 0.01, q=1.0)
        assert abs(p - 1e-3) < 1e-15, f"p {p}"

    def test_k2_example(self):
        t = TargetCoefficients(np.array([1.0, -2.0, 1.0]))
        p = success_probability(t, math.sqrt(0.1), 0.1)
        assert abs(p - 2.5e-5) < 1e-18, f"p {p}"

    def test_validation(self):
        t = TargetCoefficients(np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            success_probability(t, 0.3, 0.0)

    @pytest.mark.parametrize("c_K", [0.0, 1e-200])
    def test_vanishing_leading_coefficient_raises(self, c_K):
        # a typed error, not numpy's divide-by-zero warning and inf; 1e-200
        # squares to 0
        t = TargetCoefficients(np.array([1.0, -1.0, c_K]))
        with pytest.raises(DegenerateLeadingCoefficient, match=r"\|c_K\|\^2 = 0"):
            success_probability(t, 0.3, 0.1)


class TestFeasibility:
    def test_reference_detector_reach(self):
        # zeta=1e-8, lambda=1e-2, eps=1/60: loss limit 2 eps^2 lambda/zeta
        noise = NoiseParams(lambda_det=1e-2, zeta=1e-8)
        rep = feasibility_check(noise, math.sqrt(10), 0.01, 0.1, 1 / 60, 1)
        lam_max = 2 * (1 / 60) ** 2 * 1e-2 / 1e-8
        assert abs(lam_max - 5000 / 9) < 1e-9
        assert abs(rep.max_attenuation_db - attenuation_db(lam_max)) < 1e-12
        assert abs(rep.max_attenuation_db - 27.4554) < 1e-3
        assert abs(rep.max_distance_km - 137.277) < 5e-3

    def test_quiet_parameters_pass_with_infinite_margins(self):
        rep = feasibility_check(NoiseParams(), 1.0, 0.1, 0.1, 0.01, 1)
        assert rep.all_pass
        by_name = {c.name: c for c in rep.checks}
        assert math.isinf(by_name["channel_loss"].bound)
        assert math.isinf(by_name["probe_intensity"].bound)
        assert math.isinf(rep.max_attenuation_db)
        assert all(c.margin > 0 for c in rep.checks)

    def test_k2_tightens_four_bounds(self):
        noise = NoiseParams(lambda_det=0.1, zeta=1e-8)
        r1 = {c.name: c.bound for c in feasibility_check(noise, 1.0, 0.1, 0.1, 0.01, 1).checks}
        r2 = {c.name: c.bound for c in feasibility_check(noise, 1.0, 0.1, 0.1, 0.01, 2).checks}
        for name in ("storage_loss", "phase_noise", "kerr_loss", "nonlinearity_error"):
            assert abs(r2[name] - 0.5 * r1[name]) < 1e-15, name
        assert r1["channel_loss"] == r2["channel_loss"]

    def test_failing_inequality_is_reported(self):
        noise = NoiseParams(Lambda=1.0, Lambda2=0.5, lambda_det=0.1, zeta=1e-4)
        rep = feasibility_check(noise, math.sqrt(10), 0.05, 0.3, 0.01, 1)
        by_name = {c.name: c for c in rep.checks}
        assert not by_name["storage_loss"].passed
        assert by_name["storage_loss"].margin < 0
        assert not rep.all_pass

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            feasibility_check(NoiseParams(), 1.0, 0.1, 0.1, 0.2, 1)
        with pytest.raises(ValueError):
            feasibility_check(NoiseParams(), 1.0, 0.1, 0.1, 0.0, 1)

    def test_k_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="K must be >= 1"):
            feasibility_check(NoiseParams(), 1.0, 0.1, 0.1, 0.01, 0)

    def test_verdicts_derive_from_the_stored_values(self):
        # a check stores (name, value, bound) and a report (checks, reach);
        # margin, passed, all_pass and the distance are read off them
        assert [f.name for f in dataclasses.fields(InequalityCheck)] == ["name", "value", "bound"]
        assert [f.name for f in dataclasses.fields(FeasibilityReport)] == [
            "checks", "max_attenuation_db"]
        on = InequalityCheck("x", 1.0 + 1e-13, 1.0)
        past = InequalityCheck("x", 1.0 + 1e-9, 1.0)
        assert on.passed and on.margin == 1.0 - (1.0 + 1e-13)
        assert not past.passed
        assert FeasibilityReport((on,), 20.0).all_pass
        rep = FeasibilityReport((on, past), 20.0)
        assert not rep.all_pass and rep.max_distance_km == 20.0 / DB_PER_KM

    def test_zero_alpha_is_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            feasibility_check(NoiseParams(), 0.0, 0.1, 0.1, 0.01, 1)

    def test_point_on_the_phase_noise_bound_passes(self):
        # feasibility's operating point chi = sqrt(x/|alpha|^2), x = dphi2/(eps f),
        # puts dphi2 on its bound x eps f up to round-off; only phase noise is
        # present, so every check passes, and 1e-9 past the bound fails
        points = itertools.product(
            range(1, 5), np.linspace(0.5, 0.99, 50), (1e-5, 2.5e-5, 1e-4),
            (1.0, math.sqrt(10.0), 10.0),
        )
        for K, F, dphi2, alpha in points:
            eps = (1.0 - F) / 6.0
            chi = math.sqrt(min_distinguishability(K, eps, dphi2) / alpha**2)
            on = NoiseParams(dphi2=dphi2, lambda_det=1e-2, zeta=1e-8)
            rep = feasibility_check(on, alpha, chi, math.sqrt(0.5), eps, K)
            assert rep.all_pass, (K, F, dphi2, alpha, rep.checks[2])
            past = NoiseParams(dphi2=dphi2 * (1 + 1e-9), lambda_det=1e-2, zeta=1e-8)
            phase = feasibility_check(past, alpha, chi, math.sqrt(0.5), eps, K).checks[2]
            assert phase.name == "phase_noise" and not phase.passed, (K, F, dphi2, alpha)


class TestBudgetSweeps:
    def test_darkcount_wall_and_cutoff_numbers(self):
        eps = 1 / 60
        wall = attenuation_db(darkcount_loss_limit(eps, 1e-2, 1e-8))
        assert abs(wall - 27.4554) < 1e-3, f"dark-count wall {wall} dB"
        cut = practical_cutoff_db(2, eps, 1e-2, 2.5e-5)
        assert abs(cut - 14.5906) < 1e-3, f"K=2 cutoff {cut} dB"

    def test_budget_vanishes_past_the_wall(self):
        eps = 1 / 60
        lam_max = darkcount_loss_limit(eps, 1e-2, 1e-8)
        assert budget_success(1, lam_max * 1.01, eps, 1e-2, 1e-8, 2.5e-5) == 0.0
        assert budget_success(1, lam_max * 0.99, eps, 1e-2, 1e-8, 2.5e-5) > 0.0

    def test_probe_cap_binds_at_low_loss(self):
        eps = 1 / 60
        p = budget_success(1, 1e-6, eps, 1e-2, 1e-8, 2.5e-5)
        assert abs(p - 1e-2 * 0.5) < 1e-12, f"capped p {p}"

    def test_cutoff_inverts_budget(self):
        # p_K falls through P_FLOOR at the cutoff; a cutoff of 0 dB means the
        # probe cap keeps p_K below P_FLOOR at every attenuation (low-dark
        # K = 3, 4 and high-eff K = 4)
        eps, dphi2 = 1 / 60, 2.5e-5
        capped = {(3, 1e-2), (4, 1e-2), (4, 1e-1)}
        for K, lam_det in itertools.product((1, 2, 3, 4), (1e-2, 1e-1)):  # low-dark, high-eff
            db = practical_cutoff_db(K, eps, lam_det, dphi2)
            p = budget_success(K, db_to_loss(db), eps, lam_det, 0.0, dphi2)
            if (K, lam_det) in capped:
                assert db == 0.0 and p < P_FLOOR, f"K={K} cutoff {db} dB, p(0 dB) {p}"
            else:
                assert abs(p - P_FLOOR) < 1e-6 * P_FLOOR, f"K={K} p at cutoff {p}"
                nearer = budget_success(K, db_to_loss(0.99 * db), eps, lam_det, 0.0, dphi2)
                assert nearer > P_FLOOR, f"K={K} p below the cutoff {nearer}"

    def test_sweep_rows_are_monotone(self):
        eps = (1.0 - 0.9) / 6.0
        ps = [budget_success(2, db_to_loss(db), eps, 1e-2, 1e-8, 2.5e-5)
              for db in np.linspace(5, 20, 16)]
        assert all(b <= a for a, b in zip(ps, ps[1:]))
        lam = db_to_loss(14.0)
        ps_f = [budget_success(1, lam, (1.0 - f) / 6.0, 1e-2, 1e-8, 2.5e-5)
                for f in np.linspace(0.5, 0.95, 10)]
        assert all(b <= a for a, b in zip(ps_f, ps_f[1:]))

    @pytest.mark.parametrize("K", [0, -1])
    def test_budget_success_needs_a_detector(self, K):
        with pytest.raises(ValueError, match="K must be >= 1"):
            budget_success(K, 1e-3, 1 / 60, 1e-2, 1e-8, 2.5e-5)

    @pytest.mark.parametrize("K", [0, -1])
    def test_practical_cutoff_needs_a_detector(self, K):
        with pytest.raises(ValueError, match="K must be >= 1"):
            practical_cutoff_db(K, 1 / 60, 1e-2, 2.5e-5)

    def test_attenuation_beyond_float_range(self):
        assert db_to_loss(3000.0) > 0
        with pytest.raises(DomainError):
            db_to_loss(4000.0)

    @pytest.mark.parametrize("helper,value,message", [
        (db_to_loss, math.nan, "attenuation nan dB is not a number"),
        (db_to_loss, -1.0, "attenuation -1 dB is negative"),
        (attenuation_db, math.nan, "relative loss Lambda = nan is not >= 0"),
        (attenuation_db, -1.0, "relative loss Lambda = -1 is not >= 0"),
        (attenuation_db, -0.5, "relative loss Lambda = -0.5 is not >= 0"),
    ])
    def test_db_helpers_raise_domain_error(self, helper, value, message):
        # a gain is no loss, and NaN is neither
        with pytest.raises(DomainError, match=re.escape(message)):
            helper(value)

    def test_probe_bound_past_float_range_is_zero(self):
        # x Lambda past float range is inf, without numpy's overflow warning
        assert noise_module._probe_bound(0.01, np.float64(1e300), np.float64(1e10)) == 0.0

    def test_min_distinguishability_scales_with_k(self):
        assert abs(min_distinguishability(1, 0.01, 1e-5) - 1e-3) < 1e-15
        assert abs(min_distinguishability(2, 0.01, 1e-5) - 2e-3) < 1e-15
