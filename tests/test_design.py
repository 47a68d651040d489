"""Network synthesis: root finding, splitter chain, reference cascade."""

import dataclasses
import itertools
import json
from collections import Counter

import numpy as np
import pytest

from kerrlink.design import (
    DetectionScheme,
    EliminationRoots,
    TargetCoefficients,
    _heralded_coeffs,
    build_scheme,
    coeffs_from_photon_target,
    probe_affine,
    reference_amplitudes,
    reference_network,
    semi_success_coeffs,
    solve_roots,
    to_json,
    transmittances,
)
from kerrlink.errors import DegenerateLeadingCoefficient, NoSolution
from kerrlink.fock import TruncationSpec, coherent_amplitudes
from kerrlink.presets import get_preset
from oracles import apply_beamsplitter, inner, probe_cascade, product_state, refnet_angles


def poly_eval(coeffs, x):
    return sum(c * x**n for n, c in enumerate(coeffs))


class TestSolveRoots:
    def test_single_root_phase_rotation(self):
        # c = (1, -e^{-2i a2 sin(chi)}) must place its root at gamma e^{2i a2 sin(chi)}
        a2, chi, gamma = 10.0, 0.3, 0.1
        t = TargetCoefficients(np.array([1.0, -np.exp(-2j * a2 * np.sin(chi))]))
        r = solve_roots(t, gamma)
        assert len(r.roots) == 1 and r.roots[0][1] == 1
        want = gamma * np.exp(2j * a2 * np.sin(chi))
        assert abs(r.roots[0][0] - want) < 1e-12

    def test_two_root_factorization(self):
        chi, gamma = 0.7, 0.2
        t = TargetCoefficients(np.array([np.exp(1j * chi), -1 - np.exp(1j * chi), 1.0]))
        r = solve_roots(t, gamma)
        vals = [z for z, _ in r.roots]
        assert abs(vals[0] - gamma) < 1e-12
        assert abs(vals[1] - gamma * np.exp(1j * chi)) < 1e-12

    def test_double_root_merges(self):
        r = solve_roots(TargetCoefficients(np.array([1.0, -2.0, 1.0])), 0.1)
        assert len(r.roots) == 1
        z, l = r.roots[0]
        assert l == 2 and abs(z - 0.1) < 1e-7

    def test_ordering_is_by_argument_then_modulus(self):
        # roots at 0.2 e^{i {−2, −0.5, 1, 2.8}} scrambled by Vieta
        phases = [1.0, -2.0, 2.8, -0.5]
        t = TargetCoefficients(np.poly([np.exp(1j * p) for p in phases])[::-1])
        r = solve_roots(t, 0.2)
        args = [np.angle(z) for z, _ in r.roots]
        assert args == sorted(args)

    def test_roots_satisfy_polynomial(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            K = int(rng.integers(1, 7))
            c = rng.normal(size=K + 1) + 1j * rng.normal(size=K + 1)
            gamma = complex(rng.normal() + 1j * rng.normal()) or 0.3
            r = solve_roots(TargetCoefficients(c), gamma)
            assert r.K == K
            for z, _ in r.roots:
                res = abs(poly_eval(c, z / gamma))
                assert res <= 1e-10 * np.max(np.abs(c)), f"residual {res:.2e}"

    def test_vieta_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            K = int(rng.integers(1, 6))
            c = rng.normal(size=K + 1) + 1j * rng.normal(size=K + 1)
            r = solve_roots(TargetCoefficients(c), 0.4 + 0.1j)
            back = np.poly([z / r.gamma for z, _ in r.roots])[::-1] * c[-1]
            assert np.max(np.abs(back - c)) <= 1e-8 * np.max(np.abs(c))

    def test_degenerate_leading_coefficient(self):
        with pytest.raises(DegenerateLeadingCoefficient):
            solve_roots(TargetCoefficients(np.array([1.0, 1.0, 0.0])), 0.1)

    def test_zero_gamma_rejected(self):
        with pytest.raises(ValueError):
            solve_roots(TargetCoefficients(np.array([1.0, 1.0])), 0.0)

    def test_constant_target_has_no_roots(self):
        r = solve_roots(TargetCoefficients(np.array([2.0])), 0.1)
        assert r.roots == () and r.K == 0

    def test_two_double_roots_merge_in_angle_then_modulus_order(self):
        r = solve_roots(TargetCoefficients(np.poly([1, 1, 1j, 1j])[::-1]), 0.1)
        assert [l for _, l in r.roots] == [2, 2]
        assert abs(r.roots[0][0] - 0.1) < 1e-7 and abs(r.roots[1][0] - 0.1j) < 1e-7

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError, match="identically zero"):
            TargetCoefficients([0, 0])

    @pytest.mark.parametrize("others", [[], [-1.0, 0.5 + 2j]])
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_m_fold_root_is_one_root(self, m, others):
        # np.roots splits (x - 1)^m by about eps^(1/m), 1.2e-4 at m = 4
        r = solve_roots(TargetCoefficients(np.poly([1.0] * m + others)[::-1]), 0.2)
        assert r.K == m + len(others) and len(r.roots) == 1 + len(others)
        ((z, l),) = [(z, l) for z, l in r.roots if abs(z - 0.2) < 1e-2]
        assert l == m and abs(z - 0.2) < 1e-8

    @pytest.mark.parametrize("xs", [[1.0, 1.0 + 1e-6], [1.0, 1.0 + 1e-3, 1.0 + 2e-3]])
    def test_close_simple_roots_stay_separate(self, xs):
        r = solve_roots(TargetCoefficients(np.poly(xs)[::-1]), 0.1)
        assert [l for _, l in r.roots] == [1] * len(xs)
        assert np.allclose(np.sort(r.expanded().real), 0.1 * np.array(xs), rtol=1e-9, atol=0)

    @pytest.mark.parametrize("xs", [
        [1.0 + 5e-4 * j for j in range(m)] for m in (4, 5, 6)
    ] + [[10.0, 0.1, 0.105, 0.11, 0.115]])
    def test_simple_roots_inside_the_split_tolerance_stay_separate(self, xs):
        # within ROOT_SPLIT eps^(1/m) max|x| (2e-3 at m = 4, 3.9e-2 at m = 6),
        # but the polynomial has no m-fold root there
        r = solve_roots(TargetCoefficients(np.poly(xs)[::-1]), 0.1)
        assert [l for _, l in r.roots] == [1] * len(xs)

    def test_target_solves_its_roots_once(self, monkeypatch):
        calls = []
        np_roots = np.roots
        monkeypatch.setattr(np, "roots", lambda p: calls.append(p) or np_roots(p))
        t = TargetCoefficients(np.array([0.3, -1.0, 1.0]))
        assert solve_roots(t, 0.1).K == solve_roots(t, 0.2j).K == 2
        assert len(calls) == 1

    def test_root_solve_waits_for_a_read(self):
        # a vanishing c_K is an error only once the roots are asked for
        t = TargetCoefficients(np.array([1.0, 0.0]))
        assert t.K == 1
        with pytest.raises(DegenerateLeadingCoefficient):
            t.roots

    def test_target_from_roots_carries_them(self, monkeypatch):
        monkeypatch.setattr(np, "roots", None)  # nothing is solved
        xs = [0.5j, -1.0, 0.5j]
        t = TargetCoefficients.from_roots(xs)
        assert np.array_equal(t.c, np.poly(xs)[::-1])
        assert t.roots == ((0.5j, 2), (-1 + 0j, 1))
        assert solve_roots(t, 0.2).roots == ((0.1j, 2), (-0.2 + 0j, 1))
        empty = TargetCoefficients.from_roots([])
        assert empty.roots == () and np.array_equal(empty.c, [1.0])


class TestTransmittances:
    def test_k2_small_delta(self):
        T, q = transmittances(2, 1e-3)
        assert abs(T[0] - 0.5) < 1e-3
        assert T[1] == 1e-3
        assert abs(q - 1 / np.sqrt(2)) < 1e-3

    def test_k1(self):
        T, q = transmittances(1, 0.01)
        assert T[0] == 0.01
        assert abs(q - (1 + 0.01 / 0.99) ** -0.5) < 1e-15

    def test_defining_system(self):
        # every detector arm must tap the same probe fraction q
        for K, delta in [(1, 0.3), (2, 1e-3), (5, 1e-3), (7, 0.05)]:
            T, q = transmittances(K, delta)
            theta = np.arccos(np.sqrt(T))
            run = 1.0
            for j in range(K):
                assert abs(np.sin(theta[j]) * run - q) < 1e-12, f"arm {j + 1} of K={K}"
                run *= np.cos(theta[j])
            assert abs(np.prod(T) - (1 - K * q**2)) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            transmittances(0, 0.1)
        with pytest.raises(ValueError):
            transmittances(2, 1.0)


class TestReferenceAmplitudes:
    def test_k1_closed_form(self):
        # single arm: reference beam = -i gamma_1 tan(theta_1)
        delta = 0.07
        roots = EliminationRoots(((0.3 + 0.2j, 1),), 0.1)
        T, q = transmittances(1, delta)
        gt = reference_amplitudes(roots, T, q)
        want = -1j * (0.3 + 0.2j) * np.sqrt((1 - delta) / delta)
        assert abs(gt[0] - want) < 1e-12

    def test_network_simulation_oracle(self):
        # every arm ends in |i q (gamma_x - gamma_j)>, probe ends in |mu x + nu>
        rng = np.random.default_rng(17)
        for K, delta in [(1, 0.2), (2, 0.15), (3, 0.2)]:
            vals = 0.25 * (rng.normal(size=K) + 1j * rng.normal(size=K))
            roots = EliminationRoots(tuple((v, 1) for v in vals), 0.1)
            scheme = DetectionScheme(roots, delta)
            gamma_x = complex(0.2 * (rng.normal() + 1j * rng.normal()))
            st = probe_cascade(scheme, gamma_x, 16)
            mu, nu = probe_affine(scheme)
            arm_amps = [mu * gamma_x + nu] + [
                1j * scheme.q * (gamma_x - v) for v in vals
            ]
            want = product_state(
                st.modes,
                [coherent_amplitudes(z, 16, tail_tol=1.0) for z in arm_amps],
                st.trunc,
            )
            ov = abs(inner(want, st)) ** 2
            assert ov > 1 - 1e-8, f"K={K}: overlap {ov}"

    def test_degenerate_roots_repeat_entries(self):
        scheme = DetectionScheme(EliminationRoots(((0.2, 2),), 0.1), 0.1)
        assert len(scheme.gtilde) == 2
        # both arms cancel the same root, so a probe at that root stays dark
        st = probe_cascade(scheme, 0.2, 14)
        for j in (1, 2):
            idx = st.axis(f"r{j}")
            sl = [slice(None)] * len(st.modes)
            sl[idx] = slice(1, None)
            mass = float(np.sum(np.abs(st.amplitudes[tuple(sl)]) ** 2))
            assert mass < 1e-12, f"arm {j} not dark: {mass:.2e}"


class TestReferenceNetwork:
    def test_energy_conservation_and_reconstruction(self):
        rng = np.random.default_rng(23)
        for K in [1, 2, 3, 5]:
            gt = rng.normal(size=K) + 1j * rng.normal(size=K)
            net = reference_network(gt)
            assert abs(np.sum(np.abs(gt) ** 2) - abs(net.master) ** 2) < 1e-10
            theta, phi = refnet_angles(net, K)
            run = net.master
            for j in range(K):
                beam = 1j * run * np.sin(theta[j]) * np.exp(1j * phi[j])
                run = run * np.cos(theta[j])
                assert abs(beam - gt[j]) < 1e-10, f"K={K}, beam {j + 1}"
            assert abs(run) < 1e-10  # nothing left after the final mirror

    def test_symmetric_split(self):
        net = reference_network(np.array([0.4j, 0.4j]))
        assert abs(net.Tp[0] - 0.5) < 1e-12
        assert abs(net.phi[0]) < 1e-12
        assert abs(abs(net.master) - np.sqrt(2) * 0.4) < 1e-12

    def test_k1_master(self):
        net = reference_network(np.array([0.3 - 0.7j]))
        assert net.Tp.shape == (0,)
        assert abs(1j * net.master - (0.3 - 0.7j)) < 1e-12

    def test_zero_arm_convention(self):
        net = reference_network(np.array([0.5, 0.0, 0.2j]))
        theta, phi = refnet_angles(net, 3)
        assert phi[1] == 0.0
        beams = []
        run = net.master
        for j in range(3):
            beams.append(1j * run * np.sin(theta[j]) * np.exp(1j * phi[j]))
            run *= np.cos(theta[j])
        assert abs(beams[1]) < 1e-14
        assert abs(beams[0] - 0.5) < 1e-12 and abs(beams[2] - 0.2j) < 1e-12

    def test_arms_past_the_last_live_one_transmit_all(self):
        # nothing is left to split off after beam 1: Tp = 1 there, phi = 0
        net = reference_network([1, 0, 0])
        assert net.Tp.tolist() == [0.0, 1.0] and net.phi.tolist() == [0.0, 0.0]

    def test_all_zero_raises(self):
        with pytest.raises(NoSolution):
            reference_network(np.zeros(2, dtype=complex))

    def test_fock_space_splitting_cascade(self):
        # build the two reference beams from one master with real splitters
        gt = np.array([0.3 + 0.1j, -0.2 + 0.4j])
        net = reference_network(gt)
        theta, phi = refnet_angles(net, 2)
        n_max = 12
        trunc = TruncationSpec(n_max, tail_tol=1e-9)
        st = product_state(
            ["m", "o1", "o2"],
            [
                coherent_amplitudes(net.master, n_max, tail_tol=1.0),
                coherent_amplitudes(0.0, n_max, tail_tol=1.0),
                coherent_amplitudes(0.0, n_max, tail_tol=1.0),
            ],
            trunc,
        )
        for j in (1, 2):
            st = apply_beamsplitter(st, "m", f"o{j}", theta[j - 1])
        want = product_state(
            ["m", "o1", "o2"],
            [
                coherent_amplitudes(0.0, n_max, tail_tol=1.0),
                coherent_amplitudes(gt[0] * np.exp(-1j * phi[0]), n_max, tail_tol=1.0),
                coherent_amplitudes(gt[1] * np.exp(-1j * phi[1]), n_max, tail_tol=1.0),
            ],
            trunc,
        )
        assert abs(inner(want, st)) ** 2 > 1 - 1e-9


class TestPhotonTarget:
    def test_printed_k2_case(self):
        chi = 0.9
        t = coeffs_from_photon_target(2, 2, chi)
        want = np.array([np.exp(1j * chi), -1 - np.exp(1j * chi), 1.0])
        assert np.max(np.abs(t.c - want)) < 1e-12

    def test_eliminates_all_other_totals(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            K = int(rng.integers(1, 7))
            s = int(rng.integers(0, K + 1))
            chi = float(rng.uniform(0.2, 2.5))
            t = coeffs_from_photon_target(s, K, chi)
            assert abs(t.c[-1] - 1.0) < 1e-12
            for sp in range(K + 1):
                res = poly_eval(t.c, np.exp(1j * chi * sp))
                if sp == s:
                    assert abs(res) > 1e-6, "target total must survive"
                else:
                    assert abs(res) < 1e-12, f"total {sp} not eliminated"

    def test_range_check(self):
        with pytest.raises(ValueError):
            coeffs_from_photon_target(3, 2, 0.5)


class TestSemiSuccess:
    def test_missing_detector_drops_its_root(self):
        chi, gamma = 0.6, 0.15
        t = coeffs_from_photon_target(2, 2, chi)
        r = solve_roots(t, gamma)
        # canonical order: root gamma (arg 0) is detector 1, gamma e^{i chi} is 2
        c2 = semi_success_coeffs(r, {2})
        assert np.max(np.abs(c2.c - np.array([-1.0, 1.0]))) < 1e-9
        c1 = semi_success_coeffs(r, {1})
        assert np.max(np.abs(c1.c - np.array([-np.exp(1j * chi), 1.0]))) < 1e-9

    def test_empty_missing_rescales_to_monic(self):
        c = np.array([0.3 + 0.1j, -1.2, 2.0j])
        t = TargetCoefficients(c)
        r = solve_roots(t, 0.2)
        out = semi_success_coeffs(r, set())
        assert np.max(np.abs(out.c - c / c[-1])) < 1e-8

    def test_all_missing_gives_constant(self):
        t = coeffs_from_photon_target(1, 2, 0.5)
        r = solve_roots(t, 0.1)
        out = semi_success_coeffs(r, {1, 2})
        assert out.K == 0

    def test_bad_index(self):
        t = coeffs_from_photon_target(1, 1, 0.5)
        r = solve_roots(t, 0.1)
        with pytest.raises(ValueError):
            semi_success_coeffs(r, {0})

    @pytest.mark.parametrize("slot", [1, 2, 3])
    def test_dropping_one_slot_of_a_triple_root_leaves_a_double_one(self, slot):
        r = solve_roots(TargetCoefficients(np.array([-1.0, 3.0, -3.0, 1.0])), 0.2)
        ((z, l),) = r.roots
        assert l == 3
        out = semi_success_coeffs(r, {slot})
        assert out.roots == ((complex(r.expanded()[0] / r.gamma), 2),)
        assert abs(out.roots[0][0] - 1) < 1e-8


SIX_PRESETS = ("bell-k1", "maxent-k2-low", "maxent-k2-high", "photon-correlated:2,2",
               "photon-correlated:1,3", "photon-correlated:2,4")


def all_patterns(K):
    """Every click pattern of K detectors, in ``run_full_protocol``'s order."""
    return itertools.product((True, False), repeat=K)


def heralded_per_pattern(roots, patterns):
    """``semi_success_coeffs`` of each click pattern's silent detectors, one
    row per pattern, zero-padded to K + 1 entries."""
    K, patterns = roots.K, list(patterns)
    rows = np.zeros((len(patterns), K + 1), dtype=complex)
    for row, clicked in zip(rows, patterns):
        c = semi_success_coeffs(roots, {j + 1 for j in range(K) if not clicked[j]}).c
        row[: len(c)] = c
    return rows


def random_root_sets(n, seed):
    """n root sets, K = 1-7: every third closed under conjugation (conjugate
    pairs, and a real root at odd K), every fifth all real, every seventh
    with a repeated root; gamma = 0.1 e^{i phi}, with phi = 0 on every second
    set, so that its conjugate pairs and real roots stay exact once divided
    by gamma."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        K = int(rng.integers(1, 8))
        xs = rng.normal(size=K) + 1j * rng.normal(size=K)
        if i % 3 == 0:
            xs[K // 2 : 2 * (K // 2)] = xs[: K // 2].conjugate()
            if K % 2:
                xs[-1] = xs[-1].real
        if i % 5 == 0:
            xs = xs.real.astype(complex)
        if i % 7 == 0 and K > 1:
            xs[-1] = xs[0]
        phi = 0.0 if i % 2 else rng.uniform(0.0, 2 * np.pi)
        yield solve_roots(tuple(Counter(xs.tolist()).items()), 0.1 * np.exp(1j * phi))


class TestHeraldedCoeffs:
    """The per-pattern build is semi_success_coeffs, bit for bit: each row is
    ``_poly`` of its pattern's clicked roots, as that target is."""

    @pytest.mark.parametrize("name", SIX_PRESETS)
    def test_presets_match_semi_success_coeffs_bytewise(self, name):
        p = get_preset(name)
        roots = solve_roots(p.target, p.gamma)
        got = _heralded_coeffs(roots, all_patterns(roots.K))
        assert got.tobytes() == heralded_per_pattern(roots, all_patterns(roots.K)).tobytes()

    def test_random_roots_match_semi_success_coeffs_bytewise(self):
        self_conjugate = 0
        for roots in random_root_sets(2100, seed=25):
            got = _heralded_coeffs(roots, all_patterns(roots.K))
            assert got.tobytes() == heralded_per_pattern(roots, all_patterns(roots.K)).tobytes(), \
                roots
            x = roots.expanded() / roots.gamma
            self_conjugate += roots.K > 2 and np.array_equal(np.sort(x), np.sort(x.conj())) \
                and (x.imag != 0).any()
        # np.poly's real rule is met on products of several conjugate pairs
        # and real roots, where the convolutions leave round-off imaginary parts
        assert self_conjugate > 100

    def test_rows_follow_the_patterns_asked_for(self):
        # half the patterns in reversed order, the first of them asked twice
        for roots in random_root_sets(300, seed=30):
            reverse = list(all_patterns(roots.K))[::-1]
            patterns = reverse[::2] + reverse[:1]
            got = _heralded_coeffs(roots, patterns)
            assert got.shape == (len(patterns), roots.K + 1)
            assert got.tobytes() == heralded_per_pattern(roots, patterns).tobytes(), roots


def same_network(s, T, q, gtilde, ref_net):
    """Whether scheme s holds exactly these derived values, bit for bit."""
    return (
        np.array_equal(s.T, T) and s.q == q and np.array_equal(s.gtilde, gtilde)
        and np.array_equal(s.ref_net.Tp, ref_net.Tp)
        and np.array_equal(s.ref_net.phi, ref_net.phi)
        and s.ref_net.master == ref_net.master
    )


class TestBuildAndSerialize:
    def test_build_scheme_bundles_consistently(self):
        t = coeffs_from_photon_target(1, 2, 0.8)
        s = build_scheme(t, 0.1, delta=0.05)
        assert s.K == 2
        assert s.T[-1] == 0.05
        assert len(s.gtilde) == 2
        assert s.ref_net.Tp.shape == (1,)

    def test_only_roots_and_delta_are_inputs(self):
        init = [f.name for f in dataclasses.fields(DetectionScheme) if f.init]
        assert init == ["roots", "delta"]
        s = build_scheme(coeffs_from_photon_target(1, 2, 0.8), 0.1)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(s, q=0.5)

    def test_derived_network_follows_the_synthesis_chain(self):
        # T and q, then the references, then their cascade, bit for bit
        roots = solve_roots(coeffs_from_photon_target(1, 3, 0.8), 0.1 + 0.05j)
        s = DetectionScheme(roots, 0.02)
        T, q = transmittances(3, 0.02)
        gt = reference_amplitudes(roots, T, q)
        net = reference_network(gt)
        assert same_network(s, T, q, gt, net)

    @pytest.mark.parametrize("delta", [0.5, 1e-6])
    def test_replaced_delta_rebuilds_the_network(self, delta):
        t = coeffs_from_photon_target(1, 2, 0.8)
        s = dataclasses.replace(build_scheme(t, 0.1), delta=delta)
        want = build_scheme(t, 0.1, delta=delta)
        assert s.delta == want.delta == delta
        assert same_network(s, want.T, want.q, want.gtilde, want.ref_net)

    def test_low_x_two_root_network_matches_small_angle_forms(self):
        # weak-nonlinearity pair target: leading phase shift sqrt(2)|alpha| chi
        # (sign depends on which root is called detector 1), master beam aligned
        # with -i times the big last reference
        a, chi, gamma, delta = 1.0, 0.01, 0.1, 1e-3
        phase = np.exp(-2j * a**2 * chi)
        x = (a * chi) ** 2
        c = np.array([1.0, -2 * (1 - x) * phase, phase**2])
        s = build_scheme(TargetCoefficients(c), gamma, delta=delta)
        assert abs(abs(s.ref_net.phi[0]) - np.sqrt(2) * a * chi) < 0.05 * np.sqrt(2) * a * chi
        assert abs(s.ref_net.master - (-1j) * s.gtilde[1]) < 0.05 * abs(s.gtilde[1])
        # first splitter diverts only O(delta) of the master's energy
        assert s.ref_net.Tp[0] > 1 - delta

    def test_json_round_trip(self):
        t = coeffs_from_photon_target(1, 3, 0.8)
        s = build_scheme(t, 0.1 + 0.05j, delta=0.02)
        doc = json.loads(to_json(s))

        def c(d):
            return complex(d["re"], d["im"])

        assert doc["K"] == s.K and doc["delta"] == s.delta and doc["q"] == s.q
        assert c(doc["gamma"]) == s.roots.gamma
        assert [(c(r), r["mult"]) for r in doc["roots"]] == list(s.roots.roots)
        assert doc["T"] == list(s.T)
        assert [c(g) for g in doc["gtilde"]] == list(s.gtilde)
        assert doc["ref_net"]["Tp"] == list(s.ref_net.Tp)
        assert doc["ref_net"]["phi"] == list(s.ref_net.phi)
        assert c(doc["ref_net"]["gtilde_master"]) == s.ref_net.master

    def test_json_precision(self):
        t = TargetCoefficients(np.array([1.0, -np.exp(0.31j)]))
        s = build_scheme(t, 1 / 3, delta=1e-3)
        doc = json.loads(to_json(s))
        assert doc["K"] == 1
        # full double precision survives the text round trip
        assert doc["roots"][0]["re"] == float(np.real(s.roots.roots[0][0]))
        assert doc["ref_net"]["gtilde_master"]["im"] == float(np.imag(s.ref_net.master))
