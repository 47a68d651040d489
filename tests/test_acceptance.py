"""End-to-end acceptance checks, one test per criterion.

Each test is a single pass/fail line under pytest -v and prints a summary
line (visible with -s) with the measured numbers.  Tolerances and runtime
caps are asserted, not just reported.
"""

import dataclasses
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from kerrlink.design import (
    TargetCoefficients,
    build_scheme,
    solve_roots,
)
from kerrlink.entangle import (
    entropy_of_coefficients,
    optimize_coefficients,
    pair_gram,
    schmidt_entropy,
)
from kerrlink.fock import TruncationSpec, coherent_amplitudes, fidelity
from kerrlink.noise import (
    NoiseParams,
    attenuation_db,
    darkcount_loss_limit,
    fidelity_leading_order,
    practical_cutoff_db,
    success_probability,
    superop_pipeline_fidelity,
)
from kerrlink.presets import get_preset
from kerrlink.protocol import (
    all_click_record,
    analytic_target_state,
    dominant_eigenstate,
    lift_to_modes,
    make_protocol,
    run_full_protocol,
)
from oracles import dense_view, equivalence_report, probe_cascade, project_click


def test_criterion_01_bell_generation():
    """K=1 closed-form target at x=1: all-click E = 1 +- 0.02, F >= 0.99."""
    t0 = time.perf_counter()
    p = get_preset("bell-k1")
    prot = make_protocol(p.alpha, p.beta, p.gamma, p.chi, p.target, delta=p.delta)
    rec = all_click_record(run_full_protocol(prot))
    tgt = analytic_target_state(p.target, p.alpha, p.beta, p.chi, prot.trunc)
    f = fidelity(rec.state, tgt)
    _, vec = dominant_eigenstate(rec.state)
    e = schmidt_entropy(lift_to_modes(vec, p.alpha, p.beta))
    dt = time.perf_counter() - t0
    assert abs(e - 1.0) <= 0.02, f"E = {e}"
    assert f >= 0.99, f"F = {f}"
    assert dt <= 10.0, f"runtime {dt:.1f} s"
    print(f"criterion 1: PASS (E = {e:.5f}, F = {f:.5f}, {dt:.2f} s)")


def test_criterion_02_qutrit_limits():
    """K=2 closed forms: E -> 1.5 at x = 1e-4 and log2(3) at x = 100."""
    a2 = 1000.0
    chi = math.sqrt(1e-4 / a2)
    x = a2 * chi * chi
    p = np.exp(-2j * a2 * chi)
    c_low = np.array([1.0, -2.0 * (1.0 - x) * p, p * p])
    t0 = time.perf_counter()
    e_low = entropy_of_coefficients(c_low, math.sqrt(a2), math.sqrt(a2), chi).E
    dt_low = time.perf_counter() - t0
    ph = np.exp(-2j * 1e4 * 0.1)
    c_high = np.array([1.0, -ph, ph * ph])
    t0 = time.perf_counter()
    e_high = entropy_of_coefficients(c_high, 100.0, 100.0, 0.1).E
    dt_high = time.perf_counter() - t0
    assert abs(e_low - 1.5) <= 0.005, f"low-x E = {e_low}"
    assert abs(e_high - math.log2(3)) <= 0.005, f"high-x E = {e_high}"
    assert dt_low <= 1.0 and dt_high <= 1.0, f"runtimes {dt_low:.2f}, {dt_high:.2f} s"
    print(f"criterion 2: PASS (E = {e_low:.5f} and {e_high:.5f})")


def test_criterion_03_optimizer_recovery():
    """The K=1 optimum c1/c0 is recovered across three decades of x."""
    t0 = time.perf_counter()
    worst_mod = worst_phase = 0.0
    for x, a2 in ((0.01, 10.0), (1.0, 10.0), (100.0, 100.0)):
        chi = math.sqrt(x / a2)
        alpha = math.sqrt(a2)
        rep = optimize_coefficients(1, alpha, alpha, chi, restarts=8, seed=5)
        ratio = rep.c_opt[1] / rep.c_opt[0]
        want = -np.exp(-1j * 2 * a2 * np.sin(chi))
        dmod = abs(abs(ratio) - 1.0)
        dphase = abs(np.angle(ratio / want))
        assert dmod <= 1e-3, f"x={x}: |ratio| off by {dmod}"
        assert dphase <= 1e-2, f"x={x}: phase off by {dphase}"
        worst_mod = max(worst_mod, dmod)
        worst_phase = max(worst_phase, dphase)
    dt = time.perf_counter() - t0
    assert dt <= 60.0, f"runtime {dt:.1f} s"
    print(
        f"criterion 3: PASS (worst dmod = {worst_mod:.2e}, "
        f"dphase = {worst_phase:.2e}, {dt:.1f} s)"
    )


def test_criterion_04_oracle_equivalence():
    """Network and operator-path all-click states agree; residual ~ |gamma|^2."""
    t0 = time.perf_counter()
    for name in ("bell-k1", "maxent-k2-low"):
        p = get_preset(name)
        prot = make_protocol(p.alpha, p.beta, p.gamma, p.chi, p.target, delta=p.delta)
        td, _, exponent = equivalence_report(prot, p.target)
        assert td <= 1e-5, f"{name}: td = {td}"
        assert 1.7 <= exponent <= 2.3, f"{name}: exponent = {exponent}"
    dt = time.perf_counter() - t0
    assert dt <= 60.0, f"runtime {dt:.1f} s"
    print(f"criterion 4: PASS (td <= 1e-5, exponents in [1.7, 2.3], {dt:.1f} s)")


def test_criterion_05_elimination_soundness():
    """A probe at any root never fires its own detector; degenerate roots
    annihilate the photon-added states below their multiplicity."""
    t0 = time.perf_counter()
    worst = 0.0
    for name in ("bell-k1", "maxent-k2-low", "maxent-k2-high", "photon-correlated:2,2"):
        p = get_preset(name)
        scheme = build_scheme(p.target, p.gamma, delta=p.delta)
        for j, root in enumerate(scheme.roots.expanded(), start=1):
            # displaced frame: references folded into arm displacements
            st = probe_cascade(scheme, root, 24, displaced=True)
            pc = project_click(st, f"r{j}", True).norm2()
            assert pc <= 1e-10, f"{name}: detector {j} clicked with p = {pc:.2e}"
            worst = max(worst, pc)

    # doubled root: (c-hat - z)^2 annihilates (c-hat^dag)^s |z> for s < 2
    roots = solve_roots(TargetCoefficients(np.array([1.0, -2.0, 1.0])), 0.1)
    ((z, mult),) = roots.roots
    assert mult == 2
    n_max = 30
    A = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1).astype(complex)
    op = np.linalg.matrix_power(A - z * np.eye(n_max + 1), mult)
    vec = coherent_amplitudes(z, n_max, tail_tol=1.0)
    for s in range(mult):
        nrm = float(np.linalg.norm(op @ (vec / np.linalg.norm(vec))))
        assert nrm <= 1e-10, f"s = {s}: |op psi| = {nrm:.2e}"
        vec = A.conj().T @ vec
    dt = time.perf_counter() - t0
    assert dt <= 5.0, f"runtime {dt:.1f} s"
    print(f"criterion 5: PASS (max click p = {worst:.1e}, PACS kill ok, {dt:.1f} s)")


def test_criterion_06_photon_correlated_target():
    """s=2, K=2 at small alpha heralds (|02> + sqrt(2)|11> + |20>)/2."""
    t0 = time.perf_counter()

    def fock_fidelity(alpha):
        p = get_preset("photon-correlated:2,2")
        prot = make_protocol(alpha, alpha, p.gamma, p.chi, p.target, delta=p.delta)
        rec = all_click_record(run_full_protocol(prot))
        amp = np.zeros((prot.trunc.dim, prot.trunc.dim), dtype=complex)
        amp[0, 2] = 1.0
        amp[1, 1] = math.sqrt(2.0)
        amp[2, 0] = 1.0
        from kerrlink.fock import FockVector

        return fidelity(dense_view(prot, rec.state), FockVector(("a", "b"), amp, prot.trunc))

    f10 = fock_fidelity(0.1)
    f05 = fock_fidelity(0.05)
    dt = time.perf_counter() - t0
    assert f10 >= 0.95, f"F(0.1) = {f10}"
    assert f05 > f10, f"no improvement: F(0.05) = {f05} vs F(0.1) = {f10}"
    assert dt <= 10.0, f"runtime {dt:.1f} s"
    print(f"criterion 6: PASS (F = {f10:.4f} at 0.1, {f05:.4f} at 0.05, {dt:.1f} s)")


def test_criterion_07_success_probability():
    """Simulated all-click probability matches the closed form within 3|gamma|^2."""
    t0 = time.perf_counter()
    worst = 0.0
    for name in ("bell-k1", "maxent-k2-low"):
        p = get_preset(name)
        for g2 in (0.0025, 0.01, 0.04):
            gamma = math.sqrt(g2)
            # the blocked method treats probe and references analytically, so
            # the cutoff only has to cover the held modes; the auto rule
            # chases the reference beams into huge dimensions at gamma = 0.2
            prot = dataclasses.replace(
                make_protocol(p.alpha, p.beta, gamma, p.chi, p.target, delta=p.delta),
                trunc=TruncationSpec(40),
            )
            G_a, G_b = pair_gram(p.target.K, p.alpha, p.beta, p.chi)
            c = p.target.c
            norm2 = float(np.real(np.conj(c) @ ((G_a * G_b) @ c)))
            want = success_probability(
                p.target, gamma, 1.0, q=prot.scheme.q, norm_squared=norm2
            )
            got = all_click_record(run_full_protocol(prot)).probability
            rel = abs(got - want) / want
            assert rel <= 3 * g2, f"{name}, |gamma|^2={g2}: rel err {rel:.3e}"
            worst = max(worst, rel / (3 * g2))
    dt = time.perf_counter() - t0
    assert dt <= 30.0, f"runtime {dt:.1f} s"
    print(f"criterion 7: PASS (worst margin use {worst:.2f}, {dt:.1f} s)")


def test_criterion_08_noise_pipeline_consistency():
    """Leading-order budget tracks the exact stage-composed fidelity."""
    p = get_preset("bell-k1")
    noise = NoiseParams(
        Lambda=0.0, Lambda1=1e-3, Lambda2=1e-3, dphi2=1e-5,
        lambda_det=1.0, zeta=0.0, eps_ac=0.01, eps_bc=0.01,
    )
    budget = fidelity_leading_order(p.target, noise, p.alpha, p.beta, p.gamma, p.chi)
    exact = superop_pipeline_fidelity(p.target, noise, p.alpha, p.beta, p.gamma, p.chi)
    gap = abs(budget.F - exact)
    assert gap <= 0.1 * (1.0 - exact), (
        f"budget F = {budget.F}, pipeline F = {exact}, gap = {gap:.3e}"
    )
    print(f"criterion 8: PASS (F = {exact:.6f}, budget off by {gap:.2e})")


def test_criterion_09_feasibility_reproduction():
    """Dark-count attenuation wall and the K=2 practical cutoff."""
    eps, lam, zeta, dphi2 = 1.0 / 60.0, 1e-2, 1e-8, 2.5e-5
    wall = attenuation_db(darkcount_loss_limit(eps, lam, zeta))
    cut2 = practical_cutoff_db(2, eps, lam, dphi2)
    assert 20.0 <= wall <= 28.0, f"wall = {wall} dB"
    assert abs(cut2 - 14.0) <= 2.0, f"K=2 cutoff = {cut2} dB"
    print(f"criterion 9: PASS (wall = {wall:.2f} dB, K=2 cutoff = {cut2:.2f} dB)")


def test_criterion_10_property_suites():
    """The randomized-invariant suite passes standalone within its budget."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(Path(__file__).with_name("test_properties.py")), "-q"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    dt = time.perf_counter() - t0
    assert proc.returncode == 0, f"property suite failed:\n{proc.stdout}\n{proc.stderr}"
    assert dt <= 120.0, f"runtime {dt:.1f} s"
    print(f"criterion 10: PASS (subprocess pytest green, {dt:.1f} s)")
