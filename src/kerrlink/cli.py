"""Command-line front end: scheme design, protocol simulation, entanglement
scans and feasibility analysis, emitting reproducible CSV/JSON artifacts.

Each subcommand accepts only the flags its cmd_* function reads (SUBCOMMANDS
lists them, FLAGS defines each flag once): the noise flags belong to
feasibility alone, the target flags to design and simulate, and design, whose
scheme depends only on the target, gamma and delta, takes no mode amplitudes
or chi.  The target fixes K for design and simulate; entangle-scan and
feasibility take a --K list.  Only entangle-scan takes a seed (its
optimizer's random starts).  feasibility gives each of its six budget terms
eps = (1 - F)/6 of the --f-target F, and writes its inequality report to
stderr, never into the artifact.  CSV output is comma-separated with a
'.' decimal point, one header row, and '#'-prefixed parameter echo lines in
front, so each artifact is self-describing.  The same flags always produce
byte-identical output from one numpy build on one CPU; entangle-scan's
optimizer orders its simplex by np.argsort, which numpy may run as an
unstable SIMD sort, so its rows at tied simplex values can differ across
builds and CPUs (``entangle.minimize``).  Channel loss Lambda is the
relative intensity loss (I0 - I)/I and attenuation_dB = 10 log10(Lambda + 1).

Exit codes: 2 invalid configuration (a flag the subcommand does not take, a
malformed or nan or inf number among the flags, --dphi2 <= 0, --alpha 0,
--f-target outside (0, 1), an --x-grid value <= 0, a repeated --K value or
one below 1, a negative attenuation or one beyond float range, a finite flag
whose square, |alpha|^2 chi^2, dphi2/eps or 2 max(10, x) is beyond float
range (``_check_in_range``, naming the flag), or a simulate target whose
state vanishes, as coefficients summing to zero at alpha = beta = 0 do; no
artifact is written), 3 scheme synthesis failure, 4
truncation overflow (a coherent amplitude that does not fit the Fock
cutoff), 5 optimizer non-convergence (entangle-scan returns it itself once
every row is written, the unconverged ones flagged in the flag column), 6
simulation over the memory budget (its (2 n_max + 1)-row heralded
operators, checked before anything of their size is allocated, on every
argv).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .design import (
    DEFAULT_DELTA,
    TargetCoefficients,
    build_scheme,
    semi_success_coeffs,
    solve_roots,
    to_json,
)
from .entangle import entropy_of_coefficients, optimize_coefficients
from .errors import (
    DegenerateLeadingCoefficient,
    DomainError,
    MemoryBudgetExceeded,
    NonConvergence,
    NoSolution,
    TailTooHeavy,
)
from .noise import (
    DB_PER_KM,
    NoiseParams,
    budget_success,
    db_to_loss,
    feasibility_check,
    min_distinguishability,
    practical_cutoff_db,
    probe_ceiling,
)
from .presets import PRESET_NAMES, get_preset
from .protocol import (
    _metric_rows,
    analytic_target_state,
    make_protocol,
    run_full_protocol,
)

# not called here, since simulate computes its metrics as stacks
# (protocol._metric_rows); perfbench's tracer wraps these bindings by name
from .entangle import schmidt_entropy  # noqa: F401
from .fock import fidelity  # noqa: F401
from .protocol import dominant_eigenstate  # noqa: F401

DETECTOR_PRESETS = {
    "low-dark": {"zeta": 1e-8, "lambda_det": 1e-2},
    "high-eff": {"zeta": 1e-6, "lambda_det": 1e-1},
}
DB_NOTE = "attenuation_dB = 10*log10(Lambda+1) with Lambda = (I0-I)/I"


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".12g")
    return str(v)


def _fmt_complex(z) -> str:
    return f"{_fmt(z.real)}{z.imag:+.12g}j"


def _list_of(kind, positional=False):
    """argparse type: a comma list of one or more kind values.  Empty tokens
    are skipped, unless each token's position is its meaning (a coefficient index)."""
    def parse(text):
        values = [kind(tok) for tok in text.split(",") if positional or tok.strip()]
        if not values:
            raise ValueError(text)
        return values

    parse.__name__ = f"{kind.__name__} list"
    return parse


def _check_finite(args):
    """Reject nan or inf in any float flag and in any numeric list flag."""
    for dest, val in vars(args).items():
        if isinstance(val, (float, list)) and not np.all(np.isfinite(val)):
            raise ValueError(f"--{dest.replace('_', '-')} must be finite, got {val}")


def _check_in_range(flag, value, what, result):
    """ValueError naming flag unless result, the value of `what` that the
    flag's value makes, is finite (NaN fails too)."""
    if not result < math.inf:
        raise ValueError(f"{flag} {_fmt(value)} puts {what} beyond float range")


def _k_list(args):
    """The --K list (default 1,2): distinct detector counts, each >= 1."""
    Ks = args.K or [1, 2]
    if len(set(Ks)) < len(Ks):
        raise ValueError(f"--K values must be distinct, got {','.join(map(str, Ks))}")
    if min(Ks) < 1:
        raise ValueError(f"--K values must be >= 1, got {min(Ks)}")
    return Ks


def _emit(args, params, header, rows):
    """Write echo lines + header + rows as CSV (or a JSON document)."""
    if args.format == "json":
        doc = {
            "params": {k: (_fmt(v) if isinstance(v, float) else v) for k, v in params},
            "rows": [dict(zip(header, r)) for r in rows],
        }
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines = [f"# {k} = {_fmt(v)}" for k, v in params]
        lines.append(",".join(header))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _resolve(args, *names):
    """(target, delta, *names): each value from its flag, else the preset;
    beta falls back to alpha and delta to design.DEFAULT_DELTA."""
    p = get_preset(args.preset) if args.preset else None
    target = p.target if p else None
    if args.coeffs:
        target = TargetCoefficients(args.coeffs)
    vals = {}
    for name in ("delta", *names):
        flag = getattr(args, name)
        vals[name] = flag if flag is not None else getattr(p, name, None)
    if target is None:
        raise ValueError("no target: give --preset or --coeffs")
    missing = [n for n in names if vals[n] is None and n != "beta"]
    if missing:
        raise ValueError(f"{' and '.join(missing)} must come from a preset or flags")
    if "beta" in vals and vals["beta"] is None:
        vals["beta"] = vals["alpha"]
    if vals["delta"] is None:
        vals["delta"] = DEFAULT_DELTA
    return (target, *vals.values())


# ---------------------------------------------------------------------------
# subcommands


def cmd_design(args) -> int:
    target, delta, gamma = _resolve(args, "gamma")
    scheme = build_scheme(target, gamma, delta=delta)
    out = [
        f"K = {scheme.K}  gamma = {_fmt(gamma)}  delta = {_fmt(delta)}  q = {_fmt(scheme.q)}",
        "target c: " + ",".join(map(_fmt_complex, target.c)),
        "detector,root_re,root_im,mult,abs,arg",
    ]
    for j, (z, mult) in enumerate(scheme.roots.roots, start=1):
        out.append(
            f"{j},{_fmt(z.real)},{_fmt(z.imag)},{mult},"
            f"{_fmt(abs(z))},{_fmt(float(np.angle(z)))}"
        )
    out.append("splitter transmittances T: " + ",".join(_fmt(t) for t in scheme.T))
    out.append("reference amplitudes gtilde: " + ",".join(map(_fmt_complex, scheme.gtilde)))
    net = scheme.ref_net
    out.append("reference cascade Tp: " + (",".join(_fmt(t) for t in net.Tp) or "-"))
    out.append("reference cascade phi: " + (",".join(_fmt(p) for p in net.phi) or "-"))
    out.append(f"master beam: {_fmt_complex(net.master)}")
    sys.stdout.write("\n".join(out) + "\n")
    if args.out:
        Path(args.out).write_text(to_json(scheme) + "\n")
    return 0


def cmd_simulate(args) -> int:
    target, delta, alpha, beta, gamma, chi = _resolve(args, "alpha", "beta", "gamma", "chi")
    for flag, z in (("--alpha", alpha), ("--beta", beta), ("--gamma", gamma)):
        _check_in_range(flag, z, f"|{flag[2:]}|^2", abs(z) * abs(z))
    prot = make_protocol(alpha, beta, gamma, chi, target, delta=delta)
    # the target's budget and vanishing checks come before any kernel exists
    tgt = analytic_target_state(target, alpha, beta, chi, prot.trunc)
    records = run_full_protocol(prot)
    # records come all-click first, in itertools.product order: the row order
    rows = [("".join("1" if b else "0" for b in rec.pattern), *metrics)
            for rec, metrics in zip(records, _metric_rows(prot, tgt, records))]
    params = [
        ("subcommand", "simulate"),
        ("preset", args.preset or "-"),
        ("alpha", complex(alpha).real), ("beta", complex(beta).real),
        ("gamma", complex(gamma).real), ("chi", float(chi)),
        ("delta", float(delta)), ("K", target.K),
        ("n_max", prot.trunc.n_max),
        ("truncated_mass", prot.truncated_mass),
        ("probability_sum", sum(r[1] for r in rows)),
    ]
    header = ("pattern", "probability", "fidelity_vs_target", "entanglement",
              "oracle_residual")
    _emit(args, params, header, rows)
    return 0


def cmd_entangle_scan(args) -> int:
    xs = args.x_grid or [1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0]
    bad = [x for x in xs if not x > 0]
    if bad:
        raise ValueError(f"--x-grid values must be > 0, got {_fmt(bad[0])}")
    for x in xs:
        _check_in_range("--x-grid", x, "|alpha|^2 + |beta|^2 = 2 max(10, x)", 2 * max(10.0, x))
    Ks = _k_list(args)
    rows = []
    flagged = False
    for x in xs:
        a2 = max(10.0, x)
        chi = math.sqrt(x / a2)
        alpha = math.sqrt(a2)
        for K in Ks:
            try:
                rep = optimize_coefficients(K, alpha, alpha, chi, seed=args.seed)
                flag = 0
            except NonConvergence as err:
                rep, flag, flagged = err.best, 1, True
            rows.append((x, K, "full", rep.E, flag))
            # the silent-detector states depend only on the roots found
            roots = solve_roots([(z, 1) for z in rep.roots], 1.0)
            for r in range(1, K):
                for missing in itertools.combinations(range(1, K + 1), r):
                    ent = entropy_of_coefficients(
                        semi_success_coeffs(roots, missing).c,
                        alpha, alpha, chi,
                    )
                    rows.append(
                        (x, K, "miss" + "".join(str(j) for j in missing), ent.E, flag)
                    )
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    params = [
        ("subcommand", "entangle-scan"),
        ("x_grid", ",".join(_fmt(x) for x in xs)),
        ("K_list", ",".join(str(k) for k in Ks)),
        ("seed", args.seed),
        ("alpha_rule", "alpha^2 = max(10, x), chi = sqrt(x)/alpha"),
    ]
    _emit(args, params, ("x", "K", "pattern", "E", "flag"), rows)
    return 5 if flagged else 0


def cmd_feasibility(args) -> int:
    det = DETECTOR_PRESETS[args.detector]
    zeta = args.zeta if args.zeta is not None else det["zeta"]
    lam_det = args.lambda_det if args.lambda_det is not None else det["lambda_det"]
    f_target = args.f_target
    if not 0 < f_target < 1:
        raise ValueError(f"--f-target must lie in (0, 1), got {_fmt(f_target)}")
    eps = (1.0 - f_target) / 6.0
    alpha = args.alpha if args.alpha is not None else math.sqrt(10.0)
    _check_in_range("--alpha", alpha, "|alpha|^2", abs(alpha) * abs(alpha))
    a2 = abs(alpha) ** 2
    Ks = _k_list(args)
    dphi2 = args.dphi2
    if not dphi2 > 0:
        raise ValueError(f"--dphi2 must be > 0, got {dphi2}")
    if a2 == 0:
        raise ValueError("--alpha must be nonzero")
    if args.gamma is not None:
        _check_in_range("--gamma", args.gamma, "|gamma|^2", abs(args.gamma) * abs(args.gamma))
    if args.chi is not None:
        _check_in_range("--chi", args.chi, "|alpha|^2 chi^2", a2 * args.chi * args.chi)
    _check_in_range("--eps-ac", args.eps_ac, "eps_ac^2", args.eps_ac * args.eps_ac)
    _check_in_range("--eps-bc", args.eps_bc, "eps_bc^2", args.eps_bc * args.eps_bc)
    f_grid = list(np.linspace(0.5, 0.99, 50))
    # the p_K(F) sweep reaches eps = (1 - 0.99)/6, below the report's own
    eps_low = min(eps, (1.0 - float(f_grid[-1])) / 6.0)
    _check_in_range("--dphi2", dphi2, "the smallest |alpha|^2 chi^2 the budget allows",
                    min_distinguishability(max(Ks), eps_low, dphi2))

    noise = NoiseParams(
        Lambda=args.Lambda, Lambda1=args.Lambda1, Lambda2=args.Lambda2,
        dphi2=dphi2, lambda_det=lam_det, zeta=zeta,
        eps_ac=args.eps_ac, eps_bc=args.eps_bc,
    )
    db_grid = args.db_grid or list(np.linspace(0.0, 30.0, 61))
    report = [f"feasibility: eps = {_fmt(eps)}  F_target = {_fmt(f_target)}  "
              f"zeta = {_fmt(zeta)}  lambda_det = {_fmt(lam_det)}  |alpha|^2 = {_fmt(a2)}"]
    rows, walls, cuts = [], [], []
    for K in Ks:
        x_op = min_distinguishability(K, eps, dphi2)
        chi = args.chi if args.chi is not None else math.sqrt(x_op / a2)
        g2 = probe_ceiling(eps, max(x_op, a2 * chi**2), args.Lambda)
        gamma = args.gamma if args.gamma is not None else math.sqrt(g2)
        rep = feasibility_check(noise, alpha, chi, gamma, eps, K)
        report.append(f"K = {K}  (chi = {_fmt(chi)}, |gamma|^2 = {_fmt(abs(gamma) ** 2)})")
        for c in rep.checks:
            word = "PASS" if c.passed else "FAIL"
            report.append(
                f"  {c.name:<20} value = {_fmt(c.value):<18} bound = {_fmt(c.bound):<18}"
                f" margin = {_fmt(c.margin):<18} {word}"
            )
        report.append(
            f"  overall: {'PASS' if rep.all_pass else 'FAIL'};"
            f" max attenuation = {_fmt(rep.max_attenuation_db)} dB"
            f" ({_fmt(rep.max_distance_km)} km at {DB_PER_KM:.2f} dB/km)"
        )
        # the dark-count wall is the attenuation at the channel-loss bound
        walls.append((f"darkcount_cutoff_dB_K{K}", rep.max_attenuation_db))
        cuts.append((f"practical_cutoff_dB_K{K}", practical_cutoff_db(K, eps, lam_det, dphi2)))
        for db in db_grid:
            p = budget_success(K, db_to_loss(db), eps, lam_det, zeta, dphi2)
            rows.append(("loss", K, float(db), f_target, p))
        for db in args.fixed_db:
            for f in f_grid:
                p = budget_success(K, db_to_loss(db), (1.0 - f) / 6.0, lam_det, zeta, dphi2)
                rows.append(("fidelity", K, float(db), float(f), p))
    params = [
        ("subcommand", "feasibility"),
        ("detector", args.detector), ("zeta", zeta), ("lambda_det", lam_det),
        ("F_target", f_target), ("epsilon", eps), ("alpha2", a2),
        ("dphi2", dphi2), ("fixed_dB", ",".join(_fmt(v) for v in args.fixed_db)),
        ("dB_convention", DB_NOTE),
    ] + walls + cuts
    # stderr, so that stdout carries the artifact alone
    sys.stderr.write("\n".join(report) + "\n")
    _emit(args, params, ("sweep", "K", "Lambda_dB", "F", "p_K"), rows)
    return 0


# ---------------------------------------------------------------------------
# parser


# Every flag once; each subcommand lists only the flags its cmd_* function reads.
FLAGS = {
    "--preset": {"help": "named parameter bundle"},
    "--coeffs": {"type": _list_of(complex, positional=True),
                 "help": "explicit target c_0,c_1,... (complex allowed)"},
    "--alpha": {"type": float, "help": "mode a amplitude"},
    "--beta": {"type": float, "help": "mode b amplitude (default: alpha)"},
    "--gamma": {"type": float, "help": "probe amplitude"},
    "--chi": {"type": float, "help": "cross-Kerr phase per photon"},
    "--K": {"type": _list_of(int), "help": "comma list of distinct detector counts"},
    "--delta": {"type": float, "help": "last-splitter transmittance"},
    "--seed": {"type": int, "default": 0},
    "--out": {"help": "output path (default: stdout)"},
    "--format": {"choices": ("csv", "json"), "default": "csv"},
    "--x-grid": {"type": _list_of(float), "help": "comma list of x = alpha^2 chi^2"},
    "--Lambda": {"type": float, "default": 0.0, "help": "channel loss (I0-I)/I"},
    "--Lambda1": {"type": float, "default": 0.0, "help": "Kerr-stage loss"},
    "--Lambda2": {"type": float, "default": 0.0, "help": "storage loss"},
    "--dphi2": {"type": float, "default": 2.5e-5,
                "help": "phase noise variance, rad^2 (> 0; it floors x)"},
    "--lambda-det": {"type": float, "help": "detector efficiency in (0, 1]"},
    "--zeta": {"type": float, "help": "dark-count probability per detector per window"},
    "--eps-ac": {"type": float, "default": 0.0, "help": "relative a-probe nonlinearity error"},
    "--eps-bc": {"type": float, "default": 0.0, "help": "relative b-probe nonlinearity error"},
    "--detector": {"choices": tuple(DETECTOR_PRESETS), "default": "low-dark",
                   "help": "detector preset: low-dark (zeta=1e-8, lambda=1e-2) "
                   "or high-eff (zeta=1e-6, lambda=0.1)"},
    "--f-target": {"type": float, "default": 0.9,
                   "help": "target fidelity F; each of the six terms gets (1-F)/6"},
    "--db-grid": {"type": _list_of(float), "help": "comma list of Lambda_dB"},
    "--fixed-db": {"type": _list_of(float), "default": "14,28",
                   "help": "Lambda_dB values for the p_K(F) sweep"},
}
TARGET_FLAGS = ("--preset", "--coeffs", "--alpha", "--beta", "--gamma", "--chi",
                "--delta")
SUBCOMMANDS = {
    "design": (cmd_design, "synthesize the detection scheme; prints the root "
               "table, --out writes the scheme JSON",
               ("--preset", "--coeffs", "--gamma", "--delta", "--out")),
    "simulate": (cmd_simulate, "full protocol run, one row per click pattern",
                 (*TARGET_FLAGS, "--out", "--format")),
    "entangle-scan": (cmd_entangle_scan, "E versus distinguishability x, optimal "
                      "targets plus silent-detector curves",
                      ("--x-grid", "--K", "--seed", "--out", "--format")),
    "feasibility": (cmd_feasibility, "six-inequality report plus p_K(Lambda) and "
                    "p_K(F) sweeps",
                    ("--alpha", "--gamma", "--chi", "--K", "--Lambda", "--Lambda1",
                     "--Lambda2", "--dphi2", "--lambda-det", "--zeta", "--eps-ac",
                     "--eps-bc", "--detector", "--f-target", "--db-grid",
                     "--fixed-db", "--out", "--format")),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kerrlink",
        description="Design and simulate elimination-measurement entanglement "
        "schemes for two field modes coupled through a weak cross-Kerr probe.",
        epilog=f"dB convention: {DB_NOTE}.  Presets: {', '.join(PRESET_NAMES)} "
        "(photon-correlated takes its parameters as photon-correlated:s,K).",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, (func, help_text, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(func=func)
    return ap


# built by the first main call, not at import, and reused by every later
# one: parse_args leaves a parser as it found it
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        _check_finite(args)
        return args.func(args)
    except (ValueError, DomainError) as err:
        print(f"invalid configuration: {err}", file=sys.stderr)
        return 2
    except (NoSolution, DegenerateLeadingCoefficient) as err:
        print(f"scheme synthesis failed: {err}", file=sys.stderr)
        return 3
    except TailTooHeavy as err:
        print(f"truncation overflow: {err}", file=sys.stderr)
        return 4
    except MemoryBudgetExceeded as err:
        print(f"over the memory budget: {err}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
