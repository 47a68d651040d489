"""Command-line front end: exit codes, artifact conventions, determinism,
and the documented per-subcommand behaviors.  Everything runs in-process
through cli.main so the suite stays fast."""

import argparse
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import kerrlink
from kerrlink import cli, protocol
from kerrlink.design import build_scheme, to_json
from kerrlink.entangle import EntanglementReport
from kerrlink.errors import NonConvergence, TailTooHeavy
from kerrlink.presets import get_preset
from oracles import _pattern_kernel, gathered_rho


def parse_csv(text):
    """Split an artifact into (echo params, header, rows of strings)."""
    params = {}
    header = None
    rows = []
    for line in text.strip().splitlines():
        if line.startswith("#"):
            key, _, val = line[2:].partition(" = ")
            params[key.strip()] = val.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return params, header, rows


def run_csv(tmp_path, argv, name="art.csv"):
    out = tmp_path / name
    rc = cli.main(argv + ["--out", str(out)])
    return rc, parse_csv(out.read_text())


class TestExitCodes:
    def test_unknown_preset(self):
        assert cli.main(["design", "--preset", "nope"]) == 2

    @pytest.mark.parametrize("argv", [
        ["simulate", "--preset", "maxent-k2-low:7,7"],
        ["design", "--preset", "bell-k1:anything"],
    ])
    def test_suffix_on_a_fixed_preset(self, argv, capsys):
        assert cli.main(argv) == 2
        assert "takes no parameters" in capsys.readouterr().err

    def test_missing_target(self):
        assert cli.main(["design", "--gamma", "0.1"]) == 2

    def test_missing_amplitudes(self, capsys):
        assert cli.main(["simulate", "--coeffs", "1,-1"]) == 2
        err = capsys.readouterr().err
        assert "alpha and gamma and chi must come from a preset or flags" in err
        # --beta defaults to alpha, so it is never named as missing
        assert "beta" not in err

    def test_degenerate_leading_coefficient(self):
        assert cli.main(["design", "--coeffs", "1,0", "--gamma", "0.1"]) == 3

    def test_truncation_overflow_maps_to_4(self, monkeypatch):
        def boom(*a, **k):
            raise TailTooHeavy("forced for the exit-code contract")

        monkeypatch.setattr(cli, "run_full_protocol", boom)
        assert cli.main(["simulate", "--preset", "bell-k1"]) == 4

    def test_nonconvergence_exits_5_with_flagged_rows(self, monkeypatch, tmp_path):
        # c_opt = [1, -1] and the root it expands, as the optimizer reports them
        best = EntanglementReport(
            0.5, np.array([0.5, 0.5]), np.array([1.0, -1.0 + 0j]), np.array([1.0 + 0j])
        )

        def stuck(*a, **k):
            raise NonConvergence("forced", best=best)

        monkeypatch.setattr(cli, "optimize_coefficients", stuck)
        rc, (params, header, rows) = run_csv(
            tmp_path, ["entangle-scan", "--x-grid", "1", "--K", "1"]
        )
        assert rc == 5
        assert header == ["x", "K", "pattern", "E", "flag"]
        assert rows == [["1", "1", "full", "0.5", "1"]], f"rows = {rows}"


NONFINITE_ARGV = [
    (["simulate", "--preset", "bell-k1", "--alpha", "inf"], "--alpha"),
    (["simulate", "--preset", "bell-k1", "--gamma", "inf"], "--gamma"),
    (["simulate", "--preset", "bell-k1", "--gamma", "nan"], "--gamma"),
    (["feasibility", "--Lambda", "nan"], "--Lambda"),
    (["feasibility", "--Lambda", "inf"], "--Lambda"),
    (["feasibility", "--eps-ac", "inf"], "--eps-ac"),
    (["feasibility", "--db-grid", "0,inf"], "--db-grid"),
    (["feasibility", "--fixed-db", "nan"], "--fixed-db"),
    (["design", "--preset", "bell-k1", "--gamma", "nan"], "--gamma"),
    (["design", "--coeffs", "1,-1", "--gamma", "0.1", "--delta", "inf"], "--delta"),
    (["design", "--coeffs", "1,nan", "--gamma", "0.1"], "--coeffs"),
    (["entangle-scan", "--x-grid", "1,nan", "--K", "1"], "--x-grid"),
]


# finite values that still make no configuration, each with its message: an
# attenuation past float range (10^(dB/10) overflows beyond ~3083 dB) or below
# zero (a gain), a vanishing mode amplitude, a fidelity target outside (0, 1),
# a distinguishability x <= 0, a --K list with a repeat or a value below 1,
# and a simulate target whose state vanishes (1 - 1 at alpha = beta = 0)
INVALID_CONFIG_ARGV = [
    (["feasibility", "--db-grid", "4000"], "attenuation 4000 dB is beyond float range"),
    (["feasibility", "--fixed-db", "4000"], "attenuation 4000 dB is beyond float range"),
    (["feasibility", "--alpha", "0"], "--alpha must be nonzero"),
    (["feasibility", "--alpha", "0", "--chi", "0.1"], "--alpha must be nonzero"),
    (["feasibility", "--f-target", "1"], "--f-target must lie in (0, 1), got 1"),
    (["feasibility", "--f-target", "1.5"], "--f-target must lie in (0, 1), got 1.5"),
    (["feasibility", "--f-target", "0"], "--f-target must lie in (0, 1), got 0"),
    (["feasibility", "--db-grid", "-5"], "attenuation -5 dB is negative"),
    (["feasibility", "--fixed-db", "-3"], "attenuation -3 dB is negative"),
    (["entangle-scan", "--x-grid", "0", "--K", "1"], "--x-grid values must be > 0, got 0"),
    (["entangle-scan", "--x-grid", "-1", "--K", "1"], "--x-grid values must be > 0, got -1"),
    (["entangle-scan", "--x-grid", "1", "--K", "1,1"], "--K values must be distinct, got 1,1"),
    (["entangle-scan", "--x-grid", "1", "--K", "0"], "--K values must be >= 1, got 0"),
    (["feasibility", "--K", "1,1", "--db-grid", "1"], "--K values must be distinct, got 1,1"),
    (["feasibility", "--K", "0"], "--K values must be >= 1, got 0"),
    (["simulate", "--coeffs", "1,-1", "--alpha", "0", "--gamma", "0.1", "--chi", "0.5"],
     "the target state has squared norm 0"),
]


# finite flags whose squares, sums or cutoffs lie past float range: a cutoff
# that exists is over the memory budget (6); a |z|^2, an x = |alpha|^2 chi^2,
# an eps^2 or a sum of intensities that overflows is no configuration (2); a
# probe whose reference beams' total power overflows has no scheme (3)
PAST_FLOAT_RANGE_ARGV = [
    (["simulate", "--coeffs", "1,-1", "--alpha", "1e100", "--gamma", "0.1", "--chi", "0.1"],
     6, "over the memory budget: one heralded block operator needs 6.40e+401 B"),
    (["simulate", "--coeffs", "1,-1", "--alpha", "1e200", "--gamma", "0.1", "--chi", "0.1"],
     2, "invalid configuration: --alpha 1e+200 puts |alpha|^2 beyond float range"),
    (["simulate", "--coeffs", "1,-1", "--alpha", "1", "--beta", "1e200", "--gamma", "0.1",
      "--chi", "0.1"],
     2, "invalid configuration: --beta 1e+200 puts |beta|^2 beyond float range"),
    (["simulate", "--coeffs", "1,-1", "--alpha", "1", "--gamma", "1e200", "--chi", "0.1"],
     2, "invalid configuration: --gamma 1e+200 puts |gamma|^2 beyond float range"),
    (["design", "--coeffs", "1,-1", "--gamma", "1e200"],
     3, "scheme synthesis failed: the reference beams' total power"),
    (["design", "--coeffs", "1,-3", "--gamma", "1e308"],
     3, "scheme synthesis failed: reference amplitude gtilde_1 is beyond float range"),
    (["feasibility", "--K", "1", "--alpha", "1e200"],
     2, "invalid configuration: --alpha 1e+200 puts |alpha|^2 beyond float range"),
    (["feasibility", "--K", "1", "--gamma", "1e200"],
     2, "invalid configuration: --gamma 1e+200 puts |gamma|^2 beyond float range"),
    (["feasibility", "--K", "1", "--chi", "1e200"],
     2, "invalid configuration: --chi 1e+200 puts |alpha|^2 chi^2 beyond float range"),
    (["feasibility", "--K", "1", "--eps-ac", "1e200"],
     2, "invalid configuration: --eps-ac 1e+200 puts eps_ac^2 beyond float range"),
    (["feasibility", "--K", "1", "--dphi2", "1e308"],
     2, "invalid configuration: --dphi2 1e+308 puts the smallest |alpha|^2 chi^2"),
    (["entangle-scan", "--K", "1", "--x-grid", "1e308"],
     2, "invalid configuration: --x-grid 1e+308 puts |alpha|^2 + |beta|^2"),
]


EMPTY_LIST_ARGV = [
    (["entangle-scan", "--x-grid", ",", "--K", "1"], "--x-grid", "float"),
    (["entangle-scan", "--x-grid", "1", "--K", ","], "--K", "int"),
    (["feasibility", "--db-grid", ","], "--db-grid", "float"),
    (["feasibility", "--fixed-db", ","], "--fixed-db", "float"),
]


class TestInvalidConfiguration:
    @pytest.mark.parametrize("argv,message", INVALID_CONFIG_ARGV,
                             ids=[" ".join(a) for a, _ in INVALID_CONFIG_ARGV])
    def test_exits_2_without_artifact(self, argv, message, tmp_path, capsys):
        out = tmp_path / "artifact"
        assert cli.main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"invalid configuration: {message}\n", captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_round_off_target_exits_2_without_artifact(self, tmp_path, capsys):
        # at chi = pi, c_0 and c_2 label one coherent pair and cancel: the
        # target's squared norm is round-off (~1e-32), not a state
        out = tmp_path / "artifact"
        argv = ["simulate", "--coeffs", "1,0,-1", "--alpha", "0.5", "--gamma", "0.1",
                "--chi", "3.141592653589793", "--out", str(out)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "invalid configuration: the target state has squared norm "), captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_vanishing_target_stops_before_the_dense_route(self, monkeypatch, tmp_path):
        def unreachable(params):
            raise AssertionError("run_full_protocol ran")

        monkeypatch.setattr(cli, "run_full_protocol", unreachable)
        argv = ["simulate", "--coeffs", "1,-1", "--alpha", "0", "--gamma", "0.1",
                "--chi", "0.5", "--out", str(tmp_path / "artifact")]
        assert cli.main(argv) == 2


class TestPastFloatRange:
    @pytest.mark.parametrize("argv,code,message", PAST_FLOAT_RANGE_ARGV,
                             ids=[" ".join(a) for a, _, _ in PAST_FLOAT_RANGE_ARGV])
    def test_exits_with_one_line_and_no_artifact(self, argv, code, message, tmp_path,
                                                 capsys):
        out = tmp_path / "artifact"
        assert cli.main(argv + ["--out", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.err.startswith(message), captured.err
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n"), captured.err
        assert captured.out == ""
        assert not out.exists()


class TestNonFiniteInput:
    @pytest.mark.parametrize("argv,flag", NONFINITE_ARGV,
                             ids=[" ".join(a) for a, _ in NONFINITE_ARGV])
    def test_exits_2_naming_the_flag(self, argv, flag, tmp_path, capsys):
        out = tmp_path / "artifact"
        assert cli.main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"invalid configuration: {flag} must be finite" in err, err
        assert not out.exists()

    def test_malformed_list_token_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "artifact"
        with pytest.raises(SystemExit) as exc:
            cli.main(["entangle-scan", "--x-grid", "1,abc", "--K", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --x-grid: invalid float list value: '1,abc'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,flag,kind", EMPTY_LIST_ARGV,
                             ids=[" ".join(a) for a, _, _ in EMPTY_LIST_ARGV])
    def test_empty_list_is_a_usage_error(self, argv, flag, kind, tmp_path, capsys):
        # not the flag's default: ',' has no values, as '1,abc' has a bad one
        out = tmp_path / "artifact"
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid {kind} list value: ','" in capsys.readouterr().err
        assert not out.exists()


SUBCOMMAND_FLAGS = {
    "design": {"--preset", "--coeffs", "--gamma", "--delta", "--out"},
    "simulate": {"--preset", "--coeffs", "--alpha", "--beta", "--gamma", "--chi",
                 "--delta", "--out", "--format"},
    "entangle-scan": {"--x-grid", "--K", "--seed", "--out", "--format"},
    "feasibility": {"--alpha", "--gamma", "--chi", "--K", "--Lambda", "--Lambda1",
                    "--Lambda2", "--dphi2", "--lambda-det", "--zeta", "--eps-ac",
                    "--eps-bc", "--detector", "--f-target", "--db-grid",
                    "--fixed-db", "--out", "--format"},
}

FOREIGN_FLAG_ARGV = [
    ["simulate", "--preset", "bell-k1", "--Lambda", "0.3"],
    ["entangle-scan", "--alpha", "5"],
    ["design", "--preset", "bell-k1", "--format", "json"],
    ["feasibility", "--preset", "bell-k1"],
    ["design", "--alpha", "1"],
    ["simulate", "--seed", "0"],
    ["entangle-scan", "--gamma", "0.1"],
    ["design", "--preset", "bell-k1", "--K", "2"],
    ["simulate", "--preset", "bell-k1", "--K", "1"],
    ["feasibility", "--epsilon", "0.001"],
]

# every public name of the package, its submodules included (the test module
# imports kerrlink.cli, the one submodule the package does not import itself)
PUBLIC_NAMES = [
    "DegenerateLeadingCoefficient", "DensOp", "DetectionScheme", "DomainError",
    "EliminationRoots", "EntanglementReport", "FeasibilityReport", "FidelityBreakdown",
    "FockVector", "KerrlinkError", "MemoryBudgetExceeded", "NoSolution", "NoiseParams",
    "NonConvergence", "OutcomeRecord", "PRESET_NAMES", "Preset", "ProtocolParams",
    "ShapeMismatch", "TailTooHeavy", "TargetCoefficients", "TruncationSpec",
    "UnknownMode", "all_click_record", "analytic_target_state", "attenuation_db",
    "build_scheme", "cli", "coeffs_from_photon_target", "coherent_amplitudes",
    "darkcount_loss_limit", "design", "dominant_eigenstate", "entangle",
    "entropy_of_coefficients", "errors", "feasibility_check", "fidelity",
    "fidelity_leading_order", "fock", "get_preset", "lift_to_modes", "make_protocol",
    "min_cutoff", "noise", "optimize_coefficients", "practical_cutoff_db", "presets",
    "protocol", "run_full_protocol", "schmidt_entropy", "semi_success_coeffs",
    "solve_roots", "success_probability", "superop_pipeline_fidelity", "to_json",
    "transmittances",
]


class TestPublicNames:
    def test_public_names_are_pinned(self):
        names = [n for n in dir(kerrlink) if not n.startswith("_")]
        assert names == sorted(PUBLIC_NAMES)
        assert len(names) == 57


class TestFlagSets:
    def test_each_subcommand_takes_only_its_flags(self):
        ap = cli.build_parser()
        sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(SUBCOMMAND_FLAGS)
        for name, p in sub.choices.items():
            opts = {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
            assert opts == SUBCOMMAND_FLAGS[name], f"{name}: {sorted(opts)}"
        assert [len(SUBCOMMAND_FLAGS[n]) for n in sub.choices] == [5, 9, 5, 18]

    @pytest.mark.parametrize("argv", FOREIGN_FLAG_ARGV, ids=" ".join)
    def test_foreign_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-0.001"])
    def test_feasibility_rejects_nonpositive_dphi2(self, value, tmp_path, capsys):
        out = tmp_path / "artifact"
        assert cli.main(["feasibility", "--dphi2", value, "--out", str(out)]) == 2
        assert "invalid configuration: --dphi2 must be > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_command_lines_parse(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        lines = [l.strip() for l in readme.read_text().splitlines()]
        cmds = [shlex.split(l)[1:] for l in lines if l.startswith("kerrlink ")]
        assert len(cmds) >= 6, f"{len(cmds)} command lines in README"
        for argv in cmds:
            cli.build_parser().parse_args(argv)


class TestReadmeSession:
    def test_python_block_runs(self, capsys):
        # each print's '# ...' comment opens with what it prints: a True or
        # False as printed, then a number that, ending in '...', the printed
        # one starts with, and otherwise the printed one rounds to
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = readme.split("```python\n")[1:]
        assert len(blocks) == 1, f"{len(blocks)} python blocks in README"
        session = blocks[0].split("```")[0]
        exec(session, {})
        printed = capsys.readouterr().out.splitlines()
        comments = [line.split("# ", 1)[1] for line in session.splitlines()
                    if line.startswith("print(")]
        assert len(printed) == len(comments) == 4, (printed, comments)
        for out, comment in zip(printed, comments):
            flag, number, decimals, prefix = re.match(
                r"((?:True|False) )?(\d+\.(\d+))(\.\.\.)?", comment).groups()
            got = out.split()
            if flag:
                assert got.pop(0) == flag.strip(), (out, comment)
            if prefix:
                assert got[0].startswith(number), (out, comment)
            else:
                assert round(float(got[0]), len(decimals)) == float(number), (out, comment)


class TestLibraryWithoutTests:
    @staticmethod
    def run_src_only(argv, cwd):
        """Run a fresh interpreter with argv and only src on the path; assert exit 0."""
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_runs_with_only_src_on_the_path(self, tmp_path):
        """The package imports and simulates with neither the tests tree nor
        its oracles module reachable."""
        imports = (
            "import importlib, pkgutil, sys, kerrlink\n"
            "for m in pkgutil.iter_modules(kerrlink.__path__):\n"
            "    importlib.import_module('kerrlink.' + m.name)\n"
            "assert 'oracles' not in sys.modules, 'kerrlink imported oracles'\n"
        )
        for argv in (["-c", imports],
                     ["-m", "kerrlink", "simulate", "--preset", "photon-correlated:2,2"]):
            self.run_src_only(argv, tmp_path)

    def test_start_builds_no_gram(self, tmp_path):
        """Importing the CLI leaves the Gram memos empty and builds no parser:
        main builds its own on its first call."""
        code = (
            "import kerrlink.cli\n"
            "from kerrlink import entangle\n"
            "for memo in (entangle._mode_gram, entangle._gram_root):\n"
            "    assert memo.cache_info().currsize == 0, memo.cache_info()\n"
            "assert kerrlink.cli._parser is None\n"
        )
        self.run_src_only(["-c", code], tmp_path)

    @pytest.mark.parametrize("run", [
        "kerrlink.cli.build_parser()",
        "assert kerrlink.cli.main(['feasibility', '--detector', 'low-dark', "
        "'--f-target', '0.9']) == 0",
        "assert kerrlink.cli.main(['design', '--coeffs', '1,-1.2,0.4', '--gamma', '0.1']) == 0",
        "assert kerrlink.cli.main(['entangle-scan', '--x-grid', '1', '--K', '1']) == 0",
    ], ids=["start", "feasibility", "design", "entangle-scan"])
    def test_starts_without_scipy(self, tmp_path, run):
        """Start-up, design, feasibility and entangle-scan load no scipy
        module: the optimizer's Nelder-Mead is kerrlink's own
        entangle.minimize, which tests and the benchmark tracer replace by
        name."""
        code = (
            "import sys, kerrlink, kerrlink.cli\n"
            f"{run}\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
            "assert callable(kerrlink.entangle.minimize)\n"
        )
        self.run_src_only(["-c", code], tmp_path)


    def test_simulate_below_subspace_rows_loads_no_scipy(self, tmp_path):
        """Below SUBSPACE_MIN_ROWS simulate needs numpy alone: the Poisson
        tails and coherent amplitudes are kerrlink's own, and the metric pass
        takes numpy's stacked eigh, so no scipy module is loaded."""
        code = (
            "import sys, kerrlink.cli\n"
            "argv = ['simulate', '--preset', 'photon-correlated:2,2', '--out', 'a.csv']\n"
            "assert kerrlink.cli.main(argv) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
        )
        self.run_src_only(["-c", code], tmp_path)
        rows = (tmp_path / "a.csv").read_text().splitlines()[-4:]
        assert [row.split(",")[0] for row in rows] == ["11", "10", "01", "00"]

    def test_simulate_from_subspace_rows_loads_no_scipy_nor_numpy_random(self, tmp_path):
        """From SUBSPACE_MIN_ROWS (here n_max 59, 119 rows) the top
        eigenpairs come from numpy's subspace iteration, whose start block is
        a closed form: no scipy module and no numpy.random is loaded."""
        code = (
            "import sys, kerrlink.cli\n"
            "argv = ['simulate', '--coeffs', '1,-1', '--alpha', '4.5', '--gamma', '0.1',\n"
            "        '--chi', '0.2', '--out', 'w.csv']\n"
            "assert kerrlink.cli.main(argv) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "                or m.startswith('numpy.random'))\n"
            "assert not loaded, loaded\n"
        )
        self.run_src_only(["-c", code], tmp_path)
        text = (tmp_path / "w.csv").read_text()
        n_max = int(text.split("# n_max = ")[1].split()[0])
        assert 2 * n_max + 1 == 119 >= protocol.SUBSPACE_MIN_ROWS

    def test_runs_with_scipy_blocked(self, tmp_path):
        """With scipy unimportable, design, feasibility, a one-point scan and
        simulate on every preset that fits the memory budget, and on 119
        rows, still exit 0."""
        argvs = [
            ["design", "--coeffs", "1,-1.2,0.4", "--gamma", "0.1"],
            ["feasibility"],
            ["entangle-scan", "--x-grid", "1", "--K", "1"],
        ] + [["simulate", "--preset", name] for name in (
            "bell-k1", "maxent-k2-low", "photon-correlated:2,2", "photon-correlated:1,3",
            "photon-correlated:2,4")] + [
            ["simulate", "--coeffs", "1,-1", "--alpha", "4.5", "--gamma", "0.1", "--chi", "0.2"]]
        code = (
            "import contextlib, io, sys\n"
            "sys.modules['scipy'] = None\n"
            "import kerrlink.cli\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        rc = kerrlink.cli.main(argv)\n"
            "    assert rc == 0, (argv, rc)\n"
        )
        self.run_src_only(["-c", code], tmp_path)

class TestMemoryBudgetExit:
    def test_over_budget_simulation_exits_6(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(protocol, "DENSE_BYTES_LIMIT", 1000)
        out = tmp_path / "artifact.csv"
        rc = cli.main(["simulate", "--preset", "photon-correlated:2,2", "--out", str(out)])
        assert rc == 6
        assert "memory budget" in capsys.readouterr().err
        assert not out.exists()

    def test_maxent_k2_high_exits_6_before_allocating(self, tmp_path, capsys):
        # n_max 10711: the target over s and the amplitudes are vectors of
        # ~2e4 entries, and the budget check stops the run before any
        # 21423-row operator (7.3 GB) exists; the bound leaves room for the
        # argparse parser built on a first call (no scipy is imported)
        out = tmp_path / "artifact.csv"
        tracemalloc.start()
        try:
            rc = cli.main(["simulate", "--preset", "maxent-k2-high", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 6
        assert "n_max 10711" in capsys.readouterr().err
        assert not out.exists()
        assert peak < 100e6, f"traced peak {peak} B"

    @pytest.mark.parametrize("alpha", ["400", "1000", "1e5", "1e8"])
    def test_large_amplitude_exits_6_before_allocating(self, alpha, tmp_path, capsys):
        # n_max ~ alpha^2: one (2 n_max + 1)-row operator is past the budget,
        # so the run stops before the held modes' O(n_max) amplitudes and
        # their O(n_max^2) norms are built; the cutoff search takes no
        # scipy, and the bound leaves room for the argparse parser built on
        # the first call
        out = tmp_path / "artifact.csv"
        argv = ["simulate", "--coeffs", "1,-1", "--alpha", alpha, "--gamma", "0.1",
                "--chi", "0.1", "--out", str(out)]
        tracemalloc.start()
        try:
            rc = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 6
        err = capsys.readouterr().err
        assert err.startswith("over the memory budget: one heralded block operator"), err
        assert not out.exists()
        assert peak < 100e6, f"traced peak {peak} B"


# design's stdout for this target at gamma 0.1; the same as when design still
# demanded --alpha and --chi (given as 1.5 and 0.2) and ignored them
DESIGN_COEFFS_STDOUT = """\
K = 2  gamma = 0.1  delta = 0.001  q = 0.706929893934
target c: 1+0j,-1.2+0j,0.4+0j
detector,root_re,root_im,mult,abs,arg
1,0.15,-0.05,1,0.158113883008,-0.321750554397
2,0.15,0.05,1,0.158113883008,0.321750554397
splitter transmittances T: 0.500250125063,0.001
reference amplitudes gtilde: -0.0499749937469-0.149924981241j,0.00111775430545-6.70317256976j
reference cascade Tp: 0.999444475322
reference cascade phi: -0.321917304437
master beam: -6.70503523475-0.00111806490491j
"""


class TestDesign:
    def test_coeffs_need_only_gamma(self, capsys):
        assert cli.main(["design", "--coeffs", "1,-1.2,0.4", "--gamma", "0.1"]) == 0
        assert capsys.readouterr().out == DESIGN_COEFFS_STDOUT

    def test_photon_correlated_prints_coefficients(self, capsys):
        assert cli.main(["design", "--preset", "photon-correlated:2,2"]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("target c:"))
        got = np.array([complex(tok) for tok in line.removeprefix("target c:").split(",")])
        want = np.array([np.exp(1j), -1 - np.exp(1j), 1.0])
        assert np.allclose(got, want, atol=1e-10), f"printed c = {got}"

    def test_high_x_roots_sit_at_pm_pi_over_3(self, capsys):
        # relative to the 2|alpha|^2 chi carrier phase the two roots sit
        # symmetrically at +-pi/3 on the |gamma| circle
        assert cli.main(["design", "--preset", "maxent-k2-high"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        start = lines.index("detector,root_re,root_im,mult,abs,arg") + 1
        rel = []
        for line in lines[start : start + 2]:
            _, re_, im_, mult, ab, _ = line.split(",")
            z = float(re_) + 1j * float(im_)
            assert abs(abs(z) - 0.1) < 1e-9, f"|root| = {abs(z)}"
            rel.append(float(np.angle(z * np.exp(-2j * 1e4 * 0.1))))
        assert np.allclose(sorted(rel), [-np.pi / 3, np.pi / 3], atol=1e-9), f"rel = {rel}"

    def test_triple_root_is_one_detector_row(self, capsys):
        # np.roots splits it by ~1e-5 relative; the row still reads 3 slots
        assert cli.main(["design", "--coeffs", "1,-3,3,-1", "--gamma", "0.2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("detector,root_re,root_im,mult,abs,arg") + 1
        assert lines[start].startswith("1,0.2,") and lines[start].split(",")[3] == "3"
        assert lines[start + 1].startswith("splitter transmittances T: ")
        assert len(lines[start + 1].split(",")) == 3

    def test_out_writes_scheme_json_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "scheme.json"
        rc = cli.main(["design", "--preset", "maxent-k2-low", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["K"] == 2
        assert len(doc["T"]) == 2
        p = get_preset("maxent-k2-low")
        assert out.read_text() == to_json(build_scheme(p.target, p.gamma, delta=p.delta)) + "\n"

    def test_complex_values_read_back(self, capsys):
        # a negative-zero imaginary part prints as -0j, which complex() and
        # so --coeffs read back
        assert cli.main(["design", "--coeffs", "1,-1-0j", "--gamma", "0.1"]) == 0
        line = next(l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("target c: "))
        assert line == "target c: 1+0j,-1-0j"
        assert [complex(tok) for tok in line.removeprefix("target c: ").split(",")] == [1, -1]


class TestSimulate:
    def test_bell_k1_artifact(self, tmp_path):
        rc, (params, header, rows) = run_csv(tmp_path, ["simulate", "--preset", "bell-k1"])
        assert rc == 0
        assert header[0] == "pattern" and "oracle_residual" in header
        assert abs(float(params["probability_sum"]) - 1.0) < 1e-9
        by_pattern = {r[0]: r for r in rows}
        click = by_pattern["1"]
        assert float(click[1]) > 0.01, f"click probability = {click[1]}"
        assert float(click[2]) >= 0.99, f"fidelity = {click[2]}"
        assert abs(float(click[3]) - 1.0) < 0.02, f"entanglement = {click[3]}"
        assert float(click[4]) < 0.01, f"oracle residual = {click[4]}"
        total = sum(float(r[1]) for r in rows)
        assert abs(total - 1.0) < 1e-9, f"sum p = {total}"

    def test_photon_correlated_small_alpha(self, tmp_path):
        rc, (params, header, rows) = run_csv(
            tmp_path, ["simulate", "--preset", "photon-correlated:2,2"]
        )
        assert rc == 0
        click = next(r for r in rows if r[0] == "11")
        assert float(click[2]) >= 0.95, f"all-click fidelity = {click[2]}"

    def test_product_state_entropy_is_plus_zero(self, tmp_path):
        rc, (_, header, rows) = run_csv(
            tmp_path, ["simulate", "--preset", "bell-k1", "--beta", "0"]
        )
        assert rc == 0
        col = header.index("entanglement")
        assert [r[col] for r in rows] == ["0", "0"], rows
        assert all(math.copysign(1, float(r[col])) == 1 for r in rows)


class TestEntangleScan:
    def test_k1_flat_and_k2_endpoints(self, tmp_path):
        rc, (params, header, rows) = run_csv(
            tmp_path, ["entangle-scan", "--x-grid", "0.0001,100", "--K", "1,2"]
        )
        assert rc == 0
        table = {(r[0], r[1], r[2]): float(r[3]) for r in rows}
        assert abs(table[("0.0001", "1", "full")] - 1.0) < 1e-6
        assert abs(table[("100", "1", "full")] - 1.0) < 1e-6
        assert abs(table[("0.0001", "2", "full")] - 1.5) < 5e-3
        assert abs(table[("100", "2", "full")] - np.log2(3)) < 5e-3
        # one-missing rows accompany every K=2 point
        assert ("100", "2", "miss1") in table and ("100", "2", "miss2") in table

    def test_k3_best_two_missing_tracks_k1(self, tmp_path):
        # with all but one detector silent the best surviving root reproduces
        # the K=1 optimum once the coherent components are distinguishable
        rc, (params, header, rows) = run_csv(
            tmp_path, ["entangle-scan", "--x-grid", "1,10,100", "--K", "1,3"]
        )
        assert rc == 0
        for x in ("1", "10", "100"):
            e1 = next(float(r[3]) for r in rows if r[:3] == [x, "1", "full"])
            pairs = [
                float(r[3])
                for r in rows
                if r[0] == x and r[1] == "3" and r[2].startswith("miss") and len(r[2]) == 6
            ]
            assert len(pairs) == 3, f"x={x}: pair rows = {pairs}"
            best = max(pairs)
            assert abs(best - e1) <= 1e-3, f"x={x}: best 2-missing {best} vs K=1 {e1}"

    def test_flag_column_zero_on_convergence(self, tmp_path):
        rc, (params, header, rows) = run_csv(
            tmp_path, ["entangle-scan", "--x-grid", "1", "--K", "1"]
        )
        assert rc == 0
        assert all(r[4] == "0" for r in rows)


class TestFeasibility:
    @pytest.mark.parametrize("flag", ["--zeta", "--dphi2"])
    def test_subnormal_inputs_run_with_warnings_as_errors(self, flag, tmp_path, capsys):
        # 2 eps^2 lambda/zeta and eps/(x Lambda) overflow to inf quietly, so
        # a subnormal zeta reads as a dark-count wall of inf dB, as zeta = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, (params, _, rows) = run_csv(tmp_path, ["feasibility", flag, "1e-320"])
        capsys.readouterr()
        assert rc == 0
        bound = "darkcount_cutoff_dB_K1" if flag == "--zeta" else "practical_cutoff_dB_K1"
        assert params[bound] == "inf"
        assert rows

    def test_report_cutoffs_and_sweeps(self, tmp_path, capsys):
        rc, (params, header, rows) = run_csv(
            tmp_path,
            ["feasibility", "--K", "1,2", "--db-grid", "0,10,14,16,20,28,30"],
        )
        capsys.readouterr()
        assert rc == 0
        assert header == ["sweep", "K", "Lambda_dB", "F", "p_K"]
        assert "10*log10(Lambda+1)" in params["dB_convention"]
        wall = float(params["darkcount_cutoff_dB_K1"])
        assert 20.0 <= wall <= 28.0, f"dark-count wall = {wall} dB"
        cut2 = float(params["practical_cutoff_dB_K2"])
        assert abs(cut2 - 14.59) < 0.5, f"K=2 practical cutoff = {cut2} dB"
        loss1 = {float(r[2]): float(r[4]) for r in rows if r[0] == "loss" and r[1] == "1"}
        assert loss1[0.0] == pytest.approx(5e-3, rel=1e-9)
        assert loss1[20.0] > 0.0
        assert loss1[30.0] == 0.0, f"p beyond the wall = {loss1[30.0]}"
        fixed = {float(r[2]) for r in rows if r[0] == "fidelity"}
        assert fixed == {14.0, 28.0}

    @pytest.mark.parametrize("f_target", ["0.9", "0.994"])
    def test_loss_rows_end_at_the_darkcount_cutoff(self, f_target, tmp_path, capsys):
        argv = ["feasibility", "--K", "1", "--f-target", f_target]
        _, (params, _, _) = run_csv(tmp_path, argv)
        wall = float(params["darkcount_cutoff_dB_K1"])
        grid = f"{wall - 0.1!r},{wall + 0.1!r}"
        rc, (params2, _, rows) = run_csv(tmp_path, argv + ["--db-grid", grid], "grid.csv")
        capsys.readouterr()
        assert rc == 0
        assert float(params2["darkcount_cutoff_dB_K1"]) == wall
        below, above = (float(r[4]) for r in rows if r[0] == "loss")
        assert below > 0.0, f"F = {f_target}: p_K 0.1 dB below {wall} dB is {below}"
        assert above == 0.0, f"F = {f_target}: p_K 0.1 dB above {wall} dB is {above}"

    def test_report_prints_inequalities(self, capsys):
        rc = cli.main(["feasibility", "--K", "1", "--db-grid", "0", "--out", "/dev/null"])
        err = capsys.readouterr().err
        assert rc == 0
        assert "overall:" in err
        assert err.count("PASS") + err.count("FAIL") >= 6

    def test_stdout_is_the_json_artifact_alone(self, capsys):
        rc = cli.main(["feasibility", "--K", "1", "--db-grid", "0,10", "--format", "json"])
        out, err = capsys.readouterr()
        assert rc == 0 and "overall:" in err
        doc = json.loads(out)
        assert doc["params"]["subcommand"] == "feasibility"
        assert [r["Lambda_dB"] for r in doc["rows"] if r["sweep"] == "loss"] == [0.0, 10.0]

    def test_stdout_is_the_csv_artifact_alone(self, capsys):
        rc = cli.main(["feasibility", "--K", "1", "--db-grid", "0,10"])
        out, err = capsys.readouterr()
        assert rc == 0 and "overall:" in err
        lines = out.splitlines()
        n_echo = 0
        while lines[n_echo].startswith("# "):
            n_echo += 1
        assert n_echo > 0 and lines[n_echo] == "sweep,K,Lambda_dB,F,p_K"
        rows = [line.split(",") for line in lines[n_echo + 1 :]]
        assert len(rows) == 2 + 2 * 50 and all(len(r) == 5 for r in rows)


class TestArtifactConventions:
    def test_simulate_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert cli.main(["simulate", "--preset", "bell-k1", "--out", str(a)]) == 0
        assert cli.main(["simulate", "--preset", "bell-k1", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_one_parser_serves_every_call(self, tmp_path, monkeypatch, capsys):
        """main builds its parser once per process; a usage error and other
        subcommands in between leave the next artifact as a fresh
        interpreter writes it."""
        monkeypatch.setattr(cli, "_parser", None)
        sim = ["simulate", "--preset", "photon-correlated:2,2", "--out"]
        first, last, fresh = (tmp_path / name for name in ("a.csv", "c.csv", "f.csv"))
        assert cli.main(sim + [str(first)]) == 0
        parser = cli._parser
        assert cli.main(sim + [str(tmp_path / "b.json"), "--format", "json"]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(sim + [str(tmp_path / "x.csv"), "--seed", "1"])
        assert exc.value.code == 2
        assert cli.main(["feasibility", "--K", "1", "--db-grid", "0",
                         "--out", str(tmp_path / "d.csv")]) == 0
        assert cli.main(sim + [str(last)]) == 0
        capsys.readouterr()
        assert cli._parser is parser
        TestLibraryWithoutTests.run_src_only(["-m", "kerrlink", *sim, str(fresh)], tmp_path)
        assert first.read_bytes() == last.read_bytes() == fresh.read_bytes()
        assert not (tmp_path / "x.csv").exists()
        assert cli.build_parser() is not cli.build_parser()

    # written with scipy's Nelder-Mead, before the search became
    # entangle.minimize: the port must not move a scan artifact
    SCAN_ARTIFACT = """\
# subcommand = entangle-scan
# x_grid = 1,100
# K_list = 1,2
# seed = 0
# alpha_rule = alpha^2 = max(10, x), chi = sqrt(x)/alpha
x,K,pattern,E,flag
1,1,full,1,0
1,2,full,1.54660901864,0
1,2,miss1,0.72807571379,0
1,2,miss2,0.754171303678,0
100,1,full,1,0
100,2,full,1.58496250072,0
100,2,miss1,1,0
100,2,miss2,1,0
"""

    def test_scan_artifact_is_pinned(self, capsys):
        assert cli.main(["entangle-scan", "--x-grid", "1,100", "--K", "1,2", "--seed", "0"]) == 0
        assert capsys.readouterr().out == self.SCAN_ARTIFACT

    def test_scan_byte_identical(self, tmp_path):
        argv = ["entangle-scan", "--x-grid", "1", "--K", "1,2", "--seed", "3"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert cli.main(argv + ["--out", str(a)]) == 0
        assert cli.main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_echo_and_header_shape(self, tmp_path):
        out = tmp_path / "art.csv"
        assert cli.main(["simulate", "--preset", "bell-k1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        n_echo = 0
        while lines[n_echo].startswith("# "):
            n_echo += 1
        assert n_echo >= 5, "echo block missing"
        width = len(lines[n_echo].split(","))
        for line in lines[n_echo + 1 :]:
            assert len(line.split(",")) == width, f"ragged row: {line}"
            assert ";" not in line

    @pytest.mark.parametrize("preset", ["bell-k1", "photon-correlated:1,3"])
    def test_simulate_echoes_the_truncated_mass(self, preset, tmp_path):
        # 1 - sum_s N_s, the trace the (a, b) cutoff loses before heralding:
        # the dense oracle's traces summed over every click pattern
        p = get_preset(preset)
        prot = protocol.make_protocol(p.alpha, p.beta, p.gamma, p.chi, p.target,
                                      delta=p.delta)
        arms, probe = protocol._branch_labels(prot)
        lost = 1 - sum(
            np.trace(gathered_rho(prot, _pattern_kernel(arms, probe, pat))).real
            for pat in itertools.product((True, False), repeat=p.K)
        )
        rc, (params, _, _) = run_csv(tmp_path, ["simulate", "--preset", preset])
        assert rc == 0
        assert abs(float(params["truncated_mass"]) - lost) < 1e-14, (params, lost)
        out = tmp_path / "art.json"
        assert cli.main(["simulate", "--preset", preset, "--format", "json",
                         "--out", str(out)]) == 0
        assert json.loads(out.read_text())["params"]["truncated_mass"] == params["truncated_mass"]

    def test_json_format(self, tmp_path):
        out = tmp_path / "art.json"
        rc = cli.main(
            ["entangle-scan", "--x-grid", "1", "--K", "1", "--format", "json",
             "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["params"]["subcommand"] == "entangle-scan"
        row = doc["rows"][0]
        assert row["pattern"] == "full" and abs(row["E"] - 1.0) < 1e-6
