"""Capture the reference outputs the benchmark checks against.

Run from the repository root, at a commit whose outputs are trusted:

    python3 perfbench/make_refs.py

It writes perfbench/refs/<workload>.json.  simulate-presets and noise-budget
outputs do not depend on the seed; entangle-scan references are the optimum
found with seed 0, checked one-sided (a better optimum passes).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import kerrlink.cli  # noqa: E402
import workloads as w  # noqa: E402
from kerrlink.presets import get_preset  # noqa: E402


def run_cli(argv) -> str:
    """Artifact text of one CLI call; refuses to capture a failing run."""
    rc = kerrlink.cli.main(argv)
    if rc != 0:
        raise SystemExit(f"kerrlink {' '.join(argv)} exited {rc}")
    return Path(argv[argv.index("--out") + 1]).read_text()


def main() -> int:
    w.REF_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "art.csv"
        sim = {}
        for preset in w.SIM_PRESETS:
            text = run_cli(["simulate", "--preset", preset, "--out", str(out)])
            params, _, rows = w.parse_csv(text)
            sim[preset] = {
                "n_max": int(params["n_max"]),
                "rows": [[r[0]] + [float(v) for v in r[1:]] for r in rows],
            }
    scan = {
        w.scan_label(x, K): {"E": w.scan_result(x, K, 0).E} for x, K in w.SCAN_POINTS
    }
    noise = {
        w.noise_label(preset, db, mix): w.noise_result(get_preset(preset), db, mix)
        for preset in w.NOISE_PRESETS for db in w.NOISE_DBS for mix in w.NOISE_MIXES
    }
    for name, refs in (("simulate-presets", sim), ("entangle-scan", scan),
                       ("noise-budget", noise)):
        (w.REF_DIR / f"{name}.json").write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
