"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install`` replaces each public callable in TARGETS, in the namespace
its caller resolves it from, with a wrapper that records a span: name, start,
end, parent span and op id.  Calls outside an op (the checks of its output)
are not recorded.  ``Tracer.restore`` puts the originals back.
Spans stay in memory until ``dump`` writes them out.  A span's self time is
its duration minus that of its direct children, so per op the self times of
all spans add up to the op's root span.  The root span is named "op"; its
self time is the CLI's own share (argument parsing, formatting, file write)
on the CLI ops of simulate-presets, and next to nothing on the others.

Private hot spots (``_pattern_kernel``, ``_assemble_rho``) are not wrapped;
their time shows inside ``protocol.run_full_protocol``.  The Gram builders
of GRAM_TARGETS get no span, only a call count and a record of their keys,
from which ``gram.repeat_share`` is computed per pass.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

import numpy as np
import kerrlink.cli
import kerrlink.design
import kerrlink.entangle
import kerrlink.noise
import kerrlink.protocol
from kerrlink.errors import NonConvergence
from kerrlink.fock import DensOp
from workloads import rho_bytes

ROOT_SPAN = "op"
ENTROPY = "entangle.entropy_of_coefficients"
NELDER_MEAD = "entangle.nelder_mead"
OPTIMIZE = "entangle.optimize_coefficients"
DENSOP = "fock.DensOp"
# a Nelder-Mead start is useful when it ends within this many bits of the
# entropy its optimize_coefficients call returns
NM_USEFUL_TOL = 1e-6

# (owner, attribute, span name): every binding through which the workloads
# reach a layer's public function
TARGETS = (
    (kerrlink.cli, "make_protocol", "protocol.make_protocol"),
    (kerrlink.cli, "run_full_protocol", "protocol.run_full_protocol"),
    (kerrlink.cli, "analytic_target_state", "protocol.analytic_target_state"),
    (kerrlink.cli, "dominant_eigenstate", "protocol.dominant_eigenstate"),
    (kerrlink.cli, "fidelity", "fock.fidelity"),
    (kerrlink.cli, "schmidt_entropy", "entangle.schmidt_entropy"),
    (kerrlink.protocol, "build_scheme", "design.build_scheme"),
    (kerrlink.design, "solve_roots", "design.solve_roots"),
    (kerrlink.noise, "solve_roots", "design.solve_roots"),
    (kerrlink.entangle, "optimize_coefficients", OPTIMIZE),
    (kerrlink.entangle, "entropy_of_coefficients", ENTROPY),
    (kerrlink.entangle, "minimize", NELDER_MEAD),
    (kerrlink.noise, "fidelity_leading_order", "noise.fidelity_leading_order"),
    (kerrlink.noise, "superop_pipeline_fidelity", "noise.superop_pipeline_fidelity"),
    (kerrlink.noise, "feasibility_check", "noise.feasibility_check"),
    (DensOp, "__post_init__", DENSOP),
    (DensOp, "normalized", DENSOP + ".normalized"),
)

# Gram-matrix builders of the coherent-pair algebra, counted rather than timed:
# per pass, how many calls there are and what share of them repeat a key
# (the full argument tuple) already built in that pass, which is the share a
# per-pass Gram cache could serve
GRAM_TARGETS = (
    (kerrlink.entangle, "pair_gram"),
    (kerrlink.noise, "pair_gram"),
    (kerrlink.noise, "_rot_gram"),
)

# per-layer metrics, each per pass: (name, unit)
LAYER_METRICS = (
    ("cli.self_s", "s"),
    ("design.build_scheme_s", "s"),
    ("design.solve_roots_s", "s"),
    ("protocol.make_protocol_s", "s"),
    ("protocol.run_full_protocol_s", "s"),
    ("protocol.analytic_target_state_s", "s"),
    ("protocol.dominant_eigenstate_s", "s"),
    ("protocol.patterns", "count"),
    ("protocol.rho_bytes", "B"),
    ("protocol.warnings", "count"),
    ("fock.DensOp_s", "s"),
    ("fock.DensOp_count", "count"),
    ("fock.fidelity_s", "s"),
    ("entangle.schmidt_entropy_s", "s"),
    ("entangle.optimize_coefficients_s", "s"),
    ("entangle.entropy_of_coefficients_s", "s"),
    ("entangle.nelder_mead_s", "s"),
    ("entangle.entropy_evals", "count"),
    ("entangle.entropy_eval_us", "us"),
    ("entangle.nm_starts", "count"),
    ("entangle.nm_nfev", "count"),
    ("entangle.nm_useful_ratio", "ratio"),
    ("noise.fidelity_leading_order_s", "s"),
    ("noise.superop_pipeline_fidelity_s", "s"),
    ("noise.feasibility_check_s", "s"),
    ("noise.warnings", "count"),
    ("gram.calls", "count"),
    ("gram.repeat_share", "ratio"),
    ("trace.pass_s", "s"),
    ("trace.overhead_s", "s"),
)
# counts that must repeat exactly across passes and runs of one seed
EXACT_COUNTS = (
    "entangle.entropy_evals",
    "entangle.nm_nfev",
    "protocol.patterns",
    "protocol.rho_bytes",
    "gram.calls",
)


def self_time_metric(span_name: str) -> str:
    if span_name == ROOT_SPAN:
        return "cli.self_s"
    if span_name == DENSOP + ".normalized":
        return "fock.DensOp_s"
    return span_name + "_s"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.op_pass = {}  # op id -> pass index
        self.counts = defaultdict(float)  # (op id, metric) -> value
        self._stack = []
        self._op = None
        self._pass = None
        self._saved = []
        self._nm_funs = None
        self._gram_keys = defaultdict(set)  # pass index -> Gram keys built

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self._op])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, pass_idx: int, call):
        """Call ``call()`` under the op's root span."""
        self._op = op_id
        self._pass = pass_idx
        self.op_pass[op_id] = pass_idx
        idx = self._open(ROOT_SPAN)
        try:
            return call()
        finally:
            self._close(idx)
            self._op = None

    def _count(self, metric: str, value: float):
        if self._op is not None:
            self.counts[(self._op, metric)] += value

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            if self._op is None:  # outside an op, e.g. in its output check
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _wrapper(self, fn, name: str):
        traced = self._wrap(fn, name)
        if name == "protocol.run_full_protocol":

            def run_full_protocol(params, *args, **kwargs):
                records = traced(params, *args, **kwargs)
                self._count("protocol.patterns", len(records))
                self._count("protocol.rho_bytes", rho_bytes(params.scheme.K, params.trunc.dim))
                return records

            return run_full_protocol
        if name == NELDER_MEAD:

            def minimize(*args, **kwargs):
                res = traced(*args, **kwargs)
                self._count("entangle.nm_nfev", res.nfev)
                if self._nm_funs is not None:
                    self._nm_funs.append(res.fun)
                return res

            return minimize
        if name == OPTIMIZE:

            def optimize_coefficients(*args, **kwargs):
                self._nm_funs = funs = []
                try:
                    rep = traced(*args, **kwargs)
                except NonConvergence as err:
                    self._count_useful(funs, err.best.E)
                    raise
                finally:
                    self._nm_funs = None
                self._count_useful(funs, rep.E)
                return rep

            return optimize_coefficients
        return traced

    def _counted(self, fn):
        def gram(*args):
            if self._op is None:
                return fn(*args)
            self._count("gram.calls", 1)
            self._gram_keys[self._pass].add(
                tuple(a.tobytes() if isinstance(a, np.ndarray) else a for a in args)
            )
            return fn(*args)

        return gram

    def _count_useful(self, funs, best_E: float):
        # each start minimizes -E
        self._count("entangle.nm_useful", sum(-f >= best_E - NM_USEFUL_TOL for f in funs))

    def install(self):
        for owner, attr, name in TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrapper(fn, name))
        for owner, attr in GRAM_TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._counted(fn))

    def restore(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- aggregation ---------------------------------------------------------

    def per_pass(self) -> dict:
        """{pass index: {metric: value}} for every traced pass."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {p: dict.fromkeys((m for m, _ in LAYER_METRICS), 0.0)
               for p in set(self.op_pass.values())}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            row = out[self.op_pass[op]]
            row[self_time_metric(name)] += end - start - child[i]
            if name == DENSOP:
                row["fock.DensOp_count"] += 1
            elif name == ENTROPY:
                row["entangle.entropy_evals"] += 1
            elif name == NELDER_MEAD:
                row["entangle.nm_starts"] += 1
        useful = defaultdict(float)
        for (op, metric), value in self.counts.items():
            if metric == "entangle.nm_useful":
                useful[self.op_pass[op]] += value
            else:
                out[self.op_pass[op]][metric] += value
        for p, row in out.items():
            if row["entangle.entropy_evals"]:
                row["entangle.entropy_eval_us"] = (
                    1e6 * row["entangle.entropy_of_coefficients_s"]
                    / row["entangle.entropy_evals"]
                )
            if row["entangle.nm_starts"]:
                row["entangle.nm_useful_ratio"] = useful[p] / row["entangle.nm_starts"]
            if row["gram.calls"]:
                row["gram.repeat_share"] = 1.0 - len(self._gram_keys[p]) / row["gram.calls"]
        return out

    def root_time(self) -> float:
        """Summed duration of all op root spans."""
        return sum(end - start for name, start, end, _, _ in self.spans if name == ROOT_SPAN)

    def dump(self, path):
        """Write every span as one JSON list per line: name, start, end, parent, op, pass."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op, self.op_pass[op]]) + "\n")
