"""In-memory span tracer that wraps stardelta's public API from outside.

Nothing in the package is edited: ``Tracer.install`` rebinds every
module attribute (and class attribute) that refers to a traced function,
and ``Tracer.uninstall`` puts the originals back.  Each traced call
pushes a frame on a stack; when it returns, its duration is credited to
its parent frame, so a layer's self time is its duration minus the time
its traced children covered.

Most layers record one span per call (name, start, end, parent span,
op id).  The hot evaluation methods (``AmplitudeTensor.value_array`` and
``derivative_array``, a few hundred thousand calls per large ``verify``)
only update per-function aggregates, which keeps the trace small; their
time is still subtracted from the enclosing span.  A few helpers are only
counted, for call counts and computed bytes and flops.

The package is single-threaded and the benchmark runs one process with
one sequential client, so there are no queues and no layer ever waits on
another: the tracer records no wait times.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from pathlib import Path

# (metric prefix, module, attribute path, mode) for every traced callable.
# Modes: SPAN records a span per call; AGGREGATE only sums calls and time;
# COUNT only counts calls (and feeds the computed byte/flop counters), so
# its time stays in the caller's self time.  Several callables may share
# one prefix, which pools their calls.
SPAN, AGGREGATE, COUNT = "span", "aggregate", "count"

TARGETS = [
    ("domain.AmplitudeTensor", "stardelta.domain", "AmplitudeTensor.__init__", SPAN),
    ("domain.value_array", "stardelta.domain", "AmplitudeTensor.value_array", AGGREGATE),
    ("domain.derivative_array", "stardelta.domain", "AmplitudeTensor.derivative_array", AGGREGATE),
    ("oneparticle.factors", "stardelta.oneparticle", "phi", COUNT),
    ("oneparticle.factors", "stardelta.oneparticle", "scattering_wave", COUNT),
    ("oneparticle.factors", "stardelta.oneparticle", "xi_solution", COUNT),
    ("basis.build_basis", "stardelta.basis", "build_basis", SPAN),
    ("basis.product_tensor", "stardelta.basis", "product_tensor", SPAN),
    ("transforms.extract_transforms", "stardelta.transforms", "extract_transforms", SPAN),
    ("transforms.check_kirchhoff_transforms", "stardelta.transforms", "check_kirchhoff_transforms", SPAN),
    ("transforms.check_diagonal_conditions", "stardelta.transforms", "check_diagonal_conditions", SPAN),
    ("transforms.compute_kernel_decomposition", "stardelta.transforms", "compute_kernel_decomposition", SPAN),
    ("transforms.operators", "stardelta.transforms", "build_q_operator", COUNT),
    ("transforms.operators", "stardelta.transforms", "build_p_operator", COUNT),
    ("transforms.svd_full", "stardelta.transforms", "nullspace", COUNT),
    ("transforms.svd_full", "stardelta.transforms", "orthonormal_range", COUNT),
    ("transforms.svd_economy", "stardelta.transforms", "orthonormalize", COUNT),
    ("transforms.basic_solution_tensor", "stardelta.transforms", "basic_solution_tensor", SPAN),
    ("verifier.verify_full_basis", "stardelta.verifier", "verify_full_basis", SPAN),
    ("verifier.verify_element", "stardelta.verifier", "verify_element", SPAN),
    ("verifier.check_vertex_bc", "stardelta.verifier", "check_vertex_bc", SPAN),
    ("verifier.check_diagonal_bc", "stardelta.verifier", "check_diagonal_bc", SPAN),
    ("verifier.basis_rank", "stardelta.verifier", "basis_rank", SPAN),
    ("verifier.sample_matrix", "stardelta.verifier", "sample_matrix", SPAN),
    ("verifier.mutation_sweep", "stardelta.verifier", "mutation_sweep", SPAN),
    ("verifier.check_norm_limit", "stardelta.verifier", "check_norm_limit", SPAN),
    ("synthesis.synthesize_eigensolution", "stardelta.synthesis", "synthesize_eigensolution", SPAN),
    ("synthesis.synthesize_basic_solution", "stardelta.synthesis", "synthesize_basic_solution", SPAN),
    ("synthesis.refine_quadrature", "stardelta.synthesis", "refine_quadrature", SPAN),
    ("synthesis.SynthesizedSolution", "stardelta.synthesis", "SynthesizedSolution.__init__", COUNT),
    ("synthesis.SynthesizedSolution.value_array", "stardelta.synthesis", "SynthesizedSolution.value_array", SPAN),
    ("cli.main", "stardelta.cli", "main", SPAN),
]

# Per-layer metrics: (name, unit, better, end-to-end metric it should move).
# Values are per traced pass over the workload's op list.
LAYER_METRICS = [
    ("domain.AmplitudeTensor.calls", "count", "lower", "op_ref_p50 on sweep_small; wall_ref on synthesis"),
    ("domain.AmplitudeTensor.self_s", "s", "lower", "op_ref_p50 on sweep_small; wall_ref on synthesis"),
    ("domain.value_array.calls", "count", "lower", "wall_ref on verify_large; wall_ref on synthesis (refine)"),
    ("domain.value_array.self_s", "s", "lower", "wall_ref on verify_large; wall_ref on synthesis (refine)"),
    ("domain.derivative_array.calls", "count", "lower", "wall_ref on verify_large; wall_ref on synthesis"),
    ("domain.derivative_array.self_s", "s", "lower", "wall_ref on verify_large; wall_ref on synthesis"),
    ("oneparticle.factors.calls", "count", "lower", "op_ref_p50 on sweep_small"),
    ("basis.build_basis.calls", "count", "lower", "wall_ref on synthesis; op_ref_p50 on sweep_small"),
    ("basis.build_basis.self_s", "s", "lower", "wall_ref on synthesis; op_ref_p50 on sweep_small"),
    ("basis.product_tensor.calls", "count", "lower", "wall_ref on synthesis; op_ref_p50 on sweep_small"),
    ("basis.product_tensor.self_s", "s", "lower", "wall_ref on synthesis; op_ref_p50 on sweep_small"),
    ("transforms.extract_transforms.self_s", "s", "lower", "op_ref_p50 on sweep_small"),
    ("transforms.check_kirchhoff_transforms.self_s", "s", "lower", "op_ref_p50 on sweep_small"),
    ("transforms.check_diagonal_conditions.self_s", "s", "lower", "op_ref_p50 on sweep_small"),
    ("transforms.compute_kernel_decomposition.calls", "count", "lower", "wall_ref on synthesis (kernels ops)"),
    ("transforms.compute_kernel_decomposition.self_s", "s", "lower", "wall_ref on synthesis (kernels ops)"),
    ("transforms.kernel_operator_bytes", "bytes", "lower", "wall_ref on synthesis (kernels ops, computed)"),
    ("transforms.kernel_svd_flops", "flop", "lower", "wall_ref on synthesis (kernels ops, computed)"),
    ("transforms.basic_solution_tensor.self_s", "s", "lower", "wall_ref on synthesis"),
    ("verifier.verify_full_basis.self_s", "s", "lower", "wall_ref on verify_large; op_ref_p50 on sweep_small"),
    ("verifier.verify_element.self_s", "s", "lower", "wall_ref on verify_large; op_ref_p50 on sweep_small"),
    ("verifier.check_vertex_bc.calls", "count", "lower", "wall_ref on verify_large"),
    ("verifier.check_vertex_bc.self_s", "s", "lower", "wall_ref on verify_large"),
    ("verifier.check_diagonal_bc.calls", "count", "lower", "wall_ref on verify_large"),
    ("verifier.check_diagonal_bc.self_s", "s", "lower", "wall_ref on verify_large"),
    ("verifier.basis_rank.self_s", "s", "lower", "wall_ref and op_ref_p50 on verify_large"),
    ("verifier.sample_matrix.self_s", "s", "lower", "wall_ref and op_ref_p50 on verify_large"),
    ("verifier.sample_matrix.bytes", "bytes", "lower", "wall_ref and op_ref_p50 on verify_large (computed)"),
    ("verifier.mutation_sweep.self_s", "s", "lower", "wall_ref on verify_large"),
    ("verifier.mutations_detected_ratio", "ratio", "higher", "wall_ref on verify_large (must stay 1)"),
    ("verifier.mutations_attempted", "count", "higher", "base of verifier.mutations_detected_ratio"),
    ("verifier.check_norm_limit.self_s", "s", "lower", "wall_ref on synthesis"),
    ("synthesis.synthesize_eigensolution.self_s", "s", "lower", "wall_ref on synthesis"),
    ("synthesis.synthesize_basic_solution.self_s", "s", "lower", "wall_ref on synthesis"),
    ("synthesis.refine_quadrature.self_s", "s", "lower", "wall_ref on synthesis"),
    ("synthesis.nodes_assembled", "count", "lower", "wall_ref on synthesis"),
    ("synthesis.SynthesizedSolution.value_array.calls", "count", "lower", "wall_ref on synthesis"),
    ("synthesis.SynthesizedSolution.value_array.self_s", "s", "lower", "wall_ref on synthesis"),
    ("cli.main.calls", "count", "lower", "op_ref_p50 on sweep_small"),
    ("cli.main.self_s", "s", "lower", "op_ref_p50 on sweep_small"),
    ("cli.report_bytes", "bytes", "lower", "op_ref_p50 on sweep_small"),
    ("cli.exit_code.0", "count", "higher", "op_ref_p50 on sweep_small"),
    ("cli.exit_code.1", "count", "lower", "op_ref_p50 on sweep_small"),
    ("cli.exit_code.2", "count", "lower", "op_ref_p50 on sweep_small"),
    ("trace.overhead_s", "s", "lower", "none: traced wall_s minus untraced wall_s"),
]


def svd_flops(shape: tuple[int, int], full: bool) -> float:
    """Golub-Van Loan operation count of an SVD with singular vectors.

    For an m x n matrix with m >= n: 4m^2 n + 8mn^2 + 9n^3 for the full
    factorisation, 6mn^2 + 11n^3 for the economy one.
    """
    m, n = max(shape), min(shape)
    return 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n ** 3 if full else 6.0 * m * n * n + 11.0 * n ** 3


class Tracer:
    """Span and aggregate recorder for the callables in ``TARGETS``."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counters: Counter = Counter()
        self.op_id = -1
        self._stack: list[list] = []  # [span index or -1, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _wrap(self, fn, name: str, mode: str):
        if mode == COUNT:
            return self._count(fn, name)
        record = mode == SPAN
        stack = self._stack
        spans = self.spans
        calls, self_s = self.calls, self.self_s
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = next((f[0] for f in reversed(stack) if f[0] >= 0), -1)
            idx = -1
            if record:
                idx = len(spans)
                spans.append((name, 0.0, 0.0, parent, self.op_id))
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if record:
                    spans[idx] = (name, start, end, parent, self.op_id)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _count(self, fn, name: str):
        calls = self.calls
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return counted

    # the package calls the operator builders and SVD helpers only from
    # compute_kernel_decomposition, so these count kernel work alone

    def _observe_transforms_operators(self, args, kwargs, result):
        self.counters["transforms.kernel_operator_bytes"] += result.nbytes

    def _observe_transforms_svd_full(self, args, kwargs, result):
        self.counters["transforms.kernel_svd_flops"] += svd_flops(args[0].shape, full=True)

    def _observe_transforms_svd_economy(self, args, kwargs, result):
        self.counters["transforms.kernel_svd_flops"] += svd_flops(args[0].shape, full=False)

    def _observe_verifier_sample_matrix(self, args, kwargs, result):
        self.counters["verifier.sample_matrix.bytes"] += result.nbytes

    def _observe_synthesis_SynthesizedSolution(self, args, kwargs, result):
        node_count = kwargs.get("node_count", args[4] if len(args) > 4 else 0)
        self.counters["synthesis.nodes_assembled"] += node_count

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Rebind every reference to each target across the loaded package."""
        for _name, modname, _path, _mode in TARGETS:
            importlib.import_module(modname)
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "stardelta" or key.startswith("stardelta."))]
        for name, modname, path, mode in TARGETS:
            owner = sys.modules[modname]
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrap(original, name, mode)
            if parents:
                self._patch(owner, attr, original, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def layer_values(self) -> dict[str, float]:
        """Totals for every metric of ``LAYER_METRICS`` the tracer measures."""
        out: dict[str, float] = {}
        for metric, _unit, _better, _moves in LAYER_METRICS:
            prefix, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = float(self.calls[prefix])
            elif stat == "self_s":
                out[metric] = float(self.self_s[prefix])
            elif metric in ("transforms.kernel_operator_bytes", "transforms.kernel_svd_flops",
                            "verifier.sample_matrix.bytes", "synthesis.nodes_assembled"):
                out[metric] = float(self.counters[metric])
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("index,name,start,end,parent,op\n")
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{idx},{name},{start:.9f},{end:.9f},{parent},{op}\n")
