"""Seeded workloads: each is a fixed list of ops built from ``--seed``.

The program only ever sees the generated argv (or the generated call
arguments); every op carries the check its output must pass.

Workloads (the reason for each is recorded in BENCHMARK.json too):

* ``verify_large``: ``verify`` at n = 10 (twice) and n = 12 plus
  ``mutate`` at n = 8; the large-n path of rank sampling and pointwise
  checks.
* ``sweep_small``: 48 ``verify`` ops over n in {3, 4, 5}, fixed
  per-instance overhead, plus the fixed edge slice below.
* ``synthesis``: quadrature synthesis at n = 3 and n = 4, the
  basic-solution negative control, the norm-limit identity, and the
  kernel decomposition for n = 3..16 (spectral basis) and for three
  edge-basis sizes, the only BLAS-threaded layer.

Every seed does the same amount of work: sizes, node counts and
synthesis elements are fixed per op slot, and the seed draws couplings,
momenta, sample seeds, profiles and kernel columns, which do not change
the cost of an op.

The edge slice of ``sweep_small`` is fixed, not drawn: (n=3, c=1e-6,
k1=0.6) fails ``transform_kirchhoff`` on floating-point scale and
(n=3, c=1, k1=1.0) collapses the basis rank at the endpoint momentum.
Both are known defects (ROADMAP item 4) and exit 1 today.  Their ops
accept three outcomes: a clean pass, a clean refusal (exit 2), or the
documented exit 1, which is counted as a known defect and reported in
``fail_frac``; anything else fails the op.
"""

from __future__ import annotations

import math
import random
from typing import Callable

from ops import Op, cli_op, lib_op, read_json
from stardelta import synthesis as syn
from stardelta import transforms as tr
from stardelta import verifier as vf
from stardelta.domain import make_config

POLE = 1.0 / math.sqrt(2.0)
# Drawn momenta keep this distance from the pole at 1/sqrt(2); the CLI's own
# exclusion zone is 1e-6 wide, and near-pole behaviour is ROADMAP item 4.
POLE_MARGIN = 1e-3
KNOWN_DEFECT = "known defect: exit 1 (ROADMAP item 4)"
EDGE_SLICE = [(3, 1e-6, 0.6), (3, 1.0, 1.0)]
# Norm-limit radii; the relative error must shrink from the first to the second.
NORM_RADII = (40.0, 80.0)


def predicted_dims(n: int) -> dict[str, int]:
    """Kernel dimensions stated by the construction, independent of the program."""
    return {"ker_Q_minus": (n - 1) ** 2 + 1, "ker_Q_plus": 2 * (n - 1), "K_minus": n - 1, "K_plus": 2}


# ---------------------------------------------------------------------------
# output checks: None means correct


def check_verify(code: int, data: bytes) -> str | None:
    report = read_json(data)
    if code != 0 or report is None:
        return f"verify exit {code}"
    if report.get("overall") is not True:
        return "verify overall false"
    if report.get("rank") != report.get("rank_expected"):
        return f"rank {report.get('rank')} != {report.get('rank_expected')}"
    return None


def check_edge(code: int, data: bytes) -> str | None:
    if code == 2:
        return None  # refused cleanly
    if code == 1:
        return KNOWN_DEFECT
    return check_verify(code, data)


def check_mutate(n: int) -> Callable[[int, bytes], str | None]:
    def check(code: int, data: bytes) -> str | None:
        report = read_json(data)
        if code != 0 or report is None:
            return f"mutate exit {code}"
        records = report.get("mutations", [])
        if len(records) != 2 * n * n - 2 * n:
            return f"{len(records)} mutations, want one per basis element"
        missed = sum(1 for r in records if not r.get("detected"))
        return f"{missed} mutations undetected" if missed else None

    return check


def check_kernels(ns: list[int]) -> Callable[[int, bytes], str | None]:
    def check(code: int, data: bytes) -> str | None:
        if code != 0:
            return f"kernels exit {code}"
        files = read_json(data) or {}
        found = {int(name[len("kernels_n"):-len(".json")]): read_json(text)
                 for name, text in files.items()}
        if sorted(found) != sorted(ns):
            return f"kernel reports for n={sorted(found)}, want {sorted(ns)}"
        for n, report in found.items():
            if report is None or report.get("dims") != predicted_dims(n):
                return f"n={n}: dims differ from the prediction"
            if report.get("pass") is not True:
                return f"n={n}: residual check failed"
        return None

    return check


def check_all_pass(code: int, data: bytes) -> str | None:
    """Every residual check in the report passes."""
    report = read_json(data)
    if code != 0 or report is None or not report.get("checks"):
        return f"exit {code} without a check report"
    failed = [ch["name"] for ch in report["checks"] if not ch.get("pass")]
    return f"checks failed: {failed}" if failed else None


def check_basic_control(code: int, data: bytes) -> str | None:
    """Basic solutions pass the vertex checks and fail the diagonal jump."""
    report = read_json(data)
    if report is None:
        return "unreadable control report"
    checks = {ch["name"]: ch for ch in report.get("checks", [])}
    for name in ("vertex_value_match", "vertex_derivative_sum"):
        if not checks.get(name, {}).get("pass"):
            return f"basic solution fails {name}"
    jump = checks.get("diagonal_jump")
    if jump is None or jump["pass"] or not jump["max_abs_residual"] > 1e-3:
        return "basic solution passes diagonal_jump (negative control vacuous)"
    return None


def check_norm_limit(code: int, data: bytes) -> str | None:
    report = read_json(data)
    if report is None:
        return "unreadable norm-limit report"
    rows = report.get("radii", [])
    if len(rows) != len(NORM_RADII) or not all(r["converged"] for r in rows):
        return "norm-limit quadrature not converged"
    errors = [r["relative_error"] for r in rows]
    if not all(math.isfinite(e) for e in errors) or not errors[1] < errors[0]:
        return f"norm-limit error does not shrink with R: {errors}"
    return None


# ---------------------------------------------------------------------------
# input draws


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"stardelta-perfbench:{workload}:{seed}")


def draw_c(rng: random.Random, lo: float, hi: float) -> float:
    """Signed coupling with |c| log-uniform on [lo, hi]."""
    return rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draw_k1(rng: random.Random, lo: float, hi: float) -> float:
    while True:
        k1 = rng.uniform(lo, hi)
        if abs(k1 - POLE) >= POLE_MARGIN:
            return k1


def verify_op(n: int, c: float, k1: float, seed: int, check=check_verify, known_defect=None) -> Op:
    argv = ["verify", "--n", str(n), "--c", repr(c), "--k1", repr(k1),
            "--samples", "60", "--seed", str(seed)]
    return cli_op(" ".join(argv), argv, check, known_defect)


def mutate_op(n: int, c: float, k1: float, seed: int) -> Op:
    argv = ["mutate", "--n", str(n), "--c", repr(c), "--k1", repr(k1), "--seed", str(seed)]
    return cli_op(" ".join(argv), argv, check_mutate(n))


def kernels_op(ns: list[int], basis: str) -> Op:
    argv = ["kernels", "--n", ",".join(str(n) for n in ns), "--basis", basis]
    return cli_op(" ".join(argv), argv, check_kernels(ns))


def synthesize_op(n: int, c: float, element: int, center: float, width: float, nodes: int) -> Op:
    argv = ["synthesize", "--n", str(n), "--c", repr(c), "--element", str(element),
            "--profile", f"gaussian:{center!r},{width!r}", "--nodes", str(nodes)]
    return cli_op(" ".join(argv), argv, check_all_pass)


def basic_control_op(n: int, c: float, column: int, center: float, width: float, nodes: int) -> Op:
    """Synthesise a basic solution from a ker(Q_minus) element of the n-edge star."""

    def call() -> dict:
        report = tr.compute_kernel_decomposition(n, basis=tr.EDGE)
        vec = report.bases["ker_Q_minus"][:, column]
        chi_hat, chi_check = tr.kernel_pair_matrices(vec, n, tr.EDGE)
        cfg = make_config(n, c)
        sol = syn.synthesize_basic_solution(
            cfg, chi_hat, chi_check, tau_sign=1,
            profile=syn.gaussian_bump(center, width), rule=syn.gauss_rule(nodes),
        )
        checks = vf.check_vertex_bc(sol, n, samples=60) + vf.check_diagonal_bc(sol, n, c, samples=60)
        return {"checks": [ch.to_dict() for ch in checks]}

    label = f"basic_solution n={n} c={c!r} column={column} gaussian:{center!r},{width!r} nodes={nodes}"
    return lib_op(label, call, check_basic_control)


def norm_limit_op(center: float, width: float, radii=NORM_RADII) -> Op:
    def call() -> dict:
        rows = []
        for R in radii:
            res = vf.check_norm_limit({(1, 1): syn.gaussian_bump(center, width)}, R)
            rows.append({"R": R, "lhs": res.lhs, "rhs": res.rhs,
                         "relative_error": res.relative_error, "converged": res.converged})
        return {"radii": rows}

    return lib_op(f"norm_limit gaussian:{center!r},{width!r} R={list(radii)}", call, check_norm_limit)


# ---------------------------------------------------------------------------
# workloads: (timed ops, untimed warm-up ops, one per layer the workload uses)


def verify_large(seed: int) -> tuple[list[Op], list[Op]]:
    rng = _rng("verify_large", seed)
    # the two n = 10 ops are the middle of the four by cost, so op_ref_p50
    # averages their latencies
    ops = [verify_op(n, draw_c(rng, 0.1, 3.0), draw_k1(rng, 0.05, 0.95), rng.randrange(2 ** 31))
           for n in (10, 10, 12)]
    ops.append(mutate_op(8, draw_c(rng, 0.3, 3.0), draw_k1(rng, 0.05, 0.95), rng.randrange(2 ** 31)))
    warm = [verify_op(3, 1.0, 0.6, 0), mutate_op(3, 1.0, 0.6, 0)]
    return ops, warm


def sweep_small(seed: int) -> tuple[list[Op], list[Op]]:
    rng = _rng("sweep_small", seed)
    ops = [verify_op(n, draw_c(rng, 1e-3, 3.0), draw_k1(rng, 0.02, 0.98), rng.randrange(2 ** 31))
           for _round in range(16) for n in (3, 4, 5)]
    ops += [verify_op(n, c, k1, 0, check=check_edge, known_defect=KNOWN_DEFECT) for n, c, k1 in EDGE_SLICE]
    return ops, [verify_op(3, 1.0, 0.6, 0)]


def synthesis(seed: int) -> tuple[list[Op], list[Op]]:
    rng = _rng("synthesis", seed)

    def profile():
        return round(rng.uniform(0.2, 0.5), 6), round(rng.uniform(0.06, 0.12), 6)

    # Elements are fixed per slot because their cost differs by up to 50 %.
    # By cost, the three 32-node n = 3 ops are the middle of the nine, so
    # op_ref_p50 is always the latency of one of them.
    ops = [
        synthesize_op(3, draw_c(rng, 0.3, 3.0), 9, *profile(), nodes=64),
        *(synthesize_op(3, draw_c(rng, 0.3, 3.0), element, *profile(), nodes=32) for element in (3, 6, 10)),
        synthesize_op(4, draw_c(rng, 0.3, 3.0), 14, *profile(), nodes=32),
        basic_control_op(4, draw_c(rng, 0.3, 3.0), rng.randrange(10), *profile(), nodes=48),
        norm_limit_op(*profile()),
        kernels_op(list(range(3, 17)), tr.SPECTRAL),
        kernels_op(sorted(rng.sample(range(3, 7), 3)), tr.EDGE),
    ]
    warm = [
        synthesize_op(3, 1.0, 9, 0.35, 0.08, nodes=4),
        basic_control_op(3, 1.0, 0, 0.3, 0.1, nodes=4),
        norm_limit_op(0.33, 0.12, radii=(10.0, 20.0)),
        # n = 5 and 6 take OpenBLAS's first-call stall, which belongs to set-up
        kernels_op([3, 4, 5, 6], tr.SPECTRAL),
        kernels_op([3, 4, 5, 6], tr.EDGE),
    ]
    return ops, warm


def tiny(seed: int) -> tuple[list[Op], list[Op]]:
    """Every layer at the smallest size, for ``selftest.py``; not a benchmark workload."""
    rng = _rng("tiny", seed)
    ops = [
        verify_op(3, draw_c(rng, 0.3, 3.0), draw_k1(rng, 0.05, 0.95), rng.randrange(2 ** 31)),
        mutate_op(3, 1.0, 0.6, 0),
        kernels_op([3], tr.SPECTRAL),
        kernels_op([3, 4], tr.EDGE),
        synthesize_op(3, 1.0, 9, 0.35, 0.08, nodes=4),
        basic_control_op(3, 1.0, 0, 0.3, 0.1, nodes=4),
        norm_limit_op(0.33, 0.12, radii=(10.0, 20.0)),
        verify_op(*EDGE_SLICE[1], 0, check=check_edge, known_defect=KNOWN_DEFECT),
    ]
    return ops, [verify_op(3, 1.0, 0.6, 0)]


WORKLOADS: dict[str, Callable[[int], tuple[list[Op], list[Op]]]] = {
    "verify_large": verify_large,
    "sweep_small": sweep_small,
    "synthesis": synthesis,
    "tiny": tiny,
}
