"""Self-test of the benchmark harness at a tiny size.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that

1. BENCHMARK.json names exactly the metrics the harness computes,
2. a tiny run (``--workload tiny``) prints every end-to-end metric with
   its unit, and a traced one every per-layer metric, each layer with
   work recorded, and uninstalling the tracer restores every function,
3. the correctness gate is not vacuous: every check rejects a
   deliberately broken output, which the ledger counts as failed; among
   them a basis element with one amplitude scaled, pushed through the
   same vertex/diagonal check as a good one.

Exits 0 when everything holds, 1 with the failed checks listed otherwise.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.ROOT
failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def harness_line(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__).resolve()), "--workload", "tiny", "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    expect(proc.returncode == 0, f"tiny run --trace {trace} exits 0")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def check_printed_metrics(bench: dict) -> None:
    import tracer

    layer_names = [name for name, *_rest in tracer.LAYER_METRICS]
    expect([m["name"] for m in bench["per_layer"]] == layer_names,
           "BENCHMARK.json per_layer lists tracer.LAYER_METRICS in order")
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = harness_line(trace)
        expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
               f"--trace {trace}: result has exactly correct, attempted, failed, metrics")
        expect(result.get("correct") is True and result.get("failed") == 0,
               f"--trace {trace}: tiny run is correct")
        metrics = result.get("metrics", {})
        want = {m["name"]: m["unit"] for m in bench[section]}
        expect(sorted(metrics) == sorted(want), f"--trace {trace}: prints exactly the {section} metrics")
        for name, unit in want.items():
            got = metrics.get(name, {})
            expect(got.get("unit") == unit and isinstance(got.get("value"), (int, float))
                   and math.isfinite(got["value"]), f"--trace {trace}: {name} printed in {unit}")
        if trace == 1:
            # every layer the tiny workload reaches must show work
            idle = [name for name in want
                    if name.endswith((".calls", ".self_s", "_bytes", ".bytes", "_flops", "nodes_assembled"))
                    and name not in ("cli.exit_code.2",) and not metrics.get(name, {}).get("value")]
            expect(not idle, f"--trace 1: every layer records work (idle: {idle})")
            expect(metrics.get("verifier.mutations_detected_ratio", {}).get("value") == 1.0,
                   "--trace 1: mutation detection ratio is 1")
            expect(metrics.get("cli.exit_code.1", {}).get("value", 0) > 0,
                   "--trace 1: the known edge-slice defect shows as exit code 1")


def check_tracer_restores() -> None:
    import tracer

    import stardelta
    import stardelta.cli  # noqa: F401  (not imported by the package itself)

    modules = [m for key, m in sys.modules.items() if key.startswith("stardelta")]
    before = {(id(m), k): v for m in modules for k, v in vars(m).items() if callable(v)}
    before_methods = {k: v for k, v in vars(stardelta.domain.AmplitudeTensor).items()}
    t = tracer.Tracer()
    t.install()
    expect(stardelta.basis.build_basis is not before[(id(stardelta.basis), "build_basis")]
           and stardelta.verifier.build_basis is stardelta.basis.build_basis,
           "tracer wraps build_basis in every module that imported it")
    t.uninstall()
    after = {(id(m), k): v for m in modules for k, v in vars(m).items() if callable(v)}
    expect(all(after[key] is fn for key, fn in before.items()), "uninstall restores every module function")
    expect(dict(vars(stardelta.domain.AmplitudeTensor)) == before_methods, "uninstall restores methods")


def tiny_output(op) -> tuple[int, bytes]:
    from ops import prepare

    outdir = run.OUT / "selftest" / "gate"
    prepare(outdir)
    return op.run(outdir)


def rejected(op, code: int, data: bytes) -> bool:
    """The ledger counts this output of ``op`` as a failed op."""
    from ops import Ledger

    ledger = Ledger()
    ledger.record(op, code, data, None)
    return ledger.failed == 1


def edit(data: bytes, change) -> bytes:
    obj = json.loads(data)
    change(obj)
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def check_gate() -> None:
    import workloads as wl
    from ops import Ledger, lib_op

    from stardelta import verifier as vf
    from stardelta.basis import build_basis
    from stardelta.domain import MomentumPair, make_config

    verify = wl.verify_op(3, 1.0, 0.6, 0)
    code, data = tiny_output(verify)
    expect(not rejected(verify, code, data), "verify: good report accepted")
    expect(rejected(verify, 1, data), "verify: exit 1 rejected")
    expect(rejected(verify, code, edit(data, lambda r: r.update(overall=False))), "verify: overall false rejected")
    expect(rejected(verify, code, edit(data, lambda r: r.update(rank=r["rank"] - 1))), "verify: rank deficit rejected")

    ledger = Ledger()
    ledger.record(verify, code, data, None)
    ledger.record(verify, code, data.replace(b"\n", b" \n", 1), None)
    expect(ledger.failed == 1, "verify: repeat with different report bytes rejected")

    edge = wl.verify_op(*wl.EDGE_SLICE[1], 0, check=wl.check_edge, known_defect=wl.KNOWN_DEFECT)
    code, data = tiny_output(edge)
    ledger = Ledger()
    ledger.record(edge, code, data, None)
    expect(code in (0, 1, 2) and ledger.failed == 0, "edge slice: documented outcome not counted as failed")
    expect(rejected(edge, 0, edit(data, lambda r: r.update(overall=False))),
           "edge slice: exit 0 with failing checks rejected")

    mutate = wl.mutate_op(3, 1.0, 0.6, 0)
    code, data = tiny_output(mutate)
    expect(not rejected(mutate, code, data), "mutate: full detection accepted")
    expect(rejected(mutate, code, edit(data, lambda r: r["mutations"][0].update(detected=False))),
           "mutate: one undetected mutation rejected")
    expect(rejected(mutate, code, edit(data, lambda r: r["mutations"].pop())), "mutate: missing mutation rejected")

    kernels = wl.kernels_op([3, 4], "edge")
    code, data = tiny_output(kernels)
    expect(not rejected(kernels, code, data), "kernels: predicted dims accepted")

    def bump_dim(files):
        report = json.loads(files["kernels_n4.json"])
        report["dims"]["K_plus"] += 1
        files["kernels_n4.json"] = json.dumps(report)

    expect(rejected(kernels, code, edit(data, bump_dim)), "kernels: wrong dimension rejected")
    expect(rejected(kernels, code, edit(data, lambda f: f.pop("kernels_n3.json"))), "kernels: missing n rejected")

    synth = wl.synthesize_op(3, 1.0, 9, 0.35, 0.08, nodes=4)
    code, data = tiny_output(synth)
    expect(not rejected(synth, code, data), "synthesize: passing checks accepted")
    expect(rejected(synth, code, edit(data, lambda r: r["checks"][-1].update({"pass": False}))),
           "synthesize: failed check rejected")

    control = wl.basic_control_op(3, 1.0, 0, 0.3, 0.1, nodes=4)
    code, data = tiny_output(control)
    expect(not rejected(control, code, data), "basic control: vertex pass + jump fail accepted")

    def vacuous(report):
        for ch in report["checks"]:
            if ch["name"] == "diagonal_jump":
                ch.update({"pass": True, "max_abs_residual": 1e-12})

    expect(rejected(control, code, edit(data, vacuous)), "basic control: passing jump rejected")

    norm = wl.norm_limit_op(0.33, 0.12, radii=(10.0, 20.0))
    code, data = tiny_output(norm)
    expect(not rejected(norm, code, data), "norm limit: shrinking error accepted")
    expect(rejected(norm, code, edit(data, lambda r: r["radii"].reverse())), "norm limit: growing error rejected")

    # a single-entry-scaled tensor through the same check as the intact element
    cfg, m = make_config(3, 1.0), MomentumPair.from_k1(0.6)
    element = build_basis(cfg, m)[5]

    def solution_op(tensor, label):
        def call():
            sol = vf.TensorSolution(tensor, m)
            checks = vf.check_vertex_bc(sol, 3, samples=60) + vf.check_diagonal_bc(sol, 3, cfg.c, samples=60)
            return {"checks": [ch.to_dict() for ch in checks]}

        return lib_op(label, call, wl.check_all_pass)

    key = next(iter(element.tensor.items()))[0]
    good = solution_op(element.tensor, "intact element")
    bad = solution_op(element.tensor.with_scaled_entry(key, 1.0 + 1e-3), "scaled element")
    expect(not rejected(good, *tiny_output(good)), "intact basis element passes the solution check")
    expect(rejected(bad, *tiny_output(bad)), "single-entry-scaled tensor fails the solution check")


def main() -> int:
    run.import_program()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_printed_metrics(bench)
    check_tracer_restores()
    check_gate()
    print(f"{len(failures)} self-test failures" if failures else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
