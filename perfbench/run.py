"""stardelta benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 20 --trace 0

One process drives the public API in a closed loop with one client: ops
run one after another, each one ``stardelta.cli.main([...])`` call or one
library call, and every op's output is checked.  After set-up (imports
plus one untimed warm-up op per layer), the fixed op list of the
workload is run as timed passes until ``--seconds`` is spent; at least
one pass always runs, and no pass starts that would end past the budget.
The rest of the budget goes to the first ops of one more pass, each only
if it fits.  BLAS keeps its default thread count, which is recorded.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

* ``setup_s``: median, over seven fresh child processes, of the time
  from process start to ready (imports plus warm-up ops),
* ``wall_ref``: wall time of one pass over the op list, the sum of each
  op's mean latency, in reference chunks (see below),
* ``op_ref_p50``: median over the op list of each op's mean latency, each
  latency in reference chunks timed right after the op,
* ``peak_rss_mb``: peak resident memory of this process.

The host's speed drifts by tens of per cent over minutes, and the
program slows down with it.  So between ops a fixed pure-Python loop, a
"reference chunk", is timed for a few per cent of the run (``HostClock``
in ops.py), and the two timed metrics are given in units of its time on
the same host at the same stretch of the run.  The times in seconds,
``wall_s`` and ``op_s_p50``, and the chunk time are in the detail line.

With ``--trace 1`` untraced and traced passes alternate, and the last
line reports the per-layer metrics of ``tracer.LAYER_METRICS`` (values per
traced pass) plus ``trace.overhead_s``, the traced minus the untraced
mean pass time in seconds.  The line before the result carries the
details: environment, sample counts, every pass time, the tail latency,
``fail_frac`` (known defects included) and the first failure reasons.

Pass and op times are averaged over the run, not taken as medians: the
host's speed switches between a fast and a slow state every few tens of
seconds, and a median of samples from such a run jumps between the two
states where a mean moves in proportion to the time spent in each.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import stardelta from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "stardelta" / "__init__.py").is_file():
        raise SystemExit(f"error: no stardelta sources under {src}")
    sys.path.insert(0, str(src))
    import stardelta

    if Path(stardelta.__file__).resolve().parent != src / "stardelta":
        raise SystemExit(f"error: imported stardelta from {stardelta.__file__}, not {src}")


# ---------------------------------------------------------------------------
# environment record


def blas_threads():
    """OpenBLAS's own thread count, from the library NumPy loaded."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# set-up


def measure_setup(args) -> list[float]:
    """Time fresh processes from start until they report ready."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=ROOT)
        try:
            line = b""
            if select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)[0]:
                line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise SystemExit("error: set-up probe did not become ready")
        samples.append(ready)
    return samples


# ---------------------------------------------------------------------------
# metrics


def tail(values: list[float]) -> dict | None:
    """Highest order statistic with ten samples beyond it, and its percentile.

    Left out (None) below 20 samples, where it would sit near the median.
    """
    count = len(values)
    if count < 20:
        return None
    return {"value": sorted(values)[count - 11], "percentile": round(100.0 * (count - 10) / count, 1),
            "beyond": 10, "samples": count}


def op_means(op_times: list[float], ops_per_pass: int) -> list[float]:
    """Mean latency of each op of the list, over the passes of the run.

    ``op_times`` holds the latencies in the order the ops ran: whole passes,
    then possibly the first ops of one more.
    """
    return [statistics.fmean(op_times[i::ops_per_pass]) for i in range(ops_per_pass)]


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    # these import stardelta, so only once import_program has found it
    import tracer as tracing
    import workloads
    from ops import HostClock, Ledger, run_op, run_pass, warm_up

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    ops, warm_ops = workloads.WORKLOADS[args.workload](args.seed)
    outdir = OUT / args.workload

    if args.setup_probe:
        # only timed here; the main process checks the warm-up outputs
        warm_up(warm_ops, outdir / f"probe{os.getpid()}")
        print("ready", flush=True)
        return 0

    shutil.rmtree(outdir, ignore_errors=True)
    setup = measure_setup(args)
    warm_reasons = warm_up(warm_ops, outdir / "warm")

    ledger = Ledger()
    clock = HostClock()
    tracer = tracing.Tracer() if args.trace else None
    op_times: list[float] = []
    plain_passes: list[float] = []
    traced_passes: list[float] = []
    begin = time.perf_counter()
    while True:
        plain_passes.append(run_pass(ops, outdir, ledger, op_times, clock))
        if tracer is not None:
            tracer.op_id += 1
            tracer.install()
            try:
                traced_passes.append(run_pass(ops, outdir, ledger, []))
            finally:
                tracer.uninstall()
        per_round = statistics.fmean(plain_passes) + (statistics.fmean(traced_passes) if tracer else 0)
        if time.perf_counter() - begin + per_round > args.seconds:
            break
    ops_in_passes = len(op_times)
    if tracer is None:
        # Spend what is left of the budget on the first ops of one more pass,
        # each only if its mean latency still fits.  On verify_large, whose
        # pass is half the budget, this adds samples of the middle op.
        def fits(idx: int) -> bool:
            mean_s = statistics.fmean(op_times[idx::len(ops)])
            return time.perf_counter() - begin + mean_s <= args.seconds

        run_pass(ops, outdir, ledger, op_times, clock, fits)
    if ledger.attempted == len(ops):
        # no op has been repeated yet: repeat the cheapest to check determinism
        cheapest = min((i for i, op in enumerate(ops) if op.known_defect is None), key=lambda i: op_times[i])
        run_op(ops[cheapest], outdir / f"op{cheapest:02d}", ledger)
        ledger.repeats += 1
    else:
        ledger.repeats = ledger.attempted - len(ops)

    failed = ledger.failed + len(warm_reasons)
    # a pass is the sum of its ops, each averaged over all its runs
    wall_s = sum(op_means(op_times, len(ops)))
    op_s_p50 = statistics.median(op_means(op_times, len(ops)))
    # each op in reference chunks of the host speed measured right after it
    op_refs = [op_s / chunk_s for op_s, chunk_s in zip(op_times, clock.local)]
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed),
        "client": "closed loop, one client, sequential ops in one process",
        "passes": len(plain_passes),
        "extra_ops": len(op_times) - ops_in_passes,
        "traced_passes": len(traced_passes),
        "ops_per_pass": len(ops),
        "samples": {"setup_s": len(setup), "op_s_p50": len(op_times),
                    "per_op": [len(op_times[i::len(ops)]) for i in range(len(ops))]},
        "setup_samples_s": setup,
        "pass_s": plain_passes,
        "wall_s": wall_s,
        "op_s_p50": op_s_p50,
        "ref_chunk_s": clock.chunk_s(),
        "ref_chunks": clock.chunks,
        "op_s_tail": tail(op_times),
        "fail_frac": (ledger.failed + ledger.known_defects) / ledger.attempted,
        "fail_frac_base": ledger.attempted,
        "known_defect_fails": ledger.known_defects,
        "determinism_repeats": ledger.repeats,
        "failures": warm_reasons + ledger.reasons,
        "wait_metrics": "none: one process, one client, no queues",
    }

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_ref": (wall_s / clock.chunk_s(), "ref"),
            "op_ref_p50": (statistics.median(op_means(op_refs, len(ops))), "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        tracer.write_spans(outdir / "spans.csv")
        detail["spans"] = len(tracer.spans)
        layers = layer_metrics(tracer, ledger, len(plain_passes) + len(traced_passes), len(traced_passes))
        layers["trace.overhead_s"] = statistics.fmean(traced_passes) - statistics.fmean(plain_passes)
        metrics = {name: (layers[name], unit) for name, unit, _better, _moves in tracing.LAYER_METRICS}

    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def layer_metrics(tracer, ledger: Ledger, passes: int, traced: int) -> dict[str, float]:
    """Per traced pass: tracer totals, plus output counts averaged over all passes."""
    values = {name: value / traced for name, value in tracer.layer_values().items()}
    detected, tried = ledger.mutations
    values["verifier.mutations_detected_ratio"] = detected / tried if tried else 0.0
    values["verifier.mutations_attempted"] = tried / passes
    values["cli.report_bytes"] = ledger.report_bytes / passes
    for code in (0, 1, 2):
        values[f"cli.exit_code.{code}"] = ledger.exit_codes.get(code, 0) / passes
    return values


if __name__ == "__main__":
    sys.exit(main())
