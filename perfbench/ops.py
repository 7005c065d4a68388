"""Ops and the ledger of their outcomes.

An op is one ``stardelta.cli.main([...])`` invocation or, where the CLI
does not reach, one library call.  It runs in its own directory and
returns ``(exit code, report bytes)``; its check reads those bytes and
returns ``None`` when the output is correct, or the reason it is not.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from stardelta import cli


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[Path], tuple[int, bytes]]
    check: Callable[[int, bytes], str | None]
    # the check's reason that marks a documented defect rather than a failure
    known_defect: str | None = None
    via_cli: bool = True


def read_json(data: bytes):
    try:
        return json.loads(data)
    except ValueError:
        return None


def _read_report(target: Path) -> bytes:
    """Report bytes; a directory of reports becomes a JSON object keyed by file name."""
    if target.is_dir():
        files = {p.name: p.read_text() for p in sorted(target.iterdir())}
        return (json.dumps(files, sort_keys=True) + "\n").encode()
    return target.read_bytes() if target.exists() else b""


def cli_op(label: str, argv: list[str], check, known_defect: str | None = None) -> Op:
    """Op that runs ``stardelta <argv> --out <op dir>/report`` in-process."""

    def run(outdir: Path) -> tuple[int, bytes]:
        target = outdir / "report"
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            code = cli.main([*argv, "--out", str(target)])
        return code, _read_report(target)

    return Op(label, run, check, known_defect)


def lib_op(label: str, call: Callable[[], dict], check) -> Op:
    """Op that makes library calls and serialises what they return."""

    def run(outdir: Path) -> tuple[int, bytes]:
        data = (json.dumps(call(), sort_keys=True) + "\n").encode()
        (outdir / "report").write_bytes(data)
        return 0, data

    return Op(label, run, check, via_cli=False)


def prepare(outdir: Path) -> None:
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)


class Ledger:
    """Outcome of every op run: counts, failure reasons, report digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known_defects = 0
        self.reasons: list[str] = []
        self.digests: dict[str, str] = {}
        self.repeats = 0
        self.exit_codes: dict[int, int] = {}
        self.report_bytes = 0
        self.mutations = [0, 0]  # detected, attempted

    def record(self, op, code, data, error) -> None:
        self.attempted += 1
        reason = error
        if reason is None:
            reason = op.check(code, data)
            digest = hashlib.sha256(data).hexdigest()
            if self.digests.setdefault(op.label, digest) != digest:
                reason = "report bytes differ between repeats of one op"
        if reason is not None and reason == op.known_defect:
            self.known_defects += 1
        elif reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{op.label}: {reason}")
        if op.via_cli and code is not None:
            self.exit_codes[code] = self.exit_codes.get(code, 0) + 1
            self.report_bytes += len(data)
        if op.label.startswith("mutate "):
            records = (read_json(data) or {}).get("mutations", [])
            self.mutations[0] += sum(1 for r in records if r.get("detected"))
            self.mutations[1] += len(records)


def run_op(op, outdir: Path, ledger: Ledger) -> float:
    """Run one op, check its output, and return its latency in seconds."""
    prepare(outdir)
    code, data, error = None, b"", None
    start = time.perf_counter()
    try:
        code, data = op.run(outdir)
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        error = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    ledger.record(op, code, data, error)
    return elapsed


# One reference chunk is a fixed pure-Python loop of a few milliseconds.
REFERENCE_ITERATIONS = 50_000
# Share of each op's time spent timing reference chunks right after it.
REFERENCE_SHARE = 0.04


def reference_chunk() -> int:
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return total


class HostClock:
    """Host speed over a run, from a fixed loop timed between ops.

    The host's speed drifts by tens of per cent over minutes, and the
    program and a pure-Python loop slow down together.  After each op the
    loop runs for ``REFERENCE_SHARE`` of the op's time (at least one
    chunk), so the samples weight the run's stretches by their length.
    ``local`` keeps the chunk time measured right after each op.  The
    loop uses nothing of the program, so no program change moves it.
    """

    def __init__(self):
        self.chunks = 0
        self.seconds = 0.0
        self.local: list[float] = []

    def sample(self, op_seconds: float) -> float:
        """Run reference chunks after an op; return the time they took."""
        start = time.perf_counter()
        count = 0
        while True:
            reference_chunk()
            count += 1
            spent = time.perf_counter() - start
            if spent >= REFERENCE_SHARE * op_seconds:
                break
        self.chunks += count
        self.seconds += spent
        self.local.append(spent / count)
        return spent

    def chunk_s(self) -> float:
        return self.seconds / self.chunks


def run_pass(ops, outdir: Path, ledger: Ledger, op_times: list[float], clock: HostClock | None = None,
             fits: Callable[[int], bool] | None = None) -> float:
    """Run the op list once, or up to the first op that ``fits`` rejects.

    Returns the wall time, reference chunks excluded.
    """
    start = time.perf_counter()
    sampled = 0.0
    for idx, op in enumerate(ops):
        if fits is not None and not fits(idx):
            break
        elapsed = run_op(op, outdir / f"op{idx:02d}", ledger)
        op_times.append(elapsed)
        if clock is not None:
            sampled += clock.sample(elapsed)
    return time.perf_counter() - start - sampled


def warm_up(ops: list[Op], outdir: Path) -> list[str]:
    """Run each op once, untimed; return the reasons of any that failed."""
    ledger = Ledger()
    for idx, op in enumerate(ops):
        run_op(op, outdir / f"warm{idx}", ledger)
    return ledger.reasons
