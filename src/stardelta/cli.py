"""Command-line front end: verification suites, kernel sweeps, synthesis.

Subcommands
-----------
verify      full-basis boundary-condition verification at one (n, c, k1)
kernels     kernel-dimension reports over a grid of n
sweep       residual sweep over an (n, c, k1) grid, CSV or JSON
synthesize  quadrature synthesis with gridded CSV export
mutate      amplitude-mutation detection sweep (negative controls)

Exit codes: 0 all checks passed, 1 a check failed, 2 bad configuration,
input or output path, refused before any work, or an array too large to
allocate.
Reports are flat JSON/CSV with a ``schema: 1`` marker and contain no
timestamps, so identical invocations produce byte-identical files.
``--seed`` seeds NumPy's PCG64 draws of the entries ``mutate`` perturbs;
``verify`` and ``sweep`` sample nothing at random and only record it.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import synthesis as syn
from . import transforms as tr
from . import verifier as vf
from .domain import SCHEMA, MomentumPair, Refusal, check_edge_count, make_config


def _nonempty(grid: list, text: str) -> list:
    if not grid:
        raise ValueError(f"empty grid {text!r}")
    return grid


def parse_int_grid(text: str) -> list[int]:
    """'3..8' -> [3..8]; '3,5,7' -> [3,5,7]; '4' -> [4]; an empty grid raises."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return _nonempty(list(range(int(lo), int(hi) + 1)), text)
    return _nonempty([int(p) for p in text.split(",") if p != ""], text)


def parse_float_grid(text: str) -> list[float]:
    """Comma list of floats; 'a..b:m' for m evenly spaced values; an empty grid raises."""
    if ".." in text:
        span, _, count = text.partition(":")
        lo, hi = (float(p) for p in span.split("..", 1))
        m = int(count) if count else 5
        return _nonempty([float(v) for v in np.linspace(lo, hi, m)], text)
    return _nonempty([float(p) for p in text.split(",") if p != ""], text)


def check_outputs(*paths) -> None:
    """Refuse, before any work, an output path that cannot be written.

    An existing directory or unwritable file is refused, and so is a path
    whose nearest existing ancestor is not a writable directory, so a run
    that exits 2 leaves no report beside an unwritable second output.
    Nothing is created here: the writers make the parent directories.
    """
    for path in map(Path, filter(None, paths)):
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        if path.exists() and not os.access(path, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
        ancestor = path.parent
        while not ancestor.exists():
            ancestor = ancestor.parent
        if not ancestor.is_dir():
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(path))
        if not os.access(ancestor, os.W_OK | os.X_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))


def _json_float(value: float) -> str:
    if -math.inf < value < math.inf:
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


# the text of each scalar type a report holds, looked up by exact type
_JSON_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, float: _json_float,
                 bool: lambda v: "true" if v else "false", type(None): lambda v: "null"}


def _json_text(payload, indent: str = "") -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)``, byte for byte,
    for a payload that starts at ``indent``.

    Reports hold dicts with str keys, lists, tuples, str, int, bool, None
    and float (NaN and the infinities as the stdlib writes them).  The
    stdlib encodes with its pure-Python encoder at any indent; this is the
    same rules without its options.  A :class:`~stardelta.verifier.TableRows`
    block is written from its columns (:func:`_table_rows_text`).  Any
    other type, a non-str key included, raises TypeError.
    """
    heads: dict[str, str] = {}  # the encoded '"key": ' of each key seen

    def encode(value, indent: str) -> str:
        scalar = _JSON_SCALARS.get(type(value))
        if scalar is not None:
            return scalar(value)
        inner = indent + "  "
        if isinstance(value, dict):
            parts = []
            for key in sorted(value):
                head = heads.get(key)
                if head is None:  # a key that is not a str raises TypeError here
                    head = heads[key] = encode_basestring_ascii(key) + ": "
                item = value[key]
                scalar = _JSON_SCALARS.get(type(item))
                parts.append(head + (scalar(item) if scalar else encode(item, inner)))
            brackets = "{}"
        elif isinstance(value, vf.TableRows) and value:
            parts = [_table_rows_text(value, inner)]
            brackets = "[]"
        elif isinstance(value, (list, tuple)):
            parts = [encode(item, inner) for item in value]
            brackets = "[]"
        else:  # a subclass of a scalar type, such as numpy.float64 of float
            scalar = next((_JSON_SCALARS[t] for t in (str, int, float) if isinstance(value, t)), None)
            if scalar is None:
                raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
            return scalar(value)
        if not parts:
            return brackets
        return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(parts) + f"\n{indent}{brackets[1]}"

    return encode(payload, indent)


@functools.lru_cache(maxsize=32)
def _row_pieces(kind: type, key, count: int, indent: str) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The text of a row of a :class:`~stardelta.verifier.TableRows` kind
    and key at this indent, split at its ``count`` values: the literal
    pieces, and between each two the number of the value that stands
    there, in the order of the kind's columns."""
    text = _json_text(kind.template(key, [f"@{k}@" for k in range(count)]), indent)
    pieces = re.split(r'"@(\d+)@"', text)  # literal text, then value number, alternately
    return tuple(pieces[::2]), tuple(int(k) for k in pieces[1::2])


def _float_texts(values: np.ndarray) -> np.ndarray:
    """The JSON text of every float of an array, each distinct value
    formatted once.  Values are told apart by their bits, so 0.0 and -0.0
    keep their own texts."""
    bits = np.ascontiguousarray(values, dtype=float).view(np.int64).ravel()
    distinct, at = np.unique(bits, return_inverse=True)
    texts = np.array([_json_float(v) for v in distinct.view(float).tolist()], dtype=object)
    return texts[at.ravel()].reshape(values.shape)


def _value_texts(values: np.ndarray) -> np.ndarray:
    """The JSON text of every value of an array of str, bool, int or float
    values."""
    if values.dtype == bool:
        return np.where(values, "true", "false")
    if values.dtype.kind == "f":
        return _float_texts(values)
    write = int.__repr__ if values.dtype.kind == "i" else encode_basestring_ascii
    return np.array([write(v) for v in values.ravel().tolist()], dtype=object).reshape(values.shape)


def _table_rows_text(rows: vf.TableRows, indent: str) -> str:
    """The rows at this indent, joined as a list writes its items, read
    from the rows' columns: one table of texts, whose columns are the
    literal pieces of the rows' text template (:func:`_row_pieces`) and the
    values between them, joined in one call."""
    blocks = [np.asarray(block).reshape(len(rows), -1) for block in rows.columns()]
    values = np.empty((len(rows), sum(block.shape[1] for block in blocks)), dtype=object)
    at = 0
    for block in blocks:
        values[:, at:at + block.shape[1]] = _value_texts(block)
        at += block.shape[1]
    literal, slots = _row_pieces(type(rows), rows.key, values.shape[1], indent)
    text = np.empty((len(rows), 2 * len(slots) + 2), dtype=object)  # piece, value, ..., piece, separator
    text[:, 0:-1:2] = literal
    text[:, 1:-1:2] = values[:, list(slots)]
    text[:, -1] = f",\n{indent}"
    text[-1, -1] = ""
    return "".join(text.ravel().tolist())


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_json_text(payload) + "\n")


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    cfg = make_config(args.n, args.c)
    m = MomentumPair.from_k1(args.k1)
    check_outputs(args.out)
    report = vf.verify_full_basis(cfg, m, samples=args.samples, tol=args.tol)
    payload = report.to_dict()
    payload["seed"] = args.seed
    if args.out:
        write_json(Path(args.out), payload)
    checks = payload["checks"]
    print(f"verify n={cfg.n} c={cfg.c} k1={args.k1}: "
          f"{sum(ch['pass'] for ch in checks)}/{len(checks)} checks pass, "
          f"{report.extras['element_count']} elements, rank {report.extras['rank']}")
    if not payload["overall"]:
        for ch in checks:
            if not ch["pass"]:
                print(f"  FAIL {ch['name']}: {ch['max_abs_residual']:.3e} > {ch['tolerance']:.1e}")
        return 1
    return 0


def cmd_kernels(args) -> int:
    ns = parse_int_grid(args.n)
    check_edge_count(min(ns))
    outs = [Path(args.out) / f"kernels_n{n}.json" if args.out else None for n in ns]
    check_outputs(*outs)
    # every n is computed before the first report is written, so a run that
    # exits 2 part way leaves no report behind
    payloads = [tr.compute_kernel_decomposition(n, basis=args.basis).to_dict(include_bases=args.include_bases)
                for n in ns]
    for out, payload in zip(outs, payloads):
        if out is not None:
            write_json(out, payload)
        dims = payload["dims"]
        print(f"kernels n={payload['n']}: {'PASS' if payload['pass'] else 'FAIL'} "
              f"(ker_Q_minus={dims['ker_Q_minus']}, ker_Q_plus={dims['ker_Q_plus']}, "
              f"K_minus={dims['K_minus']}, K_plus={dims['K_plus']}, total={payload['total']})")
    return 0 if all(payload["pass"] for payload in payloads) else 1


def cmd_sweep(args) -> int:
    ns, cs, k1s = parse_int_grid(args.n), parse_float_grid(args.c), parse_float_grid(args.k1)
    # every grid point is validated before the first verify
    points = [(make_config(n, c), k1, MomentumPair.from_k1(k1)) for n in ns for c in cs for k1 in k1s]
    vf.check_sampling(args.samples, args.tol)
    check_outputs(args.out)
    rows = []
    for cfg, k1, m in points:
        head = [cfg.n, repr(cfg.c), repr(k1)]
        try:
            report = vf.verify_full_basis(cfg, m, samples=args.samples, tol=args.tol)
        except Refusal as exc:  # a point the basis is not built at
            rows.append(head + ["-", "-", "", "", f"SKIPPED({exc.tag})"])
            continue
        # per (family, check): the worst residual (NaN if any is NaN) and
        # whether every element passed, read off the residual table
        table = report.elements
        families = np.array([label.partition("(")[0] for label in table.labels])
        checks = sorted(range(len(table.layout)), key=lambda k: table.layout[k][0])
        for family in sorted(set(families.tolist())):
            rows_of = families == family
            worst = table.residuals[rows_of].max(axis=0).tolist()
            passed = table.passed[rows_of].all(axis=0).tolist()
            for k in checks:
                name, _count, tolerance = table.layout[k]
                rows.append(head + [family, name, repr(worst[k]), repr(tolerance), "PASS" if passed[k] else "FAIL"])
        rank, expected = report.extras["rank"], report.extras["rank_expected"]
        rows.append(head + ["all", "basis_rank", str(rank), str(expected), "PASS" if rank == expected else "FAIL"])
    header = ["n", "c", "k1", "family", "check", "max_residual", "tolerance", "status"]
    if args.out:
        if args.format == "csv":
            write_csv(Path(args.out), header, rows)
        else:
            write_json(Path(args.out), {"schema": SCHEMA, "seed": args.seed,
                                        "rows": [dict(zip(header, r)) for r in rows]})
    failures = sum(1 for r in rows if r[-1] == "FAIL")
    print(f"sweep: {len(rows)} rows, {failures} failures")
    return 0 if failures == 0 else 1


def _parse_profile(text: str):
    kind, _, rest = text.partition(":")
    params = [float(p) for p in rest.split(",") if p != ""]
    # profile kind: constructor, fewest and most parameters
    make, lo, hi = {
        "gaussian": (syn.gaussian_bump, 2, 3),
        "indicator": (syn.indicator_profile, 2, 2),
        "poly": (lambda *coeffs: syn.polynomial_profile(coeffs), 1, float("inf")),
    }.get(kind, (None, 1, 0))
    if not lo <= len(params) <= hi:
        raise ValueError(f"bad profile {text!r} (use gaussian:c,w[,a] | indicator:a,b | poly:c0,c1,...)")
    return make(*params)


def cmd_synthesize(args) -> int:
    cfg = make_config(args.n, args.c)
    profile = _parse_profile(args.profile)
    vf.check_sampling(args.samples, args.tol)
    syn.check_grid(args.grid_span, args.grid_step)
    rule = syn.gauss_rule(args.nodes)
    check_outputs(args.out, args.grid_out)
    sol = syn.synthesize_eigensolution(cfg, {args.element: profile}, rule)
    checks = vf.check_vertex_bc(sol, cfg.n, samples=args.samples, tol=args.tol)
    checks += vf.check_diagonal_bc(sol, cfg.n, cfg.c, samples=args.samples, tol=args.tol)
    record = syn.refine_quadrature(sol)
    payload = {
        "schema": SCHEMA,
        "n": cfg.n,
        "c": cfg.c,
        "element": args.element,
        "profile": args.profile,
        "nodes": args.nodes,
        "checks": [ch.to_dict() for ch in checks],
        "refinement_change": record.max_change,
    }
    if args.out:
        write_json(Path(args.out), payload)
    if args.grid_out:
        write_csv(Path(args.grid_out), syn.GRID_HEADER, sol.grid_rows(span=args.grid_span, step=args.grid_step))
    worst = max(ch.max_abs_residual for ch in checks)
    print(f"synthesize: worst residual {worst:.3e}, refinement change {record.max_change:.3e}")
    return 0 if all(ch.passed for ch in checks) else 1


def cmd_mutate(args) -> int:
    cfg = make_config(args.n, args.c)
    m = MomentumPair.from_k1(args.k1)
    check_outputs(args.out)
    records = vf.mutation_sweep(
        cfg, m, rel=args.rel, per_element=args.per_element,
        detect_above=args.detect_above, seed=args.seed,
    )
    payload = {"schema": SCHEMA, "seed": args.seed, "relative_change": args.rel,
               "detect_above": args.detect_above, "mutations": records}
    if args.out:
        write_json(Path(args.out), payload)
    detected = sum(1 for r in records if r["detected"])
    print(f"mutate: {detected}/{len(records)} mutations detected "
          f"(threshold {args.detect_above:g})")
    return 0 if detected == len(records) else 1


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged and gives each call a namespace of its own."""
    parser = argparse.ArgumentParser(
        prog="stardelta",
        description="Eigenbasis construction and verification for two "
        "delta-interacting particles on a star graph",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--seed": dict(type=int, default=0, help="seeds mutate's draws; verify and sweep only record it"),
        "--tol": dict(type=float, default=vf.DEFAULT_TOL),
        "--samples": dict(type=int, default=vf.DEFAULT_SAMPLES),
        "--out": dict(type=str, default=None),
    }

    def common(p, *flags):
        # each subcommand takes only the shared options it reads
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    p = sub.add_parser("verify", help="verify the full basis at one parameter point")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--k1", type=float, required=True)
    common(p, "--seed", "--tol", "--samples", "--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("kernels", help="kernel-dimension reports over a grid of n")
    p.add_argument("--n", type=str, required=True, help="grid: 4 | 3,5 | 3..8")
    p.add_argument("--basis", choices=[tr.EDGE, tr.SPECTRAL], default=tr.SPECTRAL)
    p.add_argument("--include-bases", action="store_true")
    p.add_argument("--out", type=str, default=None, help="directory for per-n reports")
    p.set_defaults(func=cmd_kernels)

    p = sub.add_parser("sweep", help="residual sweep over an (n, c, k1) grid")
    p.add_argument("--n", type=str, required=True)
    p.add_argument("--c", type=str, required=True)
    p.add_argument("--k1", type=str, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    common(p, "--seed", "--tol", "--samples", "--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synthesize", help="quadrature synthesis with verification")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--element", type=int, default=0, help="basis element index")
    p.add_argument("--profile", type=str, default="gaussian:0.35,0.08")
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--grid-out", type=str, default=None, help="CSV of gridded values")
    p.add_argument("--grid-span", type=float, default=5.0)
    p.add_argument("--grid-step", type=float, default=1.0)
    common(p, "--tol", "--samples", "--out")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("mutate", help="single-amplitude mutation detection sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--k1", type=float, required=True)
    p.add_argument("--rel", type=float, default=vf.DEFAULT_REL)
    p.add_argument("--per-element", type=int, default=1)
    p.add_argument("--detect-above", type=float, default=vf.DEFAULT_DETECT_ABOVE)
    common(p, "--seed", "--out")
    p.set_defaults(func=cmd_mutate)

    # argparse's own pattern reads -1e6 or the grid -1e-3,2 as an option; a minus and a digit is a value
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
