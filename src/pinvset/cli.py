"""Command-line surface: gen, synth, verify, bounds, report.

Exit codes: 0 success (and certificate passed where applicable),
1 verification failure, 2 usage error, 3 I/O or data-format error, or
out of memory, 4 an unexpected internal error.  No crash exits 1, so a
1 always means a refuted certificate.
Progress and diagnostics go to standard error as key=value lines; file
outputs and tables are the only stdout payloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import math
import os
import sys
import time
import warnings
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from . import bounds as bounds_mod
from .dataset import (
    SYSTEMS,
    DatasetError,
    SystemOracle,
    UnknownSystemError,
    gen_dyadic_grid,
    gen_uniform,
    get_system,
    load_dataset,
    save_dataset,
)
from .geometry import Rect, rect_to_cubes
from .render import load_overlay, render_tree_svg
from .results import (
    ResultFormatError,
    RunManifest,
    load_result,
    save_result,
)
from .synthesis import ConfigError, SynthConfig, UpdateMode, synthesize
from .tree import new_tree
from .verify import check_fixpoint, monte_carlo_invariance

logger = logging.getLogger("pinvset")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


class UsageError(ValueError):
    pass


def _parse_domain(spec: str) -> Rect:
    """Parse 'lo1,lo2:hi1,hi2' into a rectangle that equal cubes tile."""
    try:
        lo_s, hi_s = spec.split(":")
        lo = tuple(float(v) for v in lo_s.split(","))
        hi = tuple(float(v) for v in hi_s.split(","))
    except ValueError:
        raise UsageError(f"bad domain spec {spec!r}; expected 'lo1,lo2:hi1,hi2'") from None
    try:
        rect_to_cubes(lo, hi)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return lo, hi


def _file_system(name, path):
    """The builtin system a file's metadata names.  The value comes from
    the file, so one that is not a builtin's name is a data fault of that
    file (exit 3), not a usage error."""
    if type(name) is str:
        try:
            return get_system(name)
        except UnknownSystemError:
            pass
    raise DatasetError(f"{path}: metadata system={name!r} names no builtin system")


def _resolve_domain(args, dataset_meta: dict | None = None, path=None) -> Rect:
    if getattr(args, "domain", None):
        return _parse_domain(args.domain)
    if getattr(args, "system", None):
        return get_system(args.system).domain
    system = (dataset_meta or {}).get("system")
    if system is not None:
        return _file_system(system, path).domain
    raise UsageError("no domain: pass --domain or --system (or use a dataset with metadata)")


def cmd_gen(args) -> int:
    oracle = get_system(args.system)
    domain = _resolve_domain(args)
    if args.mode == "uniform":
        if args.m is None:
            raise UsageError("--m is required in uniform mode")
        dataset = gen_uniform(oracle, args.m, args.seed, domain)
    else:
        if args.tau is None:
            raise UsageError("--tau is required in grid mode")
        dataset = gen_dyadic_grid(oracle, args.tau, domain)
    save_dataset(dataset, args.out)
    logger.info(
        "event=gen system=%s mode=%s m=%d out=%s",
        oracle.name, args.mode, len(dataset), args.out,
    )
    return EXIT_OK


def cmd_synth(args) -> int:
    t0 = time.perf_counter()
    dataset = load_dataset(args.data)
    overlay = load_overlay(args.overlay) if args.overlay else None
    domain = _resolve_domain(args, dataset.metadata, args.data)
    config = SynthConfig(args.lipschitz, args.tau, UpdateMode(args.mode))
    tree = new_tree(domain, dataset)
    result = synthesize(tree, dataset, config)
    certificate = check_fixpoint(result)
    manifest = RunManifest(
        # A file name that is not UTF-8 holds surrogates, which JSON cannot
        # carry: its bytes are written with backslash escapes.
        command=" ".join(os.fsencode(a).decode("utf-8", "backslashreplace")
                         for a in args.argv_echo),
        dataset_sha256=dataset.sha256,
        dataset_meta=dataset.metadata,
        duration_s=time.perf_counter() - t0,
    )
    save_result(args.out, result, manifest)
    logger.info(
        "event=synth volume=%.12g sweeps=%d certified=%s out=%s",
        result.volume,
        result.sweeps,
        certificate.passed,
        args.out,
    )
    if args.svg:
        if tree.dim != 2:
            logger.warning("event=svg-skipped reason=dim dim=%d", tree.dim)
        else:
            Path(args.svg).write_text(render_tree_svg(tree, overlay=overlay), encoding="utf-8")
            logger.info("event=svg out=%s", args.svg)
    print(json.dumps({
        "volume": result.volume,
        "sweeps": result.sweeps,
        "leaf_counts": result.leaf_counts,
        "certified": certificate.passed,
        "out": str(args.out),
    }))
    return EXIT_OK if certificate.passed else EXIT_VERIFY_FAILED


def _json_number(value: float) -> float | str:
    """A finite float as is; NaN or an infinity as its repr, which strict
    JSON can carry only as a string."""
    return value if math.isfinite(value) else repr(value)


def _meta_value(manifest: RunManifest, key: str, kind: type):
    """``dataset_meta[key]``, or None when absent or null.  synth writes the
    dataset's comment metadata as it finds it, so a value of another type is
    a data fault of this file (ResultFormatError), found where it is read."""
    value = manifest.dataset_meta.get(key)
    if value is not None and type(value) is not kind:
        name = {int: "integer", str: "string"}[kind]
        raise ResultFormatError(f"dataset_meta.{key} {value!r} is not a JSON {name}")
    return value


def _domain_fault(root_bounds: Rect, oracle: SystemOracle) -> str | None:
    """Why the rectangle the roots tile does not lie inside the domain of
    the system ``oracle``, or None if it does."""
    (lo, hi), (domain_lo, domain_hi) = root_bounds, oracle.domain
    if len(lo) == len(domain_lo) and all(
        a <= b <= c <= d for a, b, c, d in zip(domain_lo, lo, hi, domain_hi)
    ):
        return None
    return (
        f"root_bounds {lo}..{hi} do not lie inside the domain "
        f"{tuple(domain_lo)}..{tuple(domain_hi)} of system {oracle.name}"
    )


def _domain_system(args, manifest: RunManifest) -> SystemOracle | None:
    """The system whose domain the roots must lie in: ``--system``, or the
    builtin that ``dataset_meta.system`` names.  Data collected elsewhere
    may name a system of its own; its rectangle is then trusted input."""
    if args.system:
        return get_system(args.system)
    name = manifest.dataset_meta.get("system")
    return SYSTEMS[name]() if type(name) is str and name in SYSTEMS else None


def cmd_verify(args) -> int:
    manifest, result = load_result(args.result)
    oracle = _domain_system(args, manifest)
    domain_fault = _domain_fault(result.tree.root_bounds, oracle) if oracle else None
    if domain_fault:
        logger.warning("event=domain-refused reason=%s", domain_fault)
    certificate = check_fixpoint(result)
    logger.info(
        "event=verify method=%s passed=%s checked=%d lipschitz=%r",
        certificate.method,
        certificate.passed,
        certificate.checked_leaves,
        result.config.lipschitz,
    )
    mc = None
    if args.monte_carlo:
        system = args.system or _meta_value(manifest, "system", str)
        if not system:
            raise UsageError("--monte-carlo needs --system (or dataset metadata in the result)")
        if not result.tree.n_included():
            logger.info("event=monte-carlo skipped=empty-set")
        else:
            oracle = oracle or _file_system(system, args.result)
            mc = monte_carlo_invariance(
                result.tree, oracle, args.monte_carlo, args.horizon, args.seed
            )
            logger.info(
                "event=monte-carlo passed=%s samples=%d horizon=%d first_failure=%s",
                mc.passed,
                args.monte_carlo,
                args.horizon,
                mc.first_failure,
            )
    report = {
        "passed": certificate.passed,
        "checked_leaves": certificate.checked_leaves,
        "first_failure": certificate.first_failure,
        "volume": _json_number(result.volume),
        # Trusted input: the certificate holds only if this bounds the map.
        "lipschitz": _json_number(result.config.lipschitz),
        # The rectangle the root cells tile: loading derives the roots from
        # it (its ``rect_to_cubes`` cubes), and with a known system it must
        # lie inside that system's domain.  Without one it is trusted input.
        "domain": [list(map(_json_number, corner)) for corner in result.tree.root_bounds],
        # Why verify refuses that rectangle, or null.
        "domain_refused": domain_fault,
        # The falsifier's verdict, or null when it did not run (no
        # --monte-carlo, or an empty set).
        "monte_carlo": None if mc is None else {
            "passed": mc.passed,
            "samples": args.monte_carlo,
            "horizon": args.horizon,
            "first_failure": mc.first_failure,
        },
    }
    print(json.dumps(report))
    passed = certificate.passed and (mc is None or mc.passed) and not domain_fault
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def cmd_bounds(args) -> int:
    """Print each bound, or ``# row: reason`` for one that is no float.  An
    input error exits 2 before any row; so does a table with no number."""
    vol, n, tau = args.vol, args.n, args.tau
    query = bounds_mod.BoundQuery(delta=args.delta, vol_domain=vol, dim=n, resolution=tau)
    try:
        query.validate()
    except bounds_mod.BoundRangeError:
        pass  # each uniform row prints it as its refusal
    rows = [
        (f"covering-{count}", partial(bounds_mod.covering_lower_bound, vol, n, tau, count))
        for count in ("cells", "balls")
    ] + [
        (form.value, partial(bounds_mod.uniform_sample_bound, query, form))
        for form in bounds_mod.BoundForm  # net-raw, synth-raw, canonical
    ]
    print(f"# vol={vol!r} n={n} resolution={tau!r} delta={args.delta!r}")
    refused = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", bounds_mod.FormulaSignWarning)
        for name, bound in rows:
            try:
                value = bound()
            except bounds_mod.BoundRangeError as exc:
                refused.append(exc)
                logger.warning("event=bound-refused row=%s reason=%s", name, exc)
                print(f"# {name}: {exc}")
            else:
                print(f"{name},{value!r}")
        anomalies = [str(w.message) for w in caught]
    if len(refused) == len(rows):
        raise refused[0]
    for msg in anomalies:
        logger.warning("event=bound-sign-anomaly detail=%s", msg)
        print(f"# warning: {msg}")
    return EXIT_OK


def cmd_report(args) -> int:
    paths = sorted(Path(args.dir).glob("*.json"))
    groups: dict[tuple, list[float]] = {}
    for path in paths:
        try:
            manifest, result = load_result(path)
            system = _meta_value(manifest, "system", str) or "unknown"
            m = _meta_value(manifest, "m", int)
        except (ResultFormatError, OSError) as exc:
            logger.warning("event=report-skip file=%s error=%s", path, exc)
            continue
        key = (system, m, result.config.tau)
        groups.setdefault(key, []).append(result.volume)
    if not groups:
        # Files that are there but unreadable are a data fault (exit 3);
        # no result files at all is a usage error (exit 2).
        error = ResultFormatError if paths else UsageError
        raise error(f"no readable result files under {args.dir}")
    header = "system,m,tau,runs,empty,vol_min,vol_q1,vol_median,vol_q3,vol_max"
    lines = [header]
    for key in sorted(groups, key=lambda k: (k[0], k[1] if k[1] is not None else -1, k[2])):
        vols = groups[key]
        qs = np.percentile(vols, [0, 25, 50, 75, 100])
        empty = sum(1 for v in vols if v == 0.0)
        lines.append(
            f"{key[0]},{key[1] if key[1] is not None else ''},{key[2]!r},"
            f"{len(vols)},{empty}," + ",".join(repr(float(q)) for q in qs)
        )
    table = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(table, encoding="utf-8")
        logger.info("event=report out=%s groups=%d", args.out, len(groups))
    print(table, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinvset",
        description="Synthesize and certify positively invariant sets from sampled data.",
    )
    parser.add_argument("--version", action="version", version=f"pinvset {__version__}")
    parser.add_argument("-q", "--quiet", action="store_true", help="suppress progress logs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a dataset from a builtin system")
    p.add_argument("--system", required=True, help="builtin system name")
    p.add_argument("--mode", choices=("uniform", "grid"), default="uniform")
    p.add_argument("--m", type=int, help="sample count (uniform mode)")
    p.add_argument("--tau", type=float, help="resolution floor (grid mode)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--domain", help="'lo1,lo2:hi1,hi2'; defaults to the system domain")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("synth", help="synthesize an invariant set from a dataset")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--domain", help="'lo1,lo2:hi1,hi2'")
    p.add_argument("--system", help="builtin system name (for its domain)")
    p.add_argument("--lipschitz", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--mode", choices=("sequential", "batch"), default="sequential")
    p.add_argument("--out", required=True, help="result JSON path")
    p.add_argument("--svg", help="optional SVG rendering path (2-D only)")
    p.add_argument("--overlay", help="CSV polyline drawn over the SVG")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="re-certify a result file")
    p.add_argument("result")
    p.add_argument("--monte-carlo", type=int, default=0, metavar="SAMPLES")
    p.add_argument("--horizon", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--system", help="oracle for the Monte Carlo check")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="evaluate sample-count bounds")
    p.add_argument("--vol", type=float, required=True, help="domain volume")
    p.add_argument("--n", type=int, required=True, help="state dimension")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.05)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("report", help="aggregate a directory of result files")
    p.add_argument("--dir", required=True)
    p.add_argument("--out", help="write the aggregate CSV here as well")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(message)s",
    )
    args.argv_echo = ["pinvset"] + argv
    # Reference counting frees what a command builds; the cyclic collector
    # would only traverse its many tree and result objects again and again.
    # A caller in the same process gets its own setting back.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (UsageError, UnknownSystemError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DatasetError, ResultFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # numpy's message names the allocation that failed.
        print(f"error: out of memory: {str(exc) or 'no detail'}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        # Python's own exit code for an uncaught exception is 1, which would
        # read as a refuted certificate.
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()


def run() -> None:
    """The ``pinvset`` script: ``main``, then exit with its code.

    Interpreter shutdown collects every object the collector tracks, which
    takes tens of milliseconds once numpy and the command's tree are
    loaded.  Frozen objects it leaves alone, and the process ends anyway.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
