"""Command-line interface.

    ovfree check-cp           --in <path> [--out <path>] [--tol T]
    ovfree convolve-power     --in <path> [--out <path>] [--order N]
    ovfree positivity         --in <path> [--out <path>] [--order N] [--level L] [--tol T]
    ovfree verify-realization --in <path> [--out <path>] [--order N] [--tol T]
    ovfree counterexample     --in <path> [--out <path>] [--level L] [--tol T]

Input and output are JSON; output is canonical (sorted keys, 12 significant
digits) so identical inputs give byte-identical files.  --order and --level
must be at least 1, --tol finite and above 0.  counterexample's --level is 4
by default and at least 3 (levels 1 and 2 never fail); its "nonpositivity" is
the first failing level up to L, or null.

Exit codes: 0 success, 2 input error (including an --out path that cannot be
written), 3 precondition violation (the emitted JSON then carries the
certificate; a map whose eta - id is not completely positive where that is
required, or a failed witness search, prints {"reason", "certificate"}).

The order is --order, else the spec's "order", else 6 for a realization and
the number of listed cumulants for a cumulant spec.  It is refused above 8 for
convolve-power and positivity and above 6 for verify-realization; the
environment variable OVFREE_MAX_ORDER, a positive integer, replaces both caps
(expert use only: runtimes grow exponentially).  positivity builds moments up
to order 2L - 2, all that level L reads.

The process freezes (gc.freeze) every object alive when main starts, and the
parsed input, which it reads with the cyclic collector paused: no
collection, during the command or at exit, traverses them again.  Reference
counting still frees the input once a command drops it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from typing import Optional

from . import converse, freeprod, ovdist
from .algebra import DEFAULT_TOL
from .cpmaps import NotCompletelyPositiveError, eta_minus_id_cp
from .serialize import (
    canonical_chunks,
    cumulants_from_spec,
    dist_from_spec,
    dist_to_spec,
    int_field,
    map_from_spec,
    psd_report_to_json,
    realization_from_spec,
    spec_k,
)

DEFAULT_ORDER = 6  # of a realization spec; a cumulant spec's is its number of cumulants
DEFAULT_LEVEL = 3
ORDER_CAP = 8
VERIFY_ORDER_CAP = 6
COUNTEREXAMPLE_LEVEL = 4
FLAGS = {"order": (int, None), "level": (int, DEFAULT_LEVEL), "tol": (float, DEFAULT_TOL)}

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3


class InputError(Exception):
    pass


def _load(path: str) -> dict:
    """The JSON object at path, parsed with the cyclic collector paused and
    then frozen: its lists are acyclic, and reference counting frees them,
    so a collection that traversed them would free nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON input {path}: {exc}") from exc
    finally:
        gc.freeze()
        if enabled:
            gc.enable()
    if not isinstance(spec, dict):
        raise InputError(f"JSON input {path} must be an object")
    return spec


def _emit(payload: dict, out: Optional[str]) -> None:
    """Write the canonical text of payload chunk by chunk, so the whole text
    is never held; a payload canonical_chunks refuses writes no byte."""
    chunks = canonical_chunks(payload)
    if out is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise InputError(f"cannot write output {out}: {exc}") from exc


def _cmd_check_cp(args) -> int:
    spec = _load(args.infile)
    eta = map_from_spec(spec)
    payload = {
        "k": eta.k,
        "eta": psd_report_to_json(eta.is_cp(args.tol)),
        "eta_minus_id": psd_report_to_json(eta_minus_id_cp(eta, args.tol)),
    }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_convolve_power(args) -> int:
    spec = _load(args.infile)
    dist_spec, map_spec = _parts(spec, "distribution", "map")
    cums, label = cumulants_from_spec(dist_spec, _order(dist_spec, args, ORDER_CAP))
    eta = map_from_spec(map_spec)
    del spec, dist_spec, map_spec  # frees the parsed input lists before the output is built
    k = cums[0].k
    if eta.k != k:
        raise InputError(f"dimension mismatch: map on M_{eta.k}, distribution over M_{k}")
    # the power's cumulants are eta composed with the given ones, and one
    # forward transform gives its moments
    twisted = [c.compose(eta) for c in cums]
    powered = ovdist.moments_from_cumulants(twisted, label=f"eta_power({label})")
    _emit(dist_to_spec(powered, cumulants=twisted), args.out)
    return EXIT_OK


def _cmd_positivity(args) -> int:
    spec = _load(args.infile)
    dist_spec = _parts(spec, "distribution")[0] if "distribution" in spec else spec
    order = _order(dist_spec, args, ORDER_CAP)
    read = max(1, min(order, 2 * args.level - 2))  # the level-L matrix reads orders up to 2L - 2
    if "realization" in dist_spec:
        dist = dist_from_spec(dist_spec, read)
    else:  # every cumulant up to the order is still read and checked
        dist = ovdist.moments_from_cumulants(cumulants_from_spec(dist_spec, order)[0][:read])
    report = ovdist.positivity_certificate(dist, args.level, args.tol)
    payload = {
        "k": dist.k,
        "level": args.level,
        "certificate": psd_report_to_json(report),
        "positive_up_to_level": report.is_psd,
    }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_verify_realization(args) -> int:
    spec = _load(args.infile)
    dist_spec, map_spec = _parts(spec, "distribution", "map")
    if "realization" not in dist_spec:
        raise InputError("verify-realization needs a realization-based distribution")
    order = _order(dist_spec, args, VERIFY_ORDER_CAP)
    eta = map_from_spec(map_spec)
    cp_report = eta_minus_id_cp(eta, args.tol)
    if not cp_report.is_psd:
        _emit(
            {
                "pass": False,
                "reason": "eta - id is not completely positive; see the counterexample command",
                "eta_minus_id": psd_report_to_json(cp_report),
            },
            args.out,
        )
        return EXIT_PRECONDITION
    r = realization_from_spec(spec_k(dist_spec), dist_spec["realization"])
    dist = ovdist.moments_from_realization(r, order)
    compressed = freeprod.compressed_distribution(r, eta, order, tol=args.tol)
    powered = ovdist.eta_power(dist, eta)
    deviation = compressed.max_deviation(powered)
    payload = {
        "order": order,
        "max_deviation": deviation,
        "pass": bool(deviation < 1e-8),
        "eta_minus_id": psd_report_to_json(cp_report),
    }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_counterexample(args) -> int:
    if args.level < 3:
        raise InputError(f"counterexample needs --level at least 3 (levels 1 and 2 never fail), got {args.level}")
    spec = _load(args.infile)
    eta = map_from_spec(spec.get("map", spec))
    report = converse.counterexample_report(eta, level=args.level, tol=args.tol)
    payload = {
        "eta_minus_id_cp": report.preserved,
        "eta_minus_id": psd_report_to_json(report.eta_minus_id),
        "witness": None,
        "lambda": report.lam,
        "nonpositivity": None,
    }
    if report.witness is not None:
        payload["witness"] = {
            "m": report.witness.m,
            "a": report.witness.a,
            "phi": report.witness.phi,
            "kappa": report.witness.kappa,
        }
    cert = report.nonpositivity
    if cert is not None and not cert.report.is_psd:
        payload["nonpositivity"] = {
            "level": cert.level,
            "min_eigenvalue": cert.report.min_eigenvalue,
            "witness_vector": cert.report.witness,
        }
    _emit(payload, args.out)
    return EXIT_OK


def _parts(spec: dict, *names: str) -> list:
    """The named parts of an input, each of which must be an object."""
    if not all(isinstance(spec.get(name), dict) for name in names):
        raise InputError("input must carry " + " and ".join(f"'{name}'" for name in names) + " objects")
    return [spec[name] for name in names]


def _order(dist_spec: dict, args, cap: int) -> int:
    """The one order rule: --order, else the spec's "order", else the spec's
    own default; refused above cap, which OVFREE_MAX_ORDER replaces."""
    value = os.environ.get("OVFREE_MAX_ORDER")
    if value:
        try:
            cap = int(value)
        except ValueError:
            cap = 0
        if cap < 1:
            raise InputError(f"OVFREE_MAX_ORDER must be a positive integer, got {value!r}")
    spec_k(dist_spec)
    default = DEFAULT_ORDER if "realization" in dist_spec else len(dist_spec["cumulants"])
    order = args.order if args.order is not None else int_field(dist_spec, "order", default)
    if order > cap:
        raise InputError(f"order {order} exceeds the hard guard {cap}; set OVFREE_MAX_ORDER to override")
    return order


def main(argv=None) -> int:
    """Run one command; returns its exit code.

    Every object alive when main is called, the interpreter's, numpy's and
    ovfree's import-time objects and an in-process caller's own, is frozen
    (gc.freeze) and so is the parsed input: no collection during the command
    or at exit traverses them again, and they are never collected.
    """
    gc.freeze()  # here, not only in _load: --help and usage errors never load
    parser = argparse.ArgumentParser(
        prog="ovfree", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, flags in (
        ("check-cp", _cmd_check_cp, ("tol",)),
        ("convolve-power", _cmd_convolve_power, ("order",)),
        ("positivity", _cmd_positivity, ("order", "level", "tol")),
        ("verify-realization", _cmd_verify_realization, ("order", "tol")),
        ("counterexample", _cmd_counterexample, ("level", "tol")),
    ):
        p = sub.add_parser(name)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", dest="out", default=None)
        for flag in flags:  # each command registers only the flags its handler reads
            kind, default = FLAGS[flag]
            p.add_argument(f"--{flag}", type=kind, default=default)
        p.set_defaults(handler=fn, **({"level": COUNTEREXAMPLE_LEVEL} if name == "counterexample" else {}))
    args = parser.parse_args(argv)
    tol = getattr(args, "tol", DEFAULT_TOL)
    try:
        try:
            if getattr(args, "order", None) is not None and args.order < 1:
                raise InputError(f"--order must be at least 1, got {args.order}")
            if getattr(args, "level", 1) < 1:
                raise InputError(f"--level must be at least 1, got {args.level}")
            if not (math.isfinite(tol) and tol > 0):
                raise InputError(f"--tol must be a finite number above 0, got {tol}")
            return args.handler(args)
        except (NotCompletelyPositiveError, converse.NoWitnessError) as exc:
            certificate = None if exc.report is None else psd_report_to_json(exc.report)
            _emit({"reason": str(exc), "certificate": certificate}, args.out)
            print(f"ovfree: {exc}", file=sys.stderr)
            return EXIT_PRECONDITION
    except (InputError, ValueError) as exc:
        print(f"ovfree: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
