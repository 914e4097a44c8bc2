"""Command-line interface.

    ovfree <command> --in <path> [--out <path>] [--order N] [--level L] [--tol T]

Commands: check-cp, convolve-power, positivity, verify-realization,
counterexample.  Input and output are JSON; output is canonical (sorted keys,
12 significant digits) so identical inputs give byte-identical files.

Exit codes: 0 success, 2 input error, 3 precondition violation (the emitted
JSON then carries the certificate).

The environment variable OVFREE_MAX_ORDER raises the hard order guard of the
freeness-recursion commands; expert use only, runtimes grow exponentially.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import converse, freeprod, ovdist
from .algebra import DEFAULT_TOL
from .cpmaps import eta_minus_id_cp, is_cp
from .serialize import (
    canonical_dumps,
    cumulants_from_spec,
    dist_from_spec,
    dist_to_spec,
    gc_paused,
    int_field,
    map_from_spec,
    psd_report_to_json,
    realization_from_spec,
)

DEFAULT_ORDER = 6
DEFAULT_LEVEL = 3
ORDER_CAP = 8

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3


class InputError(Exception):
    pass


def _load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh, gc_paused():
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON input {path}: {exc}") from exc
    if not isinstance(spec, dict):
        raise InputError(f"JSON input {path} must be an object")
    return spec


def _emit(payload: dict, out: Optional[str]) -> None:
    text = canonical_dumps(payload)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _max_order() -> Optional[int]:
    value = os.environ.get("OVFREE_MAX_ORDER")
    return int(value) if value else None


def _cmd_check_cp(args) -> int:
    spec = _load(args.infile)
    eta = map_from_spec(spec)
    payload = {
        "k": eta.k,
        "eta": psd_report_to_json(is_cp(eta, args.tol)),
        "eta_minus_id": psd_report_to_json(eta_minus_id_cp(eta, args.tol)),
    }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_convolve_power(args) -> int:
    spec = _load(args.infile)
    dist_spec, map_spec = _parts(spec, "distribution", "map")
    cums, label = cumulants_from_spec(_with_order(dist_spec, args))
    eta = map_from_spec(map_spec)
    del spec, dist_spec, map_spec  # frees the parsed input lists before the output is built
    k = cums[0].k
    if eta.k != k:
        raise InputError(f"dimension mismatch: map on M_{eta.k}, distribution over M_{k}")
    # the power's cumulants are eta composed with the given ones, and one
    # forward transform gives its moments
    twisted = [c.compose(eta) for c in cums]
    powered = ovdist.moments_from_cumulants(twisted, k=k, label=f"eta_power({label})")
    _emit(dist_to_spec(powered, cumulants=twisted), args.out)
    return EXIT_OK


def _cmd_positivity(args) -> int:
    spec = _load(args.infile)
    dist_spec = _parts(spec, "distribution")[0] if "distribution" in spec else spec
    dist = dist_from_spec(_with_order(dist_spec, args))
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
    order = _order_of(dist_spec, args)
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
    cap = _max_order()
    max_order = max(freeprod.MAX_COMPRESSED_ORDER, cap) if cap else None
    r = realization_from_spec(int_field(dist_spec, "k"), dist_spec["realization"])
    dist = ovdist.moments_from_realization(r, order)
    compressed = freeprod.compressed_distribution(r, eta, order, tol=args.tol, max_order=max_order)
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
    spec = _load(args.infile)
    eta = map_from_spec(spec.get("map", spec))
    report = converse.counterexample_report(eta, level=max(args.level, 4), tol=args.tol)
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
    if report.nonpositivity is not None:
        cert = report.nonpositivity
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


def _order_of(dist_spec: dict, args) -> int:
    order = args.order if args.order is not None else int_field(dist_spec, "order", DEFAULT_ORDER)
    cap = _max_order() or ORDER_CAP
    if order > cap:
        raise InputError(f"order {order} exceeds the hard guard {cap}; set OVFREE_MAX_ORDER to override")
    return order


def _with_order(dist_spec: dict, args) -> dict:
    if args.order is None and "order" not in dist_spec:
        return dist_spec
    return {**dist_spec, "order": _order_of(dist_spec, args)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ovfree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("check-cp", _cmd_check_cp),
        ("convolve-power", _cmd_convolve_power),
        ("positivity", _cmd_positivity),
        ("verify-realization", _cmd_verify_realization),
        ("counterexample", _cmd_counterexample),
    ):
        p = sub.add_parser(name)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", dest="out", default=None)
        p.add_argument("--order", type=int, default=None)
        p.add_argument("--level", type=int, default=DEFAULT_LEVEL)
        p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        p.set_defaults(handler=fn)
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (InputError, ValueError) as exc:
        print(f"ovfree: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
