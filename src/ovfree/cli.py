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
the first failing level up to L, or null.  Where no eigenvalue clears the
tolerance rule below, its certificate is the exact vector of
converse.certify_nonpositive.

One tolerance rule decides every verdict: x is zero against a matrix of
largest absolute entry s when |x| <= tol * max(1, s).  A matrix H is PSD
unless its smallest eigenvalue is negative and not zero against it, read at
each row's own scale: that of S = D^-1/2 H D^-1/2, D = diag(max(1, |h_ii|)),
against S's largest eigenvalue, so that a graded moment matrix hides no
negative block under its largest entries.
verify-realization passes when each order's deviation is zero against that
order's moments.

Exit codes: 0 success, 2 input error (including an --out path or a stdout,
such as a pipe whose reader exited, that cannot be written, and a result
that overflows to inf or NaN: nothing is written then),
3 precondition violation (the emitted JSON then carries the
certificate, and stderr gets its reason, "ovfree: <reason>"; a map whose
eta - id is not completely positive where that is required, or a failed
witness search, prints {"reason", "certificate"}).

The order is --order, else the spec's "order", else 6 for a realization and
the number of listed cumulants for a cumulant spec.  It is refused above 8 for
convolve-power and positivity and above 6 for verify-realization; the
environment variable OVFREE_MAX_ORDER, a positive integer, replaces both caps
(expert use only: runtimes grow exponentially).  positivity builds moments up
to order 2L - 2, all that level L reads, and counterexample builds its
certificate at that order, so its --level is refused where 2L - 2 is above 8
or OVFREE_MAX_ORDER.

An integer in the input outside [-2**63, 2**64) is read as the nearest
double.  An input nested too deep to read exits 2.

Each command compiles and runs only the ovfree modules it calls: --help
and argument errors, the --order, --level and --tol range errors included,
cli alone, without numpy; check-cp cli, serialize, cpmaps and algebra;
positivity and convolve-power also ovdist and multimap; counterexample also
converse; verify-realization also fock and freeprod.

The cyclic collector is off while a command runs, and the process freezes
(gc.freeze) every object alive at the end of main, so no collection, during
the command or at exit, traverses numpy, the ovfree modules or the parsed
input.  Reference counting still frees the input once a command drops it.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from typing import Optional

from . import algebra, converse, cpmaps, freeprod, ovdist, serialize

DEFAULT_ORDER = 6  # of a realization spec; a cumulant spec's is its number of cumulants
DEFAULT_LEVEL = 3
ORDER_CAP = 8
VERIFY_ORDER_CAP = 6
COUNTEREXAMPLE_LEVEL = 4
FLAGS = {"order": (int, None), "level": (int, DEFAULT_LEVEL), "tol": (float, None)}  # no --tol: algebra.DEFAULT_TOL

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3


def _refuse(exc, out: Optional[str]) -> int:
    """Exit 3 for a failed precondition: emit its reason and certificate."""
    certificate = None if exc.report is None else serialize.psd_report_to_json(exc.report)
    serialize.write_canonical({"reason": str(exc), "certificate": certificate}, out)
    print(f"ovfree: {exc}", file=sys.stderr)
    return EXIT_PRECONDITION


def _cmd_check_cp(args) -> int:
    spec = serialize.read_spec(args.infile)
    eta = serialize.map_from_spec(spec)
    payload = {
        "k": eta.k,
        "eta": serialize.psd_report_to_json(eta.is_cp(args.tol)),
        "eta_minus_id": serialize.psd_report_to_json(cpmaps.eta_minus_id_cp(eta, args.tol)),
    }
    serialize.write_canonical(payload, args.out)
    return EXIT_OK


def _cmd_convolve_power(args) -> int:
    spec = serialize.read_spec(args.infile)
    dist_spec, map_spec = _parts(spec, "distribution", "map")
    cums, label = serialize.cumulants_from_spec(dist_spec, _order(dist_spec, args, ORDER_CAP))
    eta = serialize.map_from_spec(map_spec)
    del spec, dist_spec, map_spec  # frees the parsed input lists before the output is built
    k = cums[0].k
    if eta.k != k:
        raise ValueError(f"dimension mismatch: map on M_{eta.k}, distribution over M_{k}")
    # the power's cumulants are eta composed with the given ones, and one
    # forward transform gives its moments
    twisted = [c.compose(eta) for c in cums]
    powered = ovdist.moments_from_cumulants(twisted, label=f"eta_power({label})")
    serialize.write_canonical(serialize.dist_to_spec(powered, twisted), args.out)
    return EXIT_OK


def _cmd_positivity(args) -> int:
    spec = serialize.read_spec(args.infile)
    dist_spec = _parts(spec, "distribution")[0] if "distribution" in spec else spec
    order = _order(dist_spec, args, ORDER_CAP)
    read = min(order, ovdist.level_order(args.level))
    if "realization" in dist_spec:
        dist = serialize.dist_from_spec(dist_spec, read)
    else:  # every cumulant up to the order is still read and checked
        dist = ovdist.moments_from_cumulants(serialize.cumulants_from_spec(dist_spec, order)[0][:read])
    report = ovdist.positivity_certificate(dist, args.level, args.tol)
    payload = {
        "k": dist.k,
        "level": args.level,
        "certificate": serialize.psd_report_to_json(report),
        "positive_up_to_level": report.is_psd,
    }
    serialize.write_canonical(payload, args.out)
    return EXIT_OK


def _cmd_verify_realization(args) -> int:
    spec = serialize.read_spec(args.infile)
    dist_spec, map_spec = _parts(spec, "distribution", "map")
    if "realization" not in dist_spec:
        raise ValueError("verify-realization needs a realization-based distribution")
    order = _order(dist_spec, args, VERIFY_ORDER_CAP)
    eta = serialize.map_from_spec(map_spec)
    cp_report = cpmaps.eta_minus_id_cp(eta, args.tol)
    if not cp_report.is_psd:
        reason = "eta - id is not completely positive; see the counterexample command"
        payload = {"pass": False, "reason": reason, "eta_minus_id": serialize.psd_report_to_json(cp_report)}
        serialize.write_canonical(payload, args.out)
        print(f"ovfree: {reason}", file=sys.stderr)
        return EXIT_PRECONDITION
    r = serialize.realization_from_spec(serialize.spec_k(dist_spec), dist_spec["realization"])
    dist = ovdist.moments_from_realization(r, order)
    compressed = freeprod.compressed_distribution(r, eta, order, tol=args.tol)
    powered = ovdist.eta_power(dist, eta)
    import numpy as np

    devs = [c.max_deviation(p) for c, p in zip(compressed.moments, powered.moments)]
    payload = {
        "order": order,
        "max_deviation": float(np.max(devs)),  # a NaN wins
        "pass": all(algebra.negligible(d, p.tensor, args.tol) for d, p in zip(devs, powered.moments)),
        "eta_minus_id": serialize.psd_report_to_json(cp_report),
    }
    serialize.write_canonical(payload, args.out)
    return EXIT_OK


def _cmd_counterexample(args) -> int:
    order, cap = ovdist.level_order(args.level), _cap(ORDER_CAP)
    if order > cap:  # the scaled-Bernoulli certificate is built at that order
        raise ValueError(f"order {order} of --level {args.level} exceeds the hard guard {cap}; "
                         "set OVFREE_MAX_ORDER to override")
    spec = serialize.read_spec(args.infile)
    eta = serialize.map_from_spec(spec.get("map", spec))
    report = converse.counterexample_report(eta, level=args.level, tol=args.tol)
    payload = {
        "eta_minus_id_cp": report.preserved,
        "eta_minus_id": serialize.psd_report_to_json(report.eta_minus_id),
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
    serialize.write_canonical(payload, args.out)
    return EXIT_OK


def _parts(spec: dict, *names: str) -> list:
    """The named parts of an input, each of which must be an object."""
    if not all(isinstance(spec.get(name), dict) for name in names):
        raise ValueError("input must carry " + " and ".join(f"'{name}'" for name in names) + " objects")
    return [spec[name] for name in names]


def _cap(cap: int) -> int:
    """The hard guard in force: cap, which OVFREE_MAX_ORDER replaces."""
    value = os.environ.get("OVFREE_MAX_ORDER")
    if value:
        try:
            cap = int(value)
        except ValueError:
            cap = 0
        if cap < 1:
            raise ValueError(f"OVFREE_MAX_ORDER must be a positive integer, got {value!r}")
    return cap


def _order(dist_spec: dict, args, cap: int) -> int:
    """The one order rule: --order, else the spec's "order", else the spec's
    own default; refused above cap, which OVFREE_MAX_ORDER replaces."""
    cap = _cap(cap)
    serialize.spec_k(dist_spec)
    default = DEFAULT_ORDER if "realization" in dist_spec else len(dist_spec["cumulants"])
    order = args.order if args.order is not None else serialize.int_field(dist_spec, "order", default)
    if order > cap:
        raise ValueError(f"order {order} exceeds the hard guard {cap}; set OVFREE_MAX_ORDER to override")
    return order


def main(argv=None) -> int:
    """Run one command; returns its exit code.

    The arguments are checked before numpy or any ovfree module but cli is
    run, so --help and argument errors never load them.  The cyclic
    collector is off while main runs; on the way out, --help and usage errors
    included, main freezes (gc.freeze) every object alive, an in-process
    caller's too, never to be traversed again, and restores the collector.
    """
    enabled = gc.isenabled()
    gc.disable()  # on again, if it was, once everything alive is frozen below
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
    try:
        args = parser.parse_args(argv)
        if getattr(args, "order", None) is not None and args.order < 1:
            raise ValueError(f"--order must be at least 1, got {args.order}")
        if getattr(args, "level", 1) < 1:
            raise ValueError(f"--level must be at least 1, got {args.level}")
        tol = getattr(args, "tol", None)
        if tol is not None and not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"--tol must be a finite number above 0, got {tol}")
        if args.command == "counterexample" and args.level < 3:
            raise ValueError(f"counterexample needs --level at least 3 (levels 1 and 2 never fail), got {args.level}")
        import numpy as np  # only now: --help and argument errors exit without it

        if "tol" in args and tol is None:
            args.tol = algebra.DEFAULT_TOL
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # write_canonical refuses what overflowed
                return args.handler(args)
        except algebra.PreconditionError as exc:
            return _refuse(exc, args.out)
    except ValueError as exc:
        print(f"ovfree: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        gc.freeze()
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
