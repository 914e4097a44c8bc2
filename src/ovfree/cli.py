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
written, and a result that overflows to inf or NaN: nothing is written then),
3 precondition violation (the emitted JSON then carries the
certificate; a map whose eta - id is not completely positive where that is
required, or a failed witness search, prints {"reason", "certificate"}).

The order is --order, else the spec's "order", else 6 for a realization and
the number of listed cumulants for a cumulant spec.  It is refused above 8 for
convolve-power and positivity and above 6 for verify-realization; the
environment variable OVFREE_MAX_ORDER, a positive integer, replaces both caps
(expert use only: runtimes grow exponentially).  positivity builds moments up
to order 2L - 2, all that level L reads.

Python's json parses every input's structure.  In an input of 1 MiB or
more that holds no backslash, each array field (a "choi", "X" or "state"
value, or an element of a "kraus" or "cumulants" list) of 4 KiB or more
whose text is a rectangular array of numbers, written compactly or with ", "
separators, is cut out and read by orjson as flat lists of numbers into an
ndarray, and json parses the rest.  Every other input, and every document
whose rest json refuses or that leaves any doubt, is read by json whole, so
the value read, the message and the exit code never depend on the route.
An integer outside [-2**63, 2**64) is read as the nearest double.  An input
nested too deep to read exits 2.

Each command compiles and runs only the ovfree modules it calls: --help
and argument errors, the --order, --level and --tol range errors included,
cli alone, without numpy; check-cp cli, serialize, cpmaps and algebra;
positivity and convolve-power also ovdist and multimap; counterexample also
converse; verify-realization also fock and freeprod.

The process freezes (gc.freeze) every object alive when main starts; once
the arguments are checked, numpy's and those of serialize, cpmaps and
algebra; and the parsed input, which it reads with the cyclic collector
paused: no collection, during the command or at exit, traverses them again.
Reference counting still frees the input once a command drops it.  A module
loaded after the last freeze stays tracked.
"""

from __future__ import annotations

import argparse
import gc
import json
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

# In inputs of this size or more the long array fields are read from their
# own text: importing orjson costs about 15 ms, which a smaller input never repays.
FAST_READ_BYTES = 1 << 20
# numpy arrays have at most 64 axes, which also bounds the work per site.
MAX_FAST_DEPTH = 64
# An array site, the value of a "choi", "X" or "state" field or an element of
# a "kraus" or "cumulants" list, whose text is this long or longer is read as
# flat lists of numbers; a shorter one does not repay the per-site work.
MIN_SITE_BYTES = 4096
# The elements of list fields are scanned for sites until this many in the
# document were shorter: k^2 Kraus operators at k <= 7 and the shorter
# cumulants (at most 3 for k >= 2) stay within it.
MAX_SHORT_ELEMENTS = 64
# A site's numbers are parsed in pieces of about this many bytes, so that no
# list of more than a piece's numbers is held.
FLAT_PIECE_BYTES = 1 << 20
_NUMBER = b"0123456789+-.eE"
_BLANK_BRACKETS = bytes.maketrans(b"[]", b"  ")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3


class InputError(Exception):
    pass


def _load(path: str) -> dict:
    """The JSON object at path, parsed with the cyclic collector paused and
    then frozen: its lists are acyclic, and reference counting frees them,
    so a collection that traversed them would free nothing.  Past
    FAST_READ_BYTES a long array field may hold the ndarray of its numbers
    instead of nested lists (see _loads_with_arrays); json_to_array reads
    either the same."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        spec = _parse(path)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"cannot read JSON input {path}: {exc}") from exc
    finally:
        gc.freeze()
        if enabled:
            gc.enable()
    if not isinstance(spec, dict):
        raise InputError(f"JSON input {path} must be an object")
    return spec


def _parse(path: str):
    """json decides every document.  Past FAST_READ_BYTES, in a file with
    no backslash, it parses the text left when each long array field is cut
    out (_loads_with_arrays); any doubt sends the whole file to json.load,
    so the value, message and exit code never depend on the route."""
    if os.stat(path).st_size >= FAST_READ_BYTES:
        with open(path, "rb") as fh:
            data = fh.read()
        spec = None if b"\\" in data else _loads_with_arrays(data)
        if spec is not None:
            return spec
        del data  # json reads the file again; the bytes need not stay alive
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_int=_parse_int)


def _loads_with_arrays(data: bytes):
    """json's value of data, with an ndarray in place of the nested lists of
    each array site that _site_array reads, or None if there is no such site
    or any doubt.  Each site becomes a placeholder, "\\u0000<i>", which no
    string of a document without a backslash can equal, and json parses the
    rest; None if it refuses that text (a message or position would name it,
    not data) or a placeholder is not found again in its field.  A site and
    its placeholder are both JSON values, so the text with placeholders is
    valid JSON exactly when data is."""
    sites = _array_sites(data)
    if not sites:
        return None
    parts, done = [], 0
    for i, (start, end, _) in enumerate(sites):
        parts += (data[done:start], b'"\\u0000%d"' % i)
        done = end
    parts.append(data[done:])
    # decoded as the text-mode read decodes (json.loads(bytes) would detect
    # UTF-16); an untranslated CR changes no valid document, only positions
    try:
        spec = json.loads(b"".join(parts).decode("utf-8"), parse_int=_parse_int)
        if _put_arrays(spec, [array for _, _, array in sites]) == len(sites):
            return spec
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError):
        pass
    return None


def _array_sites(data: bytes) -> list:
    """(start, end, array) of each site of MIN_SITE_BYTES or more that
    _site_array reads.  Such a site lies in a stretch of that many bytes or
    more between a key's closing quote and the next quote, so the candidate
    keys come from one numpy scan of the quotes, and a document in which
    every block of a quarter of that size holds a quote has none.  A site
    ends at the first run of as many ']' as it opens with."""
    import numpy as np

    is_quote = np.frombuffer(data, dtype=np.uint8) == ord('"')
    block = max(1, MIN_SITE_BYTES // 4)  # a longer gap holds a whole block of this size: none is free of quotes
    if is_quote[: len(data) - len(data) % block].reshape(-1, block).any(axis=1).all():
        return []
    quotes = np.flatnonzero(is_quote)
    del is_quote  # as large as data: not held while the sites are read
    gaps = np.diff(quotes, append=len(data))
    sites, short = [], 0
    for j in np.flatnonzero(gaps[1::2] > MIN_SITE_BYTES).tolist():  # after a closing quote: no escapes here
        opening, close = int(quotes[2 * j]), int(quotes[2 * j + 1])
        stop = close + int(gaps[2 * j + 1])  # the next quote, or the end of data
        is_list = serialize.ARRAY_FIELDS.get(data[opening + 1 : close].decode("latin-1"))
        if is_list is None or not data.startswith((b":[", b": ["), close + 1):
            continue
        start = data.index(b"[", close) + is_list  # the site, or the list's first element
        while short < MAX_SHORT_ELEMENTS:
            head = data[start : start + MAX_FAST_DEPTH + 1]
            depth = len(head) - len(head.lstrip(b"["))
            if not 0 < depth <= MAX_FAST_DEPTH:
                break
            end = data.find(b"]" * depth, start, stop)
            if end < 0:
                break
            end += depth
            if end - start < MIN_SITE_BYTES:
                short += 1
            else:
                array = _site_array(data, start, end, depth)
                if array is not None:
                    sites.append((start, end, array))
            if not is_list or data[end : end + 1] != b",":
                break
            start = end + 1 + (data[end + 1 : end + 2] == b" ")
    return sites


def _site_array(data: bytes, start: int, end: int, depth: int):
    """The array of the numbers in data[start:end], a site that opens with
    depth brackets, read as flat lists a piece at a time; None unless the
    site's text less its numbers is the canonical text of the shape its
    first path gives, with one separator, "," or ", ", throughout.  That text
    holds only brackets, commas and spaces, so a site holding anything else,
    such as true, null, a string, an object or a newline, is declined."""
    text = bytearray(memoryview(data)[start:end])
    structure = text.translate(None, _NUMBER)
    comma = structure.find(b",")
    sep = b", " if structure[comma + 1 : comma + 2] == b" " else b","
    shape, inner = [], 0  # inner: the length of an element of the level below
    for level in range(depth - 1, -1, -1):  # the first array of each level, innermost first
        size = structure.find(b"]" * (depth - level)) + depth - 2 * level  # 2 + n inner + (n - 1) len(sep)
        n, rest = divmod(size - 2 + len(sep), inner + len(sep))
        if rest or n < 1:
            return None
        shape.append(n)
        inner = size
    canonical = b""
    for n in shape:
        canonical = b"[" + sep.join([canonical] * n) + b"]"
    if canonical != structure:
        return None
    import numpy as np
    import orjson  # here, not at import: 15 ms that a small input never repays

    flat = text.translate(_BLANK_BRACKETS)
    del text
    try:  # orjson checks that each slot holds one number, and reshape that none is empty
        pieces = [np.array(orjson.loads(b"[" + piece + b"]")) for piece in _pieces(flat)]
        return np.concatenate(pieces).reshape(shape[::-1])  # numpy promotes the pieces' dtypes as it does the numbers'
    except (ValueError, TypeError, OverflowError):
        return None


def _pieces(flat: bytearray):
    """Views of flat split at the first comma after every FLAT_PIECE_BYTES:
    a piece's parse holds a list of its own numbers only."""
    view, lo = memoryview(flat), 0
    while lo < len(flat):
        hi = flat.find(b",", lo + FLAT_PIECE_BYTES) % (len(flat) + 1)  # the end if no comma follows
        yield view[lo:hi]
        lo = hi + 1


def _put_arrays(obj, arrays: list) -> int:
    """Put each array in place of its placeholder where an array field of
    obj, or of an object nested in obj through objects and lists that start
    with an object, holds it; returns the number put."""
    if not isinstance(obj, dict):
        return 0
    count = 0
    for key, value in obj.items():
        is_list = serialize.ARRAY_FIELDS.get(key)
        if is_list and isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, str) and item[:1] == "\0":
                    value[i] = arrays[int(item[1:])]
                    count += 1
        elif is_list is False and isinstance(value, str) and value[:1] == "\0":
            obj[key] = arrays[int(value[1:])]
            count += 1
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            count += sum(_put_arrays(item, arrays) for item in value)
        else:
            count += _put_arrays(value, arrays)
    return count


def _parse_int(text: str):
    """An integer literal, exact in [-2**63, 2**64) and elsewhere the nearest
    double: orjson reads a site's numbers so, and json must agree."""
    if len(text) > 20:  # outside that range, and int() refuses 4,300 digits or more
        return float(text)
    value = int(text)
    return value if -(1 << 63) <= value < 1 << 64 else float(text)


def _emit(payload: dict, out: Optional[str]) -> None:
    """Write the canonical text of payload chunk by chunk, so the whole text
    is never held; a payload canonical_chunks refuses, such as one holding
    inf or NaN, writes no byte."""
    chunks = serialize.canonical_chunks(payload)
    if out is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise InputError(f"cannot write output {out}: {exc}") from exc


def _refuse(exc, out: Optional[str]) -> int:
    """Exit 3 for a failed precondition: emit its reason and certificate."""
    certificate = None if exc.report is None else serialize.psd_report_to_json(exc.report)
    _emit({"reason": str(exc), "certificate": certificate}, out)
    print(f"ovfree: {exc}", file=sys.stderr)
    return EXIT_PRECONDITION


def _cmd_check_cp(args) -> int:
    spec = _load(args.infile)
    eta = serialize.map_from_spec(spec)
    payload = {
        "k": eta.k,
        "eta": serialize.psd_report_to_json(eta.is_cp(args.tol)),
        "eta_minus_id": serialize.psd_report_to_json(cpmaps.eta_minus_id_cp(eta, args.tol)),
    }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_convolve_power(args) -> int:
    spec = _load(args.infile)
    dist_spec, map_spec = _parts(spec, "distribution", "map")
    cums, label = serialize.cumulants_from_spec(dist_spec, _order(dist_spec, args, ORDER_CAP))
    eta = serialize.map_from_spec(map_spec)
    del spec, dist_spec, map_spec  # frees the parsed input lists before the output is built
    k = cums[0].k
    if eta.k != k:
        raise InputError(f"dimension mismatch: map on M_{eta.k}, distribution over M_{k}")
    # the power's cumulants are eta composed with the given ones, and one
    # forward transform gives its moments
    twisted = [c.compose(eta) for c in cums]
    powered = ovdist.moments_from_cumulants(twisted, label=f"eta_power({label})")
    _emit(serialize.dist_to_spec(powered, cumulants=twisted), args.out)
    return EXIT_OK


def _cmd_positivity(args) -> int:
    spec = _load(args.infile)
    dist_spec = _parts(spec, "distribution")[0] if "distribution" in spec else spec
    order = _order(dist_spec, args, ORDER_CAP)
    read = max(1, min(order, 2 * args.level - 2))  # the level-L matrix reads orders up to 2L - 2
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
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_verify_realization(args) -> int:
    spec = _load(args.infile)
    dist_spec, map_spec = _parts(spec, "distribution", "map")
    if "realization" not in dist_spec:
        raise InputError("verify-realization needs a realization-based distribution")
    order = _order(dist_spec, args, VERIFY_ORDER_CAP)
    eta = serialize.map_from_spec(map_spec)
    cp_report = cpmaps.eta_minus_id_cp(eta, args.tol)
    if not cp_report.is_psd:
        _emit(
            {
                "pass": False,
                "reason": "eta - id is not completely positive; see the counterexample command",
                "eta_minus_id": serialize.psd_report_to_json(cp_report),
            },
            args.out,
        )
        return EXIT_PRECONDITION
    r = serialize.realization_from_spec(serialize.spec_k(dist_spec), dist_spec["realization"])
    dist = ovdist.moments_from_realization(r, order)
    compressed = freeprod.compressed_distribution(r, eta, order, tol=args.tol)
    powered = ovdist.eta_power(dist, eta)
    deviation = compressed.max_deviation(powered)
    payload = {
        "order": order,
        "max_deviation": deviation,
        "pass": bool(deviation < 1e-8),
        "eta_minus_id": serialize.psd_report_to_json(cp_report),
    }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_counterexample(args) -> int:
    spec = _load(args.infile)
    eta = serialize.map_from_spec(spec.get("map", spec))
    try:
        report = converse.counterexample_report(eta, level=args.level, tol=args.tol)
    except converse.NoWitnessError as exc:  # caught here: naming it anywhere else would load converse
        return _refuse(exc, args.out)
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
    serialize.spec_k(dist_spec)
    default = DEFAULT_ORDER if "realization" in dist_spec else len(dist_spec["cumulants"])
    order = args.order if args.order is not None else serialize.int_field(dist_spec, "order", default)
    if order > cap:
        raise InputError(f"order {order} exceeds the hard guard {cap}; set OVFREE_MAX_ORDER to override")
    return order


def main(argv=None) -> int:
    """Run one command; returns its exit code.

    The arguments are checked before numpy or any ovfree module but cli is
    run, so --help and argument errors never load them.  Every object alive
    when main is called, the interpreter's, cli's and an in-process caller's
    own, is frozen (gc.freeze), then numpy's and those of the modules every
    command runs once they are loaded, and then the parsed input: no
    collection during the command or at exit traverses them again, and they
    are never collected.
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
    try:
        if getattr(args, "order", None) is not None and args.order < 1:
            raise InputError(f"--order must be at least 1, got {args.order}")
        if getattr(args, "level", 1) < 1:
            raise InputError(f"--level must be at least 1, got {args.level}")
        tol = getattr(args, "tol", None)
        if tol is not None and not (math.isfinite(tol) and tol > 0):
            raise InputError(f"--tol must be a finite number above 0, got {tol}")
        if args.command == "counterexample" and args.level < 3:
            raise InputError(f"counterexample needs --level at least 3 (levels 1 and 2 never fail), got {args.level}")
        import numpy as np  # only now: --help and argument errors exit without it

        if "tol" in args and tol is None:
            args.tol = algebra.DEFAULT_TOL
        serialize.ARRAY_FIELDS  # runs serialize, and so cpmaps and algebra: every command runs the three
        gc.freeze()  # their objects and numpy's, as the first freeze did when cli imported them
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # _emit refuses what overflowed
                return args.handler(args)
        except cpmaps.NotCompletelyPositiveError as exc:
            return _refuse(exc, args.out)
    except (InputError, ValueError) as exc:
        print(f"ovfree: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
