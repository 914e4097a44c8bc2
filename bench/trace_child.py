"""Run one ovfree CLI job with timers around the public functions of each layer.

    python bench/trace_child.py <trace.json> <job id> <ovfree CLI arguments...>

Each listed function is replaced by a wrapper that records a span (name,
layer, start, end, parent, job id) and per-layer counters.  The wrapper is
bound under the function's name in every ovfree module that holds it, so a
call through ``from .x import f`` or through ``x.f`` is timed alike; methods
are replaced on their class.  Spans and counters stay in memory and are
written to <trace.json> after the CLI returns.  The CLI's stdout is untouched.
"""

from __future__ import annotations

import functools
import json
import sys
import time

SPANS: list = []
COUNTS: dict = {}
STACK: list = []

# (module, attribute, layer); a dotted attribute is a method on a class
TRACED = [
    ("ovfree.cli", "main", "cli"),
    ("ovfree.serialize", "map_from_spec", "serialize"),
    ("ovfree.serialize", "map_to_spec", "serialize"),
    ("ovfree.serialize", "realization_from_spec", "serialize"),
    ("ovfree.serialize", "dist_from_spec", "serialize"),
    ("ovfree.serialize", "dist_to_spec", "serialize"),
    ("ovfree.serialize", "psd_report_to_json", "serialize"),
    ("ovfree.serialize", "json_to_array", "serialize"),
    ("ovfree.serialize", "array_to_json", "serialize"),
    ("ovfree.serialize", "canonical_dumps", "serialize"),
    ("ovfree.ovdist", "cumulants_from_moments", "ovdist"),
    ("ovfree.ovdist", "moments_from_cumulants", "ovdist"),
    ("ovfree.ovdist", "eta_power", "ovdist"),
    ("ovfree.ovdist", "moments_from_realization", "ovdist"),
    ("ovfree.ovdist", "positivity_certificate", "ovdist"),
    ("ovfree.multimap", "moment_map", "multimap"),
    ("ovfree.multimap", "kappa_map", "multimap"),
    ("ovfree.ncpart", "enumerate_nc", "ncpart"),
    ("ovfree.cpmaps", "CPMap.is_cp", "cpmaps"),
    ("ovfree.cpmaps", "CPMap.kraus", "cpmaps"),
    ("ovfree.cpmaps", "eta_minus_id_cp", "cpmaps"),
    ("ovfree.fock", "build_fock", "fock"),
    ("ovfree.freeprod", "compressed_distribution", "freeprod"),
    ("ovfree.converse", "find_witness", "converse"),
    ("ovfree.converse", "build_gns", "converse"),
    ("ovfree.converse", "compression_cumulants", "converse"),
    ("ovfree.converse", "certify_nonpositive", "converse"),
    ("ovfree.converse", "counterexample_report", "converse"),
    ("ovfree.algebra", "psd_check", "algebra"),
]

# array_to_json recurses through its own module-level name; it is timed only
# where other modules call it, so one span covers one whole conversion.
OUTER_ONLY = {("ovfree.serialize", "array_to_json")}

FOCK_SPACES: list = []


def _bump(key: str, value: float = 1) -> None:
    COUNTS[key] = COUNTS.get(key, 0) + value


def _peak(key: str, value: float) -> None:
    COUNTS[key] = max(COUNTS.get(key, 0), value)


def _measure(layer: str, name: str, parent_layer, args, result) -> None:
    """Work counts read from a call's arguments and result."""
    if name == "enumerate_nc":
        _bump("ncpart.partitions", len(result))
    elif layer == "multimap":
        _peak("multimap.tensor_entries_max", result.tensor.size)
    elif name == "psd_check":
        dim = args[0].shape[0]
        _peak("algebra.psd_dim_max", dim)
        if parent_layer == "ovdist":
            _peak("ovdist.psd_dim_max", dim)
    elif name == "build_fock":
        FOCK_SPACES.append(result)


def _wrap(fn, layer: str, name: str, job: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span_id = len(SPANS)
        SPANS.append(None)
        parent, parent_layer = STACK[-1] if STACK else (None, None)
        STACK.append((span_id, layer))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            STACK.pop()
            SPANS[span_id] = (f"{layer}.{name}", layer, start, end, parent, job)
        _bump(f"{layer}.calls")
        _measure(layer, name, parent_layer, args, result)
        return result

    return traced


def install(job: str) -> None:
    modules = [m for key, m in sys.modules.items() if key == "ovfree" or key.startswith("ovfree.")]
    for modname, attr, layer in TRACED:
        home = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, meth, _wrap(getattr(cls, meth), layer, meth, job))
            continue
        original = getattr(home, attr)
        wrapper = _wrap(original, layer, attr, job)
        for mod in modules:
            if mod is home and (modname, attr) in OUTER_ONLY:
                continue
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)


def main() -> int:
    trace_path, job = sys.argv[1], sys.argv[2]
    t0 = time.perf_counter()
    import ovfree.cli  # the import itself is measured

    import_s = time.perf_counter() - t0
    install(job)
    code = ovfree.cli.main(sys.argv[3:])
    sys.stdout.flush()
    for f in FOCK_SPACES:  # read after the job, outside any span
        _peak("fock.D", f.D)
        _peak("fock.nnz", f.v_op().mat.nnz)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"job": job, "import_s": import_s, "spans": SPANS, "counts": COUNTS}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
