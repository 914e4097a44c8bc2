"""The names the traced benchmark relies on still exist.

bench/trace_child.py wraps a fixed list of functions and methods, and
BENCHMARK.json declares one src_lines.<module> metric per file of the
package.  This file only reads bench/; it fails when a cleanup of src/
removes or renames something the benchmark uses.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trace_child():
    spec = importlib.util.spec_from_file_location("trace_child", ROOT / "bench" / "trace_child.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    for modname, attr, _layer in _trace_child().TRACED:
        target = importlib.import_module(modname)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), (modname, attr)
    # trace_child reads f.v_op().mat.nnz of every module build_fock returns
    fock = importlib.import_module("ovfree.fock")
    psi = importlib.import_module("ovfree.cpmaps").CPMap.identity(2)
    assert isinstance(fock.build_fock(psi, 2).v_op().mat.nnz, int)


def test_cli_import_loads_every_traced_module():
    # trace_child.install looks each traced module up in sys.modules right
    # after `import ovfree.cli`; a module the CLI imported lazily would be
    # missing there and break a traced run
    modules = sorted({modname for modname, _attr, _layer in _trace_child().TRACED})
    code = f"import sys\nimport ovfree.cli\nprint([m for m in {modules!r} if m not in sys.modules])\n"
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_src_line_metrics_name_every_module():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"].split(".", 1)[1] for m in spec["per_layer"] if m["name"].startswith("src_lines.")}
    files = {p.stem for p in (ROOT / "src" / "ovfree").glob("*.py")}
    assert declared - {"total"} == files
