"""The package front: its lazy submodules, which are its only public names,
and its value types, which are all immutable."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ovfree

from conftest import random_realization

# every name the package re-exported before each object kept only its module's name
FORMER_EXPORTS = {
    "algebra": ["DEFAULT_TOL", "PSDReport", "dagger", "matrix_units", "psd_check"],
    "cpmaps": ["CPMap", "NotCompletelyPositiveError", "eta_minus_id_cp"],
    "converse": [
        "CounterexampleReport", "GNSModel", "NonpositivityCertificate", "NoWitnessError", "TupleDistribution",
        "Witness", "build_gns", "certify_nonpositive", "compression_cumulants", "counterexample_report",
        "find_witness", "pack_tuple", "unpack_tuple",
    ],
    "fock": ["FockOp", "FockSpace", "build_fock", "word_expectation"],
    "freeprod": ["MixedWord", "compressed_distribution", "evaluate"],
    "multimap": ["MultiMap"],
    "ncpart": ["NCPartition", "enumerate_nc"],
    "ovdist": [
        "OVDistribution", "Realization", "bernoulli", "cumulants_from_moments", "eta_power",
        "moments_from_cumulants", "moments_from_realization", "positivity_certificate", "semicircular",
    ],
    "serialize": [],
}


def _fresh(code):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_the_public_names_are_the_submodules():
    code = (
        "import sys, types\n"
        "import ovfree\n"
        "print(sorted(set(n for n in dir(ovfree) if not n.startswith('_')) - sys.stdlib_module_names))\n"
        "print(ovfree.__all__, ovfree.__version__)\n"
        "namespace = {}\n"
        "exec('from ovfree import *', namespace)\n"
        "bound = sorted(namespace.keys() - {'__builtins__'})\n"
        "print(bound, all(namespace[name] is sys.modules['ovfree.' + name] for name in bound))\n"
        "print([m for m in sys.modules if m.startswith('ovfree.') and type(sys.modules[m]) is types.ModuleType])\n"
    )
    submodules = sorted(FORMER_EXPORTS)
    assert _fresh(code) == f"{submodules}\n{tuple(submodules)} 0.1.0\n{submodules} True\n[]\n"
    assert not [name for names in FORMER_EXPORTS.values() for name in names if hasattr(ovfree, name)]


def test_assignment_and_deletion_on_an_unrun_module_stick():
    # each module is still unrun when it is assigned to or deleted from; its
    # source must run first, not afterwards over the new value
    code = (
        "from ovfree import algebra, ncpart, serialize\n"
        "print(type(algebra).__name__, type(ncpart).__name__, type(serialize).__name__)\n"
        "algebra.DEFAULT_TOL = 5.0\n"
        "del ncpart.MAX_GROUND_SET\n"
        "serialize.read_spec = 'patched'\n"
        "print(algebra.DEFAULT_TOL, hasattr(ncpart, 'MAX_GROUND_SET'), serialize.read_spec, serialize.FAST_READ_BYTES > 0)\n"
    )
    assert _fresh(code) == "_LazyModule _LazyModule _LazyModule\n5.0 False patched True\n"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ovfree.no_such_name
    with pytest.raises(ImportError):
        from ovfree import no_such_name  # noqa: F401


def test_import_runs_no_submodule_until_a_name_is_used():
    code = (
        "import sys, types\n"
        "import ovfree\n"
        "def ran():\n"
        "    return sorted(m[7:] for m in sys.modules if m.startswith('ovfree.') and type(sys.modules[m]) is types.ModuleType)\n"
        "print(len([m for m in sys.modules if m.startswith('ovfree.')]), ran())\n"
        "from ovfree.cpmaps import CPMap\n"
        "print(ran())\n"
    )
    assert _fresh(code) == "9 []\n['algebra', 'cpmaps']\n"


def test_threads_share_a_module_on_its_first_use():
    # four threads touch the same unrun module at once: each must wait for
    # the whole module, none may read it half run
    code = (
        "import threading, types\n"
        "import ovfree\n"
        "barrier, got = threading.Barrier(4), []\n"
        "def touch():\n"
        "    barrier.wait()\n"
        "    try:\n"
        "        got.append(ovfree.converse.counterexample_report.__name__)\n"
        "    except Exception as exc:\n"
        "        got.append(repr(exc))\n"
        "threads = [threading.Thread(target=touch) for _ in range(4)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join()\n"
        "print(sorted(got), type(ovfree.converse) is types.ModuleType)\n"
    )
    for _ in range(3):
        assert _fresh(code) == f"{['counterexample_report'] * 4} True\n"


def test_the_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    deviation, verdict = _fresh(code).splitlines()
    lam, level = verdict.split()
    assert float(deviation) < 1e-12
    assert float(lam) < 1 and level == "3"


def test_every_public_value_type_is_immutable():
    from ovfree import algebra, converse, cpmaps, fock, multimap, ncpart, ovdist

    report = converse.counterexample_report(cpmaps.CPMap.scaled_identity(1, 0.9))
    f = fock.build_fock(cpmaps.CPMap.identity(2), 2)
    values = [
        cpmaps.CPMap.identity(2), multimap.MultiMap(1, np.ones((1, 1))), ovdist.bernoulli(2),
        random_realization(np.random.default_rng(0)), algebra.psd_check(np.eye(2)), f, f.v_op(),
        report.witness, converse.build_gns(report.witness),
        report.nonpositivity, report, converse.unpack_tuple(ovdist.bernoulli(2), 1, 1), ncpart.enumerate_nc(3)[0],
    ]
    assert sorted(type(value).__name__ for value in values) == sorted([
        "CPMap", "MultiMap", "OVDistribution", "Realization", "PSDReport", "FockSpace", "FockOp",
        "Witness", "GNSModel", "NonpositivityCertificate", "CounterexampleReport", "TupleDistribution", "NCPartition",
    ])
    accepted = []
    for value in values:
        name = next(iter(vars(value)))  # the first attribute the constructor set
        for change in (lambda: setattr(value, name, None), lambda: delattr(value, name),
                       lambda: setattr(value, "added", None)):
            try:
                change()
            except AttributeError:
                continue
            accepted.append(type(value).__name__)
    assert accepted == []
