"""The package front: its lazy submodules and the names it re-exports."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ovfree

# every name ovfree re-exported when it imported its submodules eagerly
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


@pytest.mark.parametrize("module", sorted(FORMER_EXPORTS))
def test_every_former_re_export_resolves(module):
    home = importlib.import_module(f"ovfree.{module}")
    assert getattr(ovfree, module) is home
    for name in FORMER_EXPORTS[module]:
        assert getattr(ovfree, name) is getattr(home, name)
        assert name in dir(ovfree) and name in ovfree.__all__
    namespace = {}
    exec("from ovfree import *", namespace)
    assert namespace[module] is home and all(namespace[name] is getattr(home, name) for name in FORMER_EXPORTS[module])


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
        "from ovfree import CPMap\n"
        "print(ran())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "9 []\n['algebra', 'cpmaps']\n"


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
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{['counterexample_report'] * 4} True\n"
