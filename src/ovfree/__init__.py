"""Operator-valued free probability over matrix algebras A = M_k(C).

Moment/cumulant transforms over non-crossing partitions, eta-convolution
powers, an exact truncated Fock-module compression model, a freeness-axiom
mixed-moment evaluator, block moment-matrix positivity certificates, and the
counterexample pipeline for maps whose difference from the identity fails to
be completely positive.

Importing the package puts every submodule but cli in sys.modules at once,
as a lazy module: a submodule's source is compiled and run on the first
access to one of its attributes, so a CLI command pays only for the modules
it calls.  That first run holds one lock, so threads may share the package
from the start.  The names below are re-exported on first use (PEP 562),
each loading its own module.
"""

import importlib.util
import sys
import threading
import types

_EXPORTS = {
    "algebra": ("DEFAULT_TOL", "PSDReport", "dagger", "matrix_units", "psd_check"),
    "cpmaps": ("CPMap", "NotCompletelyPositiveError", "eta_minus_id_cp"),
    "converse": (
        "CounterexampleReport",
        "GNSModel",
        "NonpositivityCertificate",
        "NoWitnessError",
        "TupleDistribution",
        "Witness",
        "build_gns",
        "certify_nonpositive",
        "compression_cumulants",
        "counterexample_report",
        "find_witness",
        "pack_tuple",
        "unpack_tuple",
    ),
    "fock": ("FockOp", "FockSpace", "build_fock", "word_expectation"),
    "freeprod": ("MixedWord", "compressed_distribution", "evaluate"),
    "multimap": ("MultiMap",),
    "ncpart": ("NCPartition", "enumerate_nc"),
    "ovdist": (
        "OVDistribution",
        "Realization",
        "bernoulli",
        "cumulants_from_moments",
        "eta_power",
        "moments_from_cumulants",
        "moments_from_realization",
        "positivity_certificate",
        "semicircular",
    ),
    "serialize": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted([*_EXPORTS, *_HOME])

__version__ = "0.1.0"


_LOAD_LOCK = threading.RLock()
_running = set()  # ids of the lazy modules whose source is running


class _LazyModule(types.ModuleType):
    """A submodule whose source has not run.  The first attribute access runs
    it under _LOAD_LOCK and only then makes it a plain module, so another
    thread waits for the whole module instead of reading a half-run one (the
    race importlib.util.LazyLoader has before Python 3.12).  The running
    source's own accesses, in this thread, read the module as it stands."""

    def __getattribute__(self, attr):
        with _LOAD_LOCK:
            if type(self) is _LazyModule and id(self) not in _running:
                _running.add(id(self))
                try:
                    types.ModuleType.__getattribute__(self, "__spec__").loader.exec_module(self)
                    self.__class__ = types.ModuleType
                finally:
                    _running.discard(id(self))
        return types.ModuleType.__getattribute__(self, attr)


def _lazy(name: str):
    """The submodule name, registered in sys.modules but not yet run."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _LazyModule
    sys.modules[spec.name] = module
    return module


globals().update({name: _lazy(name) for name in _EXPORTS})


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted(globals().keys() | _HOME.keys())
