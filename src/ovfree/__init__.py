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
from the start.  The package's public names are its submodules: each object
has the one name ovfree.<module>.<name>.
"""

import importlib.util
import sys
import threading
import types

__all__ = ("algebra", "converse", "cpmaps", "fock", "freeprod", "multimap", "ncpart", "ovdist", "serialize")

__version__ = "0.1.0"


_LOAD_LOCK = threading.RLock()
_running = set()  # ids of the lazy modules whose source is running


def _run(module):
    """Run a lazy module's source, once, under _LOAD_LOCK, and only then make
    it a plain module."""
    with _LOAD_LOCK:
        if type(module) is _LazyModule and id(module) not in _running:
            _running.add(id(module))
            try:
                types.ModuleType.__getattribute__(module, "__spec__").loader.exec_module(module)
                types.ModuleType.__setattr__(module, "__class__", types.ModuleType)
            finally:
                _running.discard(id(module))


class _LazyModule(types.ModuleType):
    """A submodule whose source has not run.  The first attribute access,
    assignment or deletion runs it (_run), so another thread waits for the
    whole module instead of reading a half-run one (the race
    importlib.util.LazyLoader has before Python 3.12), and the source does
    not overwrite a name assigned before it ran.  The running source's own
    accesses, in this thread, reach the module as it stands."""

    def __getattribute__(self, attr):
        _run(self)
        return types.ModuleType.__getattribute__(self, attr)

    def __setattr__(self, attr, value):
        _run(self)
        types.ModuleType.__setattr__(self, attr, value)

    def __delattr__(self, attr):
        _run(self)
        types.ModuleType.__delattr__(self, attr)


def _lazy(name: str):
    """The submodule name, registered in sys.modules but not yet run."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _LazyModule
    sys.modules[spec.name] = module
    return module


globals().update({name: _lazy(name) for name in __all__})
