"""The two routes to the eta-power share no code: the Fock-space compression
(freeprod, fock) takes only value types from the transform (ovdist,
multimap), never a transform function, and the transform imports neither
compression module.  Within the compression, the freeness recursion
(freeprod) takes from fock only the module itself, never the sparse operator
product that its tests compare it against.  Read from the sources' imports,
at any depth."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ovfree"
SUBMODULES = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
VALUE_TYPES = {"OVDistribution", "Realization", "MultiMap"}
TRANSFORMS = {"_interval_dp", "moments_from_cumulants", "cumulants_from_moments", "eta_power"}
# the sparse operator product of fock, and the FockSpace methods that build its operators
FOCK_ORACLE = {"word_expectation", "FockOp", "_as_op", "lambda_op", "v_op", "_v", "identity_op", "cond_exp_block"}


def _names(module):
    """Every name and attribute the module's source reads."""
    nodes = list(ast.walk(_tree(module)))
    return {node.id for node in nodes if isinstance(node, ast.Name)} | {
        node.attr for node in nodes if isinstance(node, ast.Attribute)}


def _tree(module):
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def _imports(module):
    """(home, name) of each import in module's source: home is the dotted
    module a name is taken from, name None where a whole module is imported."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            found |= {(alias.name, None) for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            home = "ovfree" + (f".{node.module}" if node.module else "") if node.level else node.module
            for alias in node.names:
                if home == "ovfree" and alias.name in SUBMODULES:
                    found.add((f"ovfree.{alias.name}", None))
                else:
                    found.add((home, alias.name))
    return found


def test_imports_are_read():
    assert {("ovfree.ovdist", "OVDistribution"), ("ovfree.multimap", "MultiMap")} <= _imports("freeprod")
    assert ("ovfree.fock", "build_fock") in _imports("freeprod")
    assert ("ovfree.ncpart", None) in _imports("multimap")


@pytest.mark.parametrize("module", ["freeprod", "fock"])
def test_the_compression_takes_only_value_types_from_the_transform(module):
    taken = {(home, name) for home, name in _imports(module) if home in ("ovfree", "ovfree.ovdist", "ovfree.multimap")}
    assert all(name in VALUE_TYPES for _, name in taken), taken  # a whole module (None) is refused too
    assert not _names(module) & TRANSFORMS


def test_the_freeness_recursion_never_calls_its_oracle():
    taken = {(home, name) for home, name in _imports("freeprod") if home in ("ovfree", "ovfree.fock")}
    assert taken == {("ovfree.fock", "FockSpace"), ("ovfree.fock", "build_fock")}
    assert not _names("freeprod") & FOCK_ORACLE


@pytest.mark.parametrize("module", ["ovdist", "multimap"])
def test_the_transform_imports_no_compression_module(module):
    homes = {home for home, _ in _imports(module)}
    assert not homes & {"ovfree.freeprod", "ovfree.fock", "ovfree"}
