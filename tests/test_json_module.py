"""serialize is the one module that reads and writes JSON files: cli keeps the
arguments and the dispatch, imports no JSON parser and no numpy at module
level, and names none of the reader's tables, and no module but serialize
names them or imports orjson.  Read from the sources, as
test_route_independence reads the imports."""

import ast

import pytest

from test_route_independence import SUBMODULES, _imports, _tree

READER_NAMES = {"ARRAY_FIELDS", "FAST_READ_BYTES", "MIN_SITE_BYTES", "MAX_SHORT_ELEMENTS", "MAX_FAST_DEPTH",
                "FLAT_PIECE_BYTES", "_NUMBER", "_BLANK_BRACKETS"}
OTHERS = sorted(SUBMODULES - {"serialize"}) + ["__init__"]


def _names(module):
    """Every name module's source reads or binds: names, attributes, imported
    names and string constants (a getattr's argument)."""
    names = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names |= {node.name, node.asname}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_the_reader_names_are_serialize_globals():
    bound = {target.id for node in _tree("serialize").body if isinstance(node, ast.Assign)
             for target in node.targets if isinstance(target, ast.Name)}
    assert READER_NAMES <= bound
    assert ("orjson", None) in _imports("serialize")


def test_cli_imports_no_parser_and_no_numpy_at_module_level():
    imported = set()
    for node in _tree("cli").body:  # module level only: main imports numpy once the arguments are checked
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.add(node.module.split(".")[0])
    assert "argparse" in imported
    assert not imported & {"json", "orjson", "numpy"}


@pytest.mark.parametrize("module", OTHERS)
def test_only_serialize_names_the_reader_tables_or_imports_orjson(module):
    assert not _names(module) & READER_NAMES
    assert "orjson" not in {home.split(".")[0] for home, _ in _imports(module)}
