"""The canonical stdout of every CLI command on small committed inputs,
byte for byte.

tests/golden/ holds each command's input and the exact bytes it printed when
the fixture was made.  The inputs are multiples of 1/4 and 1/8, so the
transforms and the freeness recursion compute the printed moments, cumulants
and deviations exactly; only the eigensolver results (eigenvalues, witness
vectors, the counterexample's lambda) are rounded floating-point values.  A
change that moves any printed digit, key or separator fails here; if the
change is meant, regenerate the .out file and say why in the commit.
"""

from pathlib import Path

import pytest

from ovfree.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("check-cp", "map.json", [], 0),
    ("counterexample", "map.json", [], 0),
    ("convolve-power", "convolve.json", [], 0),
    ("positivity", "positivity.json", ["--level", "2"], 0),
    ("verify-realization", "realization.json", [], 0),
]


@pytest.mark.parametrize("command, infile, extra, code", CASES, ids=[case[0] for case in CASES])
def test_golden_stdout(capsys, command, infile, extra, code):
    assert main([command, "--in", str(GOLDEN / infile), *extra]) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{command}.out").read_bytes()
