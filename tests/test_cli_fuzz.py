"""Generated inputs, flags and OVFREE_MAX_ORDER for every CLI command: the
exit code is 0, 2 or 3, no exception escapes main, and no run that exits 0
builds a distribution above the order cap in force, counterexample's
certificate at level L (order 2L - 2) included."""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ovfree.cli import ORDER_CAP, VERIFY_ORDER_CAP, main

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=2),
    st.sampled_from([0.5, -1.0, float("nan"), float("inf"), float("-inf"), 1e300]),
)
# numbers and [re, im] pairs, mostly well formed, nested to matrix depth
LEAVES = st.one_of(st.tuples(st.floats(-2, 2), st.floats(-2, 2)).map(list), SCALARS)
ROWS = st.lists(LEAVES, min_size=0, max_size=3)
ARRAYS = st.one_of(
    st.lists(ROWS, min_size=1, max_size=3),
    st.lists(st.lists(ROWS, min_size=1, max_size=2), min_size=1, max_size=2),
    ROWS,
    SCALARS,
)
K = st.one_of(st.sampled_from([1, 2]), SCALARS)


def _pair(x):
    return [float(x), 0.0]


def _matrix(rows):
    return [[_pair(x) for x in row] for row in rows]


# valid inputs, into which poisoned() writes one generated leaf; those with
# no "order" have their own: 6 for a realization, else the listed cumulants
CHOI = _matrix([[2, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 2]])  # id + transpose on M_2
BASES = [
    {"k": 2, "choi": CHOI},
    {"k": 1, "kraus": [[[_pair(0.5)]]]},
    {"k": 1, "order": 4, "cumulants": [[[_pair(0)]], [[[_pair(1)]]], [[[[_pair(0)]]]], [[[[[_pair(0.5)]]]]]]},
    {"distribution": {"k": 1, "order": 3, "realization": {"X": _matrix([[0.5, 1], [1, -0.5]]), "p": 2, "state": [_pair(1), _pair(0)]}},
     "map": {"k": 1, "kraus": [[[_pair(1.2)]]]}},
    {"distribution": {"k": 2, "cumulants": [_matrix([[0, 0], [0, 0]]), [_matrix([[1, 0], [0, 1]])] * 4]},
     "map": {"k": 2, "choi": CHOI}},
]
ORDERLESS = [
    {"distribution": {"k": 1, "realization": {"X": _matrix([[1, 0.5], [0.5, 0]]), "p": 2, "state": _matrix([[0.5, 0], [0, 0.5]])}},
     "map": {"k": 1, "kraus": [[[_pair(1.1)]]]}},
    {"distribution": {"k": 1, "cumulants": [[[_pair(0)]], [[[_pair(1)]]]] + [[[[_pair(0)]]]] * 8},
     "map": {"k": 1, "kraus": [[[_pair(1.1)]]]}},
]
BASES += ORDERLESS


@st.composite
def poisoned(draw):
    spec = json.loads(json.dumps(draw(st.sampled_from(BASES))))
    node = spec
    while True:
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = draw(st.sampled_from(list(keys)))
        child = node[key]
        if not isinstance(child, (dict, list)) or not child or draw(st.integers(0, 4)) == 0:
            node[key] = draw(LEAVES)
            return spec
        node = child


SPECS = st.one_of(
    poisoned(),
    st.sampled_from(BASES),
    st.sampled_from(ORDERLESS),
    ARRAYS,
    st.fixed_dictionaries({"k": K, "choi": ARRAYS}),
    st.fixed_dictionaries({"distribution": st.fixed_dictionaries({"k": K, "cumulants": st.lists(ARRAYS, max_size=3)}),
                           "map": st.fixed_dictionaries({"k": K, "kraus": st.lists(ARRAYS, max_size=2)})}),
)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


FLAGS = {
    "check-cp": ("tol",),
    "convolve-power": ("order",),
    "positivity": ("order", "level", "tol"),
    "verify-realization": ("order", "tol"),
    "counterexample": ("level", "tol"),
}
VALUES = {
    "order": st.integers(-1, 9).map(str),
    "level": st.integers(-2, 5).map(str),
    "counterexample-level": st.integers(-2, 7).map(str),
    "tol": st.sampled_from(["1e-9", "0", "-1", "nan", "inf", "1e-3"]),
}


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    for flag in FLAGS[command]:
        if draw(st.booleans()):
            argv += [f"--{flag}", draw(VALUES.get(f"{command}-{flag}", VALUES[flag]))]
    # verify-realization runs the freeness recursion, about 12x slower per
    # order above 6, so its draws never lift the cap above its default of 6
    envs = [None, "1", "4", "6", "x"] if command == "verify-realization" else [None, "1", "4", "7", "11", "x"]
    return argv, draw(SPECS), draw(st.sampled_from(envs))


def _cap_in_force(command, env):
    if env is not None:
        return int(env)  # "x" never reaches exit 0 on an order command
    return VERIFY_ORDER_CAP if command == "verify-realization" else ORDER_CAP


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(invocation=invocations())
@example(invocation=(["convolve-power"], ORDERLESS[1], None))
@example(invocation=(["positivity", "--level", "5"], ORDERLESS[1], "7"))
@example(invocation=(["verify-realization"], ORDERLESS[0], "4"))
@example(invocation=(["counterexample", "--level", "6"], BASES[1], "11"))
@example(invocation=(["counterexample", "--level", "7"], BASES[1], "11"))
def test_cli_exit_code_on_generated_input(capsys, monkeypatch, built_orders, invocation):
    argv, spec, env = invocation
    built_orders.clear()
    monkeypatch.delenv("OVFREE_MAX_ORDER", raising=False)
    if env is not None:
        monkeypatch.setenv("OVFREE_MAX_ORDER", env)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(json.dumps(spec))  # NaN and Infinity go out as JSON's extension tokens
        code = main(argv[:1] + ["--in", str(path)] + argv[1:])
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), (argv, spec, err)
    if code == 0 and ("order" in FLAGS[argv[0]] or argv[0] == "counterexample"):
        # counterexample on a map whose eta - id is CP builds no distribution
        assert max(built_orders, default=0) <= _cap_in_force(argv[0], env), (argv, env, built_orders)
    assert "Traceback" not in err
    assert code == 0 or err.count("\n") == 1, (argv, spec, err)
    if code != 2:  # the printed result is strict JSON: no NaN or Infinity tokens
        json.loads(out, parse_constant=_reject_constant)
