"""perfbench's traced run must find every function it names in goi.

perfbench/layers.py lists the functions the `--trace 1` run wraps as
"module.function" strings in TRACED, and its COUNTERS read some of their
arguments with _arg(args, kwargs, index, "name"). A rename in the
package would only show when that run is started, so each name, and
each counted argument's position, is checked here. Both are read from
the file's source, so perfbench's own imports do not run.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

# finetune_osh's third parameter is `neg`, each entry's valid pixels
# outside the pseudo-mask; layers.py still reads it as `valid`
EXPECTED_DRIFT = {("osh.finetune_osh", 2, "valid")}


def assigned(name):
    for node in ast.parse(LAYERS_PY.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == [name]):
            return node.value
    raise AssertionError(f"no {name} assignment in {LAYERS_PY}")


def traced_names():
    return ast.literal_eval(assigned("TRACED"))


def goi_function(name):
    module, function = name.rsplit(".", 1)
    return getattr(importlib.import_module(f"goi.{module}"), function, None)


def counted_arguments():
    """(function, index, parameter name) of every _arg call in COUNTERS."""
    counters = assigned("COUNTERS")
    return [(ast.literal_eval(key), *map(ast.literal_eval, call.args[2:4]))
            for key, value in zip(counters.keys, counters.values)
            for call in ast.walk(value)
            if isinstance(call, ast.Call)
            and getattr(call.func, "id", None) == "_arg"]


def test_traced_list_is_found():
    assert len(traced_names()) == len(set(traced_names())) >= 1


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_is_a_goi_function(name):
    assert callable(goi_function(name)), name


def test_counted_arguments_are_found():
    assert len(counted_arguments()) >= len(EXPECTED_DRIFT)


def test_counted_arguments_name_their_parameters():
    drift = set()
    for name, index, parameter in counted_arguments():
        names = list(inspect.signature(goi_function(name)).parameters)
        if names[index:index + 1] != [parameter]:
            drift.add((name, index, parameter))
    assert drift == EXPECTED_DRIFT
