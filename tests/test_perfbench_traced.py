"""perfbench's traced run must find every function it names in goi.

perfbench/layers.py lists the functions the `--trace 1` run wraps as
"module.function" strings in TRACED. A rename in the package would only
show when that run is started, so each name is resolved here. The list
is read from the file's source, so perfbench's own imports do not run.
"""

import ast
import importlib
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def traced_names():
    for node in ast.parse(LAYERS_PY.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TRACED"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {LAYERS_PY}")


def test_traced_list_is_found():
    assert len(traced_names()) == len(set(traced_names())) >= 1


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_is_a_goi_function(name):
    module, function = name.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(f"goi.{module}"),
                            function, None)), name
