"""The benchmark's traced per-layer names still name functions of the package.

`bench/run.py --trace 1` looks every per-layer metric of BENCHMARK.json up
among the spans its tracer recorded; a renamed or privatized function drops
its span and the lookup fails.  The tracer wraps the public, non-generator
functions defined in each layer module, plus these JointPmf methods.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

import cflayers as cf

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
SPAN_SUFFIXES = (".calls", ".self_s", ".s")
JOINT_METHODS = ("marginal", "entropy", "cond_entropy", "mutual_info", "pair_entropy_sum")


def traced_spans():
    spans = set()
    for metric in json.loads(BENCHMARK.read_text())["per_layer"]:
        name = metric["name"]
        suffix = next((s for s in SPAN_SUFFIXES if name.endswith(s)), None)
        if suffix is not None:
            spans.add(name[: -len(suffix)])
    return sorted(spans)


def traceable(func) -> bool:
    return inspect.isfunction(func) and not inspect.isgeneratorfunction(func)


@pytest.mark.parametrize("span", traced_spans())
def test_span_names_a_public_function(span):
    module_name, func_name = span.split(".")
    assert not func_name.startswith("_")
    module = importlib.import_module(f"cflayers.{module_name}")
    func = vars(module).get(func_name)
    if traceable(func) and func.__module__ == module.__name__:
        return
    assert module_name == "probability" and traceable(vars(cf.JointPmf).get(func_name))


@pytest.mark.parametrize("name", JOINT_METHODS)
def test_joint_pmf_defines_traced_method(name):
    assert traceable(vars(cf.JointPmf).get(name))
