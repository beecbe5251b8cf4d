"""The benchmark under perfbench/ reaches into qcorr by name: its span tracer
looks up each TARGETS entry with getattr, and its workloads and harness
checks call qcorr.<name> directly.  Both are read from source here, so
deleting or renaming a name they use fails Tier-1 instead of the benchmark
run."""
import ast
import importlib
from pathlib import Path

import pytest

import qcorr

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _span_targets() -> dict[str, tuple[str, ...]]:
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TARGETS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TARGETS")


def _qcorr_chains(path: Path) -> set[tuple[str, ...]]:
    """Every attribute chain qcorr.a.b... read in the file, outermost only."""
    chains, inner = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        names, value = [node.attr], node.value
        while isinstance(value, ast.Attribute):
            inner.add(id(value))
            names.append(value.attr)
            value = value.value
        if isinstance(value, ast.Name) and value.id == "qcorr":
            chains.add(tuple(reversed(names)))
    return chains


SPAN_NAMES = [(layer, fn) for layer, fns in _span_targets().items() for fn in fns]


@pytest.mark.parametrize("layer, name", SPAN_NAMES, ids=[f"{a}.{b}" for a, b in SPAN_NAMES])
def test_every_traced_span_resolves(layer, name):
    assert callable(getattr(importlib.import_module(f"qcorr.{layer}"), name))


@pytest.mark.parametrize("source, known", [
    ("workloads.py", ("closed_death_time",)),
    ("check_perfbench.py", ("dynamics", "death_time")),
])
def test_every_qcorr_name_the_benchmark_calls_resolves(source, known):
    chains = _qcorr_chains(PERFBENCH / source)
    assert known in chains  # the walk does see the calls
    for chain in sorted(chains):
        value = qcorr
        for name in chain:
            assert hasattr(value, name), "qcorr." + ".".join(chain)
            value = getattr(value, name)
