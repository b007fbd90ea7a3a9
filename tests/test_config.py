"""The declared config ranges: enforced on every path in, and documented."""

import math
import re
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtmd.checkpoint import Checkpoint
from mtmd.data import SyntheticSpec
from mtmd.errors import DataError, UsageError
from mtmd.harness import TrainConfig, evaluate, state_from_checkpoint
from mtmd.model import ModelConfig

CONFIGS = (TrainConfig, ModelConfig, SyntheticSpec)
RANGED = [(cls, f) for cls in CONFIGS for f in fields(cls) if "range" in f.metadata]
BIG = sys.float_info.max
BELOW_ONE = math.nextafter(1.0, 0.0)
HUGE = 10**400  # a JSON integer too large for a float64

# per ranged field: values at the ends of its range, and values just outside
ENDS = {
    (TrainConfig, "learning_rate"): ([5e-324, BIG], [0, -0.0, math.inf, math.nan, HUGE]),
    (TrainConfig, "epochs"): ([1], [0]),
    (TrainConfig, "patience"): ([0], [-1]),
    (TrainConfig, "seed"): ([0], [-1]),
    (ModelConfig, "embed_width"): ([1], [0]),
    (ModelConfig, "memory_items"): ([1], [0]),
    (ModelConfig, "seed"): ([0], [-1]),
    (SyntheticSpec, "n_stocks"): ([1], [0]),
    (SyntheticSpec, "n_concepts"): ([1], [0]),
    (SyntheticSpec, "n_dates"): ([1], [0]),
    (SyntheticSpec, "membership_density"): ([0, 1], [-5e-324, math.nextafter(1.0, 2.0), math.nan]),
    (SyntheticSpec, "factor_persistence"): ([0, BELOW_ONE], [-5e-324, 1, math.nan]),
    (SyntheticSpec, "noise_sigma"): ([0, BIG], [-5e-324, math.inf, math.nan, HUGE]),
    (SyntheticSpec, "seed"): ([0], [-1]),
}


def violations(f, term: str):
    """Values of field ``f``'s type that break one term of its range."""
    is_int = f.type.startswith("int")
    if term == "finite":
        return st.sampled_from([math.inf, -math.inf, math.nan, HUGE, -HUGE])
    op, bound = term.split()
    b = float(bound)
    # the last value outside the range is the bound itself, or the next
    # number past it when the bound is included
    if op in (">", ">="):
        if is_int:
            return st.integers(max_value=math.floor(b) if op == ">" else math.ceil(b) - 1)
        last = b if op == ">" else math.nextafter(b, -math.inf)
        return st.floats(max_value=last) | st.just(math.nan)
    if is_int:
        return st.integers(min_value=math.ceil(b) if op == "<" else math.floor(b) + 1)
    last = b if op == "<" else math.nextafter(b, math.inf)
    return st.floats(min_value=last) | st.just(math.nan)


def out_of_range(data):
    cls, f = data.draw(st.sampled_from(RANGED))
    term = data.draw(st.sampled_from(f.metadata["range"].split(", ")))
    return cls, f.name, data.draw(violations(f, term))


def test_every_ranged_field_has_ends():
    assert set(ENDS) == {(cls, f.name) for cls, f in RANGED}


@pytest.mark.parametrize("cls, key", sorted(ENDS, key=lambda k: (k[0].__name__, k[1])),
                         ids=lambda v: getattr(v, "__name__", v))
def test_range_ends_accepted_and_just_outside_rejected(cls, key):
    inside, outside = ENDS[cls, key]
    for value in inside:
        assert getattr(cls.from_dict({key: value}), key) == value
    for value in outside:
        with pytest.raises(UsageError, match=key):
            cls.from_dict({key: value})
        with pytest.raises(UsageError, match=key):
            cls(**{key: value})
        with pytest.raises(UsageError, match=key):
            replace(cls(), **{key: value})


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_out_of_range_value_is_usage_error(data):
    cls, key, value = out_of_range(data)
    with pytest.raises(UsageError, match=key):
        cls.from_dict({key: value})


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_out_of_range_value_in_checkpoint_is_data_error(data):
    cls, key, value = out_of_range(data)
    if cls is SyntheticSpec:
        return
    if cls is ModelConfig:
        ckpt = Checkpoint(tensors={}, config={"model": {key: value}})
        with pytest.raises(DataError, match=key):
            state_from_checkpoint(ckpt)
    else:
        ckpt = Checkpoint(tensors={}, config={"train": {key: value}})
        with pytest.raises(DataError, match=key):
            evaluate(ckpt, "test")


def readme_table(heading: str) -> dict[str, str]:
    """The key -> range cells of the README table that follows ``heading``."""
    lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index(heading) + 1
    while not lines[start].startswith("|"):
        start += 1
    header = [c.strip() for c in lines[start].strip("|").split("|")]
    assert header[:3] == ["key", "default", "range"]
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        for key in re.findall(r"`([^`]+)`", cells[0]):
            table[key] = cells[2].strip("`")
    return table


@pytest.mark.parametrize("cls, heading", [
    (TrainConfig, "`train` section (top level of the JSON):"),
    (ModelConfig, "`model` section:"),
    (SyntheticSpec, "`gen-data` spec:"),
], ids=["train", "model", "spec"])
def test_readme_tables_list_the_schema(cls, heading):
    documented = readme_table(heading)
    assert set(documented) == {f.name for f in fields(cls)}
    for f in fields(cls):
        assert documented[f.name] == f.metadata.get("range", "—"), f.name


@pytest.mark.parametrize("cls", [TrainConfig, SyntheticSpec], ids=lambda c: c.__name__)
@pytest.mark.parametrize("blob", [b"\xff\xfe{}", b'{"seed": ' + b"1" * 5000 + b"}"],
                         ids=["not-utf8", "int-too-long"])
def test_unreadable_json_is_usage_error(tmp_path, cls, blob):
    path = tmp_path / "cfg.json"
    path.write_bytes(blob)
    with pytest.raises(UsageError, match="not valid JSON"):
        cls.from_json_file(str(path))
