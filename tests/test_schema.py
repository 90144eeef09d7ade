"""Properties of the config field tables: every value of a wrong JSON type
is rejected with its dotted path, and emit followed by parse is the
identity."""

import copy
import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hsiduo.errors import ConfigError
from hsiduo.model import ConvLayerSpec, ModelConfig
from hsiduo.train import TrainConfig

DEFAULT_DOC = ModelConfig().to_json_dict()


def nodes(doc, path="", chain=()):
    """(dotted path, key chain, value) of every value under doc."""
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        sub = f"{path}[{key}]" if isinstance(key, int) else (f"{path}.{key}" if path else key)
        yield sub, chain + (key,), value
        if isinstance(value, (dict, list)):
            yield from nodes(value, sub, chain + (key,))


NODES = list(nodes(DEFAULT_DOC))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


def kind(value):
    return dict if isinstance(value, dict) else list if isinstance(value, list) else type(value)


def is_wrong(original, value):
    """value is not what the field that now holds original accepts by type."""
    if isinstance(value, float) and not math.isfinite(value):
        return True
    if kind(original) is float and kind(value) is int:
        return False
    return kind(value) is not kind(original)


def test_nodes_reach_every_depth():
    paths = {path for path, _, _ in NODES}
    assert {"pca_components", "real_convs[2].kernel[1]", "dense_widths[0]", "train.lr", "train.seed"} <= paths


@pytest.mark.parametrize("path, chain, original", NODES, ids=[path for path, _, _ in NODES])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(value=st.sampled_from([math.nan, math.inf, -math.inf]) | json_values)
def test_a_wrong_json_type_names_its_path(path, chain, original, value):
    assume(is_wrong(original, value))
    doc = copy.deepcopy(DEFAULT_DOC)
    target = doc
    for key in chain[:-1]:
        target = target[key]
    target[chain[-1]] = value
    with pytest.raises(ConfigError) as exc:
        ModelConfig.from_json_dict(doc)
    assert str(exc.value).startswith(f"{path}: expected "), (path, value, str(exc.value))


@pytest.mark.parametrize("text, path", [('{"train": {"lr": 1e400}}', "train.lr"),
                                        ('{"train": {"lr": -1e400}}', "train.lr"),
                                        ('{"dropout_rate": NaN}', "dropout_rate"),
                                        ('{"dropout_rate": 1%s}' % ("0" * 400), "dropout_rate")])
def test_non_finite_json_numbers_name_their_path(text, path):
    with pytest.raises(ConfigError, match=rf"^{path}: expected a finite number"):
        ModelConfig.from_json_dict(json.loads(text))


@st.composite
def valid_configs(draw):
    """Configs that pass validate: both streams share one conv stack, and
    the SE ratio divides the fused channels."""
    patch, pca = draw(st.sampled_from([2, 4, 8])), draw(st.integers(1, 6))
    convs, h, d = [], patch, pca
    for _ in range(draw(st.integers(1, 3))):
        mh, md = draw(st.integers(1, h)), draw(st.integers(1, d))
        convs.append(ConvLayerSpec((mh, mh, md), draw(st.integers(1, 5))))
        h, d = h - mh + 1, d - md + 1
    fused = 3 * d * convs[-1].channels
    epochs = draw(st.integers(1, 200))
    train = TrainConfig(epochs=epochs, batch_size=draw(st.integers(1, 64)), patience=draw(st.integers(1, epochs)),
                        lr=draw(st.floats(0.0, 10.0, exclude_min=True)), seed=draw(st.integers(0, 2**63)))
    cfg = ModelConfig(pca_components=pca, patch_size=patch, real_convs=convs,
                      complex_convs=[ConvLayerSpec(c.kernel, c.channels) for c in convs],
                      se_ratio=draw(st.sampled_from([r for r in range(1, fused + 1) if fused % r == 0])),
                      se_enabled=draw(st.booleans()), dense_widths=draw(st.lists(st.integers(1, 256), max_size=3)),
                      dropout_rate=draw(st.floats(0.0, 1.0, exclude_max=True)), train=train)
    cfg.validate()
    return cfg


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.just(ModelConfig()) | valid_configs())
def test_emit_then_parse_is_the_identity(cfg):
    doc = json.loads(json.dumps(cfg.to_json_dict()))
    back = ModelConfig.from_json_dict(doc)
    assert back == cfg
    assert back.to_json_dict() == doc
