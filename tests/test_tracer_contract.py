"""The attributes the benchmark's traced run wraps.

``benchmarks/spans.py`` swaps a recording wrapper in at every (owner,
attribute) its ``targets`` table names, and a traced run reads each layer's
time off those spans.  A rename, or a forward that reaches a stage other than
through its module attribute, would drop the layer from traced runs; here it
fails Tier-1.  So does a tape whose nodes the traced run cannot read.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import mixcast
from mixcast import mixer, slstm
from mixcast.slstm import BlockConfig
from mixcast.tensor import Tape
from mixcast.training import mae_loss

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"
STAGES = {"mixer.revin", "mixer.nlinear", "mixer.up_project", "mixer.reconcile",
          "mixer.denorm", "slstm.stack"}


def load_spans():
    """benchmarks/spans.py, loaded without writing bytecode beside it."""
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    before, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return module


spans = load_spans()


def test_every_traced_attribute_exists():
    table = spans.targets(mixcast)
    assert {name for _, _, name, _ in table} >= STAGES
    for owner, attr, _, _ in table:
        assert callable(getattr(owner, attr, None)), (owner, attr)


@pytest.mark.parametrize("record", [False, True], ids=["no-tape", "tape"])
def test_a_forward_enters_every_stage_attribute(record, monkeypatch):
    # 5 variates of batch 4 in two views: a chunk budget of 16 rows holds two
    # variate tokens, so without a tape the forward runs three chunks.
    monkeypatch.setattr(slstm, "CHUNK_ROWS", 16)
    cfg = mixer.MixerConfig(lookback=8, horizon=4, num_variates=5, embed_dim=8, num_blocks=2,
                            block=BlockConfig(d_hidden=8, num_heads=2, conv_width=2,
                                              dropout_rate=0.1))
    rng = np.random.default_rng(2)
    params = mixer.init_mixer_params(cfg, rng)
    xs = rng.normal(size=(4, cfg.num_variates, cfg.lookback)).astype(np.float32)
    tracer = spans.Tracer("tier1")
    with spans.installed(tracer, spans.targets(mixcast)):
        if record:
            with Tape():
                mixer.forward_batch(params, xs, training=True, rng=rng)
        else:
            mixer.forward_batch(params, xs)
    forwards = [s for s in tracer.spans if s[2].startswith("mixer.forward")]
    assert [s[2] for s in forwards] == ["mixer.forward_train" if record
                                        else "mixer.forward_eval"]
    calls = {}
    for _, parent, name, _, _, _ in tracer.spans:
        if parent == forwards[0][0]:
            calls[name] = calls.get(name, 0) + 1
    chunks = 1 if record else 3
    assert calls == {name: chunks for name in STAGES}
    # The wrappers are gone again.
    for owner, attr, _, _ in spans.targets(mixcast):
        assert not hasattr(getattr(owner, attr), "__wrapped__"), attr


def test_the_tape_attributes_count_the_outputs_still_alive_at_backward_entry():
    # At backward entry the traced run reads len(tape) and the bytes of the
    # node outputs (``out.data`` of each node).  An output no reference
    # holds any more reads as an empty array; here the live ones are NLinear's
    # output, the last block's, the forecast the caller still holds, and the
    # loss.
    cfg = mixer.MixerConfig(lookback=8, horizon=4, num_variates=5, embed_dim=8, num_blocks=2,
                            block=BlockConfig(d_hidden=8, num_heads=2, conv_width=2,
                                              dropout_rate=0.1))
    rng = np.random.default_rng(3)
    params = mixer.init_mixer_params(cfg, rng)
    xs = rng.normal(size=(4, cfg.num_variates, cfg.lookback)).astype(np.float32)
    with Tape() as tape:
        pred = mixer.forward_batch(params, xs, training=True, rng=rng)
        loss = mae_loss(pred, np.zeros(pred.shape, np.float32))
        attrs = spans._tape_attrs((tape,), {})
        tape.backward(loss)
    rows, stack_rows = 5 * 4, (1 + 5) * 2 * 4
    alive = (rows * cfg.horizon + stack_rows * cfg.embed_dim + rows * cfg.horizon + 1) * 4
    assert attrs == {"nodes": 9, "bytes": alive}
    assert spans._tape_attrs((tape,), {}) == {"nodes": 0, "bytes": 0}
