"""The golden record: outputs of the whole model pinned across changes.

``python tests/golden.py`` (with ``src`` on ``PYTHONPATH``) recomputes every
case, prints how the results differ from the record they replace (the
largest float64 deviation of each family of cases and the float32 digests
that moved), and rewrites ``tests/data/golden/``; ``tests/test_golden.py``
recomputes them and compares.  A change that moves outputs on purpose
regenerates the record in the same commit and says by how much they moved,
which is what the comparison prints.

The cases:

- ``predict_dataset`` at V in {7, 21, 80, 321} x conv {0, 4} x blocks {1, 2},
  with ``slstm.CHUNK_ROWS`` at 2048 and at 600, so the streamed forward
  splits the variates at both budgets; and all three ``slstm_axis`` values
  at V=21;
- one training step with dropout (forecast, flat gradient after the
  backward, parameters after clipping and Adam), one and two blocks;
- a two-epoch ``fit``: its ``loss_log.jsonl`` and the checkpoint it keeps;
- ``decode_init_token`` at conv {0, 4} x blocks {1, 2} x ``mix_view`` on
  and off;
- the dtype and shapes of every ``slstm.Scratch.carve`` call of one eval
  ``forward_batch`` and one taped training step with dropout, at V in
  {7, 321} x conv {0, 4} x blocks {1, 2} x variates/time axis x ``mix_view``
  on and off: the stack's carve order, shapes and sharing.

Each case runs in float32 and in float64.  float32 results are kept as
SHA-256 digests, compared byte for byte only where the environment
fingerprint matches the one they were made in: numpy and the SIMD loops it
runs on this CPU, the BLAS, its version and the kernel set OpenBLAS picked
for this CPU, and the machine.  On one Skylake-X machine, forcing OpenBLAS
onto its Haswell kernels moves them, and so does switching off numpy's AVX2
loops.  float64 results are kept as values in ``float64.npz`` and compared
within 1e-12 of each array's largest magnitude, which held on the Skylake-X,
Haswell, Sandy Bridge, Nehalem and Katmai kernels of one OpenBLAS build, also
with numpy's AVX-512 and AVX2 loops switched off (largest deviation 5e-14).
Values that no arithmetic decides (a checkpoint's ``config.json`` and
``manifest.txt``, the carve calls) are digests compared everywhere.  On every
machine the float32 results of the cases that run the same inputs in both
precisions (all but ``predict``) are also compared with the float64 values,
within F32_RTOL of each array's largest magnitude.  On the Skylake-X,
Haswell, Sandy Bridge and Nehalem kernels they differ by at most 4.4e-5 of
it (one training step's parameters), 1.9e-6 for the fit's files.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import itertools
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

from mixcast import data, mixer, slstm, tensor as T, training
from mixcast.slstm import BlockConfig
from mixcast.tensor import Tape

from conftest import synthetic_series

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
RECORD, VALUES = GOLDEN / "record.json", GOLDEN / "float64.npz"
LOOKBACK, HORIZON, WIDTH = 12, 6, 8
RTOL = 1e-12
# float32 against float64 results, as the benchmark's F64_TOL.
F32_RTOL = 1e-4
DTYPES = {"float32": np.float32, "float64": np.float64}
# float32 passes use several eval batches of unequal size; float64 passes
# use one small batch, which keeps the stored values small.
WINDOWS = {"float32": 20, "float64": 2}


def blas_core() -> str:
    """The kernel set a dynamic-arch OpenBLAS bundled with numpy picked for
    this CPU; "unknown" for any other BLAS."""
    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return "unknown"


def fingerprint() -> dict:
    """What float32 bytes depend on besides the program: numpy and the SIMD
    loops it runs on this CPU, the BLAS and its kernel set, the machine."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy older than 1.25 has no dict mode
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__,
            "numpy_simd": config.get("SIMD Extensions", {}).get("found", "unknown"),
            "blas": blas.get("name", "unknown"), "blas_version": blas.get("version", "unknown"),
            "blas_core": blas_core(), "machine": platform.machine()}


def digest(value) -> str:
    if isinstance(value, np.ndarray):
        value = f"{value.dtype.str}{value.shape}".encode() + np.ascontiguousarray(value).tobytes()
    return hashlib.sha256(value).hexdigest()


def model(variates, conv, blocks, dtype, axis=mixer.AXIS_VARIATES, dropout=0.0, seed=0,
          mix_view=True):
    cfg = mixer.MixerConfig(
        lookback=LOOKBACK, horizon=HORIZON, num_variates=variates, embed_dim=WIDTH,
        num_blocks=blocks, slstm_axis=axis, mix_view=mix_view,
        block=BlockConfig(d_hidden=WIDTH, num_heads=2, conv_width=conv, dropout_rate=dropout))
    with T.precision(dtype):
        params = mixer.init_mixer_params(cfg, np.random.default_rng(seed))
    return params, cfg


def dataset(windows, variates, seed=1):
    values = synthetic_series(windows + LOOKBACK + HORIZON - 1, variates, seed=seed)
    return data.window_iter(values, (0, values.shape[0]), LOOKBACK, HORIZON)


def predict(variates, conv, blocks, kind, chunk_rows, axis=mixer.AXIS_VARIATES):
    params, cfg = model(variates, conv, blocks, DTYPES[kind], axis)
    ds = dataset(WINDOWS[kind], variates)
    saved = slstm.CHUNK_ROWS
    slstm.CHUNK_ROWS = chunk_rows
    try:
        with T.precision(DTYPES[kind]):
            return training.predict_dataset(params, cfg, ds, batch_size=8)[0]
    finally:
        slstm.CHUNK_ROWS = saved


def train_step(variates, conv, blocks, kind):
    """One step as ``fit`` takes it: (forecast, flat gradient, parameters
    after clipping and Adam)."""
    params, _ = model(variates, conv, blocks, DTYPES[kind], dropout=0.1)
    with T.precision(DTYPES[kind]):
        xs, ys = dataset(8, variates).batch(np.arange(8))
        flat = training.FlatParams(params)
        with Tape() as tape:
            pred = mixer.forward_batch(params, xs, training=True,
                                       rng=np.random.default_rng(2), scratch=slstm.Scratch())
            tape.backward(training.mae_loss(pred, ys))
        grad = flat.grad.copy()
        training.clip_global_norm(flat.grad, flat.segments)
        training.adam_step(flat, 1e-3)
    return pred.data, grad, flat.data


def fit_files(kind):
    """The bytes of a two-epoch fit's loss log and kept checkpoint, by name."""
    params, cfg = model(21, 4, 2, DTYPES[kind], dropout=0.1)
    with T.precision(DTYPES[kind]), tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        tc = training.TrainConfig(batch_size=8, max_epochs=2, seed=5, lr_initial=1e-2)
        training.fit(params, cfg, dataset(24, 21), dataset(8, 21, seed=3), tc, out,
                     log_path=out / "loss_log.jsonl")
        return {p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}


def decode(conv, blocks, mix_view, kind):
    """The learned token's conditioning forecast [1, H]."""
    params, _ = model(7, conv, blocks, DTYPES[kind], mix_view=mix_view)
    with T.precision(DTYPES[kind]):
        return mixer.decode_init_token(params).data


def carves(variates, conv, blocks, axis, mix_view):
    """Digests of the (dtype, shapes) of every Scratch.carve call made by
    one eval forward_batch and by one taped training step with dropout."""
    params, _ = model(variates, conv, blocks, np.float32, axis, dropout=0.1,
                      mix_view=mix_view)
    xs, ys = dataset(8, variates).batch(np.arange(8))
    calls, carve = [], slstm.Scratch.carve

    def recorded(self, dtype, shapes):
        calls.append([np.dtype(dtype).str, [list(shape) for shape in shapes]])
        return carve(self, dtype, shapes)

    slstm.Scratch.carve = recorded
    try:
        mixer.forward_batch(params, xs, scratch=slstm.Scratch())
        eval_calls, calls[:] = list(calls), []
        with Tape() as tape:
            pred = mixer.forward_batch(params, xs, training=True,
                                       rng=np.random.default_rng(2), scratch=slstm.Scratch())
            tape.backward(training.mae_loss(pred, ys))
    finally:
        slstm.Scratch.carve = carve
    return {"eval": digest(json.dumps(eval_calls).encode()),
            "step": digest(json.dumps(calls).encode())}


def cases(kind: str):
    """Yield (name, value) for every case in one precision: an array, or
    the bytes of a file."""
    for variates in (7, 21, 80, 321):
        for conv in (0, 4):
            for blocks in (1, 2):
                for chunk_rows in (2048, 600):
                    yield (f"predict/V{variates}-conv{conv}-blocks{blocks}-chunk{chunk_rows}",
                           predict(variates, conv, blocks, kind, chunk_rows))
    for axis in (mixer.AXIS_VARIATES, mixer.AXIS_TIME, mixer.AXIS_NONE):
        yield f"predict/V21-conv4-blocks2-axis-{axis}", predict(21, 4, 2, kind, 600, axis)
    for variates, conv, blocks in ((7, 0, 1), (21, 4, 2)):
        name = f"step/V{variates}-conv{conv}-blocks{blocks}"
        for part, value in zip(("forecast", "grad", "params"),
                               train_step(variates, conv, blocks, kind)):
            yield f"{name}/{part}", value
    for name, raw in fit_files(kind).items():
        yield f"fit/{name}", raw
    for conv in (0, 4):
        for blocks in (1, 2):
            for mix_view in (True, False):
                yield (f"decode/conv{conv}-blocks{blocks}-view{int(mix_view)}",
                       decode(conv, blocks, mix_view, kind))


def values(name, value, kind):
    """A case's numbers as an array: a loss log's rows, a parameter file's
    entries, or the array itself."""
    if name.endswith(".jsonl"):
        rows = [json.loads(line) for line in value.decode().splitlines()]
        return np.array([list(row.values()) for row in rows], dtype=np.float64)
    if name.endswith(".bin"):
        return np.frombuffer(value, dtype=np.dtype(DTYPES[kind]).newbyteorder("<"))
    return value


def compute():
    """(float32 digests, float64 values, digests of arithmetic-free values,
    float32 values of every float64 case but ``predict``).

    A fit's loss log and parameter files are kept as values, its config and
    manifest as digests.  Its ``b_i`` files are left out: the gradient of
    ``b_i`` is zero up to rounding, so after a few Adam steps ``b_i`` holds
    only rounding noise (about 1e-13 in float64), which moves by its own size
    from one BLAS kernel to another.  Their float32 digests stay."""
    f32_cases = dict(cases("float32"))
    f32 = {name: digest(value) for name, value in f32_cases.items()}
    f64, exact = {}, {}
    for name, value in cases("float64"):
        if name.endswith(".b_i.bin"):
            continue
        if isinstance(value, bytes) and not name.endswith((".jsonl", ".bin")):
            exact[name] = digest(value)
        else:
            f64[name] = values(name, value, "float64")
    # predict runs fewer windows in float64 than in float32.
    near = {name: values(name, f32_cases[name], "float32") for name in f64
            if not name.startswith("predict/")}
    for variates, conv, blocks, axis, mix_view in itertools.product(
            (7, 321), (0, 4), (1, 2), (mixer.AXIS_VARIATES, mixer.AXIS_TIME), (True, False)):
        name = f"carve/V{variates}-conv{conv}-blocks{blocks}-axis-{axis}-view{int(mix_view)}"
        for part, value in carves(variates, conv, blocks, axis, mix_view).items():
            exact[f"{name}/{part}"] = value
    return f32, f64, exact, near


def compare(f32: dict, f64: dict, exact: dict) -> list[str]:
    """Lines that say how new results differ from the record they replace:
    for each family of cases (the name up to its first ``/``), the largest
    float64 deviation, absolute and over the recorded array's largest
    magnitude, and the case it is in; then the float32 digests and
    arithmetic-free digests that moved, or appeared, or went."""
    if not RECORD.exists():
        return ["no record to compare with"]
    record = json.loads(RECORD.read_text())
    lines = []
    if record["fingerprint"] != fingerprint():
        lines.append(f"the float32 digests were made in {record['fingerprint']}, "
                     f"this is {fingerprint()}")
    worst = {}
    with np.load(VALUES) as stored:
        for name in sorted(set(f64) | set(stored.files)):
            family = name.split("/")[0]
            if name not in f64 or name not in stored.files or f64[name].shape != stored[name].shape:
                lines.append(f"float64 {name}: only in the "
                             f"{'new results' if name in f64 else 'record'}, or reshaped")
                continue
            want = stored[name]
            deviation = float(np.abs(f64[name] - want).max())
            relative = deviation / max(float(np.abs(want).max()), np.finfo(np.float64).tiny)
            if family not in worst or relative > worst[family][1]:
                worst[family] = (deviation, relative, name)
    for family, (deviation, relative, name) in sorted(worst.items()):
        lines.append(f"float64 {family}: largest deviation {deviation:.3e} "
                     f"({relative:.3e} of the largest magnitude) in {name}")
    for kind, new, old in (("float32", f32, record["float32"]), ("exact", exact, record["exact"])):
        moved = sorted(name for name in set(new) | set(old) if new.get(name) != old.get(name))
        lines.append(f"{kind} digests moved: {len(moved)} of {len(new)}")
        lines += [f"  {name}" for name in moved]
    return lines


def write() -> None:
    f32, f64, exact, _ = compute()
    print("\n".join(compare(f32, f64, exact)))
    GOLDEN.mkdir(parents=True, exist_ok=True)
    RECORD.write_text(json.dumps({"fingerprint": fingerprint(), "float32": f32,
                                  "exact": exact}, indent=1, sort_keys=True) + "\n")
    np.savez_compressed(VALUES, **f64)


if __name__ == "__main__":
    write()
    print(f"wrote {RECORD} and {VALUES}")
