"""Command-line harness: training, evaluation, single-window forecasts, the
ablation matrix, the gradient-check gate, and initial-token decoding.

Every option can also come from a key-value config file (``--config``) whose
keys mirror the flag names (e.g. ``embed-dim=128``); explicit flags win.
``eval`` and ``forecast`` read the dataset kind stored in the checkpoint.
Metric reports emitted by ``train`` and ``eval`` set wall_time_s to 0.0 so
repeated runs are byte-identical; real timings go to stdout and run_meta.json.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import gradcheck as gradcheck_mod
from . import metrics as metrics_mod
from . import mixer
from . import training
from .metrics import MetricsReport
from .slstm import BlockConfig


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="input CSV path")
    p.add_argument("--dataset", choices=data_mod.DATASET_KINDS, default="generic")
    p.add_argument("--lookback", type=int, default=96)
    p.add_argument("--horizon", type=int, default=96)
    p.add_argument("--embed-dim", type=int, default=64)
    p.add_argument("--blocks", type=int, default=1)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--conv-width", type=int, choices=(0, 2, 4), default=0)
    p.add_argument("--dropout", type=float, default=0.1)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--warmup", type=int, default=10)
    p.add_argument("--epochs", type=int, default=15)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--seed", type=int, default=2021)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None,
                   help="optional key=value file mirroring these flag names")


def build_parser() -> argparse.ArgumentParser:
    """The parser; each subcommand's ``run`` default is its handler."""
    parser = argparse.ArgumentParser(prog="mixcast")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model")
    p.set_defaults(run=_cmd_train)
    _add_train_flags(p)

    p = sub.add_parser("ablation", help="train one numbered ablation configuration")
    p.set_defaults(run=lambda args: _cmd_train(args, config_id=str(args.id)))
    p.add_argument("--id", type=int, required=True, choices=range(1, 11))
    _add_train_flags(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint on one split")
    p.set_defaults(run=_cmd_eval)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--dataset", choices=data_mod.DATASET_KINDS, default=None,
                   help="dataset kind (default: the checkpoint's, else generic)")
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--report", required=True)

    p = sub.add_parser("forecast", help="emit one test window's X, Y, and forecast")
    p.set_defaults(run=_cmd_forecast)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--window-index", type=int, default=0)
    p.add_argument("--emit", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference acceptance gate")
    p.set_defaults(run=_cmd_gradcheck)
    p.add_argument("--tiny", action="store_true", required=True)

    p = sub.add_parser("decode-token", help="decode the learned initial token")
    p.set_defaults(run=_cmd_decode_token)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--emit", required=True)

    return parser


def _config_tokens(path) -> list[str]:
    """The key=value lines of a config file as ``--key=value`` tokens."""
    try:
        text = Path(path).read_text("utf-8")
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None
    tokens = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        tokens.append(f"--{key.strip()}={value.strip()}")
    return tokens


def _prepare_data(path, kind, lookback, horizon):
    raw = data_mod.load_csv(path)
    split = data_mod.chronological_split(raw.length, kind)
    series, _ = data_mod.standardize(raw, split)
    splits = {
        which: data_mod.windows_for_split(series, split, which, lookback, horizon)
        for which in ("train", "val", "test")
    }
    return raw.num_variates, splits


def _train_config_from_args(args) -> training.TrainConfig:
    return training.TrainConfig(
        batch_size=args.batch, lr_initial=args.lr, warmup_steps=args.warmup,
        max_epochs=args.epochs, patience=args.patience, seed=args.seed,
    )


def _mixer_config_from_args(args, num_variates: int) -> mixer.MixerConfig:
    block = BlockConfig(d_hidden=args.embed_dim, num_heads=args.heads,
                        conv_width=args.conv_width, dropout_rate=args.dropout)
    return mixer.MixerConfig(
        lookback=args.lookback, horizon=args.horizon, num_variates=num_variates,
        embed_dim=args.embed_dim, num_blocks=args.blocks, block=block,
    )


def _score(params, cfg, ds, dataset: str, seed: int, epochs_trained: int,
           config_id: str) -> MetricsReport:
    """Forecast one split, score it, and print its metrics line."""
    pred, target = training.predict_dataset(params, cfg, ds)
    report = MetricsReport(
        dataset=dataset, horizon=cfg.horizon, lookback=cfg.lookback, seed=seed,
        epochs_trained=epochs_trained, wall_time_s=0.0, config_id=config_id,
        **metrics_mod.compute_metrics(pred, target))
    print(f"{report.dataset}: mse={report.mse:.6f} mae={report.mae:.6f} "
          f"rmse={report.rmse:.6f} mape={report.mape:.4f}")
    return report


# Each key `train` writes into a checkpoint's ``extra``, and its default.
_EXTRA_DEFAULTS = {"dataset_kind": "generic", "dataset_name": "", "seed": -1,
                  "config_id": "full", "epochs_trained": 0}


def _load_checkpoint(path):
    """A checkpoint's params, config and ``extra``, which holds every key of
    _EXTRA_DEFAULTS, each checked once against its default's type (a bool is
    not an int here), and a known dataset kind, whichever command reads it."""
    params, cfg, extra = mixer.load_checkpoint(path)
    extra = {**_EXTRA_DEFAULTS, **extra}
    for key, default in _EXTRA_DEFAULTS.items():
        value, kind = extra[key], type(default)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(f"config.json: extra {key} must be {kind.__name__}, got {value!r}")
    if extra["dataset_kind"] not in data_mod.DATASET_KINDS:
        raise ValueError(f"config.json: extra dataset_kind must be one of "
                         f"{', '.join(data_mod.DATASET_KINDS)}, got {extra['dataset_kind']!r}")
    return params, cfg, extra


def _cmd_train(args, config_id: str = "full") -> int:
    num_variates, splits = _prepare_data(args.data, args.dataset, args.lookback,
                                         args.horizon)
    cfg = _mixer_config_from_args(args, num_variates)
    if config_id != "full":
        cfg = mixer.build_ablation_config(int(config_id), cfg)
    params = mixer.init_mixer_params(cfg, np.random.default_rng(args.seed))
    train_cfg = _train_config_from_args(args)

    out_dir = Path(args.out)
    artifacts = training.fit(params, cfg, splits["train"], splits["val"], train_cfg,
                             out_dir, log_path=out_dir / "loss_log.jsonl")

    best, best_cfg, _ = mixer.load_checkpoint(artifacts.best_checkpoint)
    mixer.save_checkpoint(artifacts.best_checkpoint, best,
                          extra={"dataset_kind": args.dataset,
                                 "dataset_name": Path(args.data).stem,
                                 "seed": args.seed, "config_id": config_id,
                                 "epochs_trained": artifacts.epochs_trained})
    reports = [_score(best, best_cfg, splits[which], f"{Path(args.data).stem}/{which}",
                      args.seed, artifacts.epochs_trained, config_id)
               for which in ("val", "test")]
    metrics_mod.emit_report(reports, out_dir / "report.jsonl")
    (out_dir / "run_meta.json").write_text(json.dumps(
        {"wall_time_s": artifacts.wall_time_s,
         "best_val_mae": artifacts.best_val_mae,
         "epochs_trained": artifacts.epochs_trained}, indent=2) + "\n")
    print(f"trained {artifacts.epochs_trained} epochs in "
          f"{artifacts.wall_time_s:.1f}s; best checkpoint: {artifacts.best_checkpoint}")
    return 0


def _cmd_eval(args) -> int:
    params, cfg, extra = _load_checkpoint(args.checkpoint)
    kind = args.dataset or extra["dataset_kind"]
    _, splits = _prepare_data(args.data, kind, cfg.lookback, cfg.horizon)
    report = _score(params, cfg, splits[args.split], f"{Path(args.data).stem}/{args.split}",
                    extra["seed"], extra["epochs_trained"], extra["config_id"])
    metrics_mod.emit_report([report], args.report)
    return 0


def _cmd_forecast(args) -> int:
    params, cfg, extra = _load_checkpoint(args.checkpoint)
    _, splits = _prepare_data(args.data, extra["dataset_kind"], cfg.lookback, cfg.horizon)
    ds = splits["test"]
    xs, ys = ds.batch([args.window_index])
    pred = mixer.forward_batch(params, cfg, xs)
    metrics_mod.write_forecast_columns(args.emit, history=xs[0], target=ys[0],
                                       forecast=pred.data[0])
    print(f"wrote window {args.window_index} ({cfg.num_variates} variates, "
          f"T={cfg.lookback}, H={cfg.horizon}) to {args.emit}")
    return 0


def _cmd_gradcheck(args) -> int:
    result = gradcheck_mod.full_model_gradcheck()
    print(f"parameters checked: {result.num_params}")
    print(f"directions checked: {result.num_directions}")
    print(f"max directional error: {result.directional_max_error:.3e}")
    print(f"runtime: {result.runtime_s:.1f}s")
    print("PASS" if result.passed else "FAIL")
    return 0 if result.passed else 1


def _cmd_decode_token(args) -> int:
    params, cfg, _ = _load_checkpoint(args.checkpoint)
    decoded = mixer.decode_init_token(params, cfg)
    metrics_mod.write_series_columns(args.emit,
                                     {"decoded_token": decoded.data.reshape(-1)})
    print(f"wrote decoded token series (H={cfg.horizon}) to {args.emit}")
    return 0


def _run(parser: argparse.ArgumentParser, argv: list[str], args) -> int:
    if getattr(args, "config", None) is not None:
        # File values go right after the subcommand, so later explicit
        # flags win and argparse checks them like any flag.
        args = parser.parse_args(argv[:1] + _config_tokens(args.config) + argv[1:])
    return args.run(args)


def main(argv: list[str] | None = None) -> int:
    """Run one command.  A command that fails in a way the CLI reports
    prints one ``error:`` line to stderr and returns 2; the warnings it
    raised on the way (the overflows of a diverging run) go with it.  Any
    other command shows its warnings once it ends."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    caught = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            return _run(parser, argv, args)
    except (data_mod.DataError, mixer.ConfigError, ValueError, IndexError,
            OSError, FloatingPointError) as exc:
        caught = []
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)


if __name__ == "__main__":
    sys.exit(main())
