"""Command-line entry point.

Subcommands: ``stats`` (calibration reports from logs), ``fit`` (variable or
single-temperature calibrator), ``apply`` (rewrite logs recalibrated),
``seqcal`` (sequence-level calibration experiment), ``toy gen`` and
``toy beamsweep`` (synthetic bench). Reports go to files; stdout carries a
one-line summary. Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import SeqcalError
from .jsonfile import read_json, write_json
from .metrics import Calibration, HeadTail, Partition, PartitionSpec, export_reliability, write_reliability_csv
from .records import BinningConfig, read_log_blocks, read_log_file, write_log_file
from .recalibrate import (
    CalibratedModel,
    SingleTemperature,
    TrainConfig,
    fit_calibrator,
    fit_single_temperature,
    load_params,
    recalibrate_log,
    save_params,
)
from .toybench import (
    DistortionSpec,
    ToyTaskSpec,
    beam_sweep,
    build_true_model,
    distort,
    emit_log_blocks,
    sequence_calibration_experiment,
)

BEAMSWEEP_EVAL_SOURCES = 400


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 with help text instead of argparse's exit 2
        raise UsageError(f"{message}\n\n{self.format_help()}")


def build_parser() -> _Parser:
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None, help="RNG seed (falls back to $SEQCAL_SEED)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=Path, required=True, help="report output path (JSON)")

    parser = _Parser(prog="seqcal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_stats = sub.add_parser("stats", parents=[out], help="calibration metrics from a log file")
    p_stats.add_argument("--logs", type=Path, required=True)
    p_stats.add_argument("--bins", type=int, default=20)
    p_stats.add_argument("--weighted", action="store_true", help="also report full-distribution calibration")
    p_stats.add_argument(
        "--partition", default=None,
        help="eos | entropy:H | token:ID | headtail:T1,T2,...",
    )

    p_fit = sub.add_parser("fit", parents=[seed], help="fit a calibrator on validation logs")
    p_fit.add_argument("--logs", type=Path, required=True)
    p_fit.add_argument("--mode", choices=("variable", "single"), required=True)
    p_fit.add_argument("--plus-one", action="store_true", dest="plus_one")
    p_fit.add_argument("--params-out", type=Path, required=True, dest="params_out")

    p_apply = sub.add_parser("apply", help="rewrite logs with recalibrated distributions")
    p_apply.add_argument("--logs", type=Path, required=True)
    p_apply.add_argument("--params", type=Path, required=True)
    p_apply.add_argument("--logs-out", type=Path, required=True, dest="logs_out")

    p_seqcal = sub.add_parser("seqcal", parents=[seed, out], help="sequence-level calibration experiment")
    p_seqcal.add_argument("--task", type=Path, required=True)
    p_seqcal.add_argument("--model", type=Path, required=True,
                          help='model spec JSON: {"distort": {...}?, "params": "path"?}')
    p_seqcal.add_argument("--samples", type=int, default=100)
    p_seqcal.add_argument("--n", type=int, required=True, help="number of evaluated sources")
    p_seqcal.add_argument("--bins", type=int, default=20)

    p_toy = sub.add_parser("toy", help="synthetic bench")
    toy_sub = p_toy.add_subparsers(dest="toy_command", required=True, parser_class=_Parser)

    p_gen = toy_sub.add_parser("gen", parents=[seed], help="emit teacher-forced logs")
    p_gen.add_argument("--spec", type=Path, required=True)
    p_gen.add_argument("--n", type=int, required=True, help="number of sequences")
    p_gen.add_argument("--distort", type=Path, default=None)
    p_gen.add_argument("--logs-out", type=Path, required=True, dest="logs_out")

    p_sweep = toy_sub.add_parser("beamsweep", parents=[seed, out], help="corpus BLEU per beam width")
    p_sweep.add_argument("--spec", type=Path, required=True)
    p_sweep.add_argument("--distort", type=Path, default=None)
    p_sweep.add_argument("--params", type=Path, default=None)
    p_sweep.add_argument("--beams", required=True, help="comma-separated beam widths")

    return parser


def _resolve_seed(args) -> int | None:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SEQCAL_SEED")
    try:
        return int(env) if env else None
    except ValueError as exc:
        raise UsageError(f"SEQCAL_SEED must be an integer, got {env!r}") from exc


def _parse_partition(text: str):
    kind, _, value = text.partition(":")
    if text == "eos":
        return PartitionSpec.eos()
    try:
        if kind == "entropy":
            return PartitionSpec.entropy(float(value))
        if kind == "token":
            return PartitionSpec.token(int(value))
        if kind == "headtail":
            if thresholds := [float(v) for v in value.split(",") if v]:
                return thresholds
            raise UsageError(f"--partition {text!r}: no thresholds")
    except ValueError as exc:
        raise UsageError(f"--partition {text!r}: {exc}") from exc
    raise UsageError(f"unknown partition {text!r}")


def _cmd_stats(args) -> int:
    bins = BinningConfig(args.bins)
    spec = None if args.partition is None else _parse_partition(args.partition)
    if spec is None:
        folds = [Calibration(bins)] + [Calibration(bins, weighted=True)] * args.weighted
    else:
        folds = [HeadTail(spec) if isinstance(spec, list) else Partition(spec, bins)]
    records = 0
    with open(args.logs, "r", encoding="utf-8") as handle:
        for batch in read_log_blocks(handle):  # a block of whole sequences at a time
            records += len(batch)
            for fold in folds:
                fold.add(batch)  # every fold reads the batch's one layout
            del batch  # with its layout, before the next block is read
    result = folds[-1].result()
    if spec is None:
        score, hist = result
        payload = {"metric": "ece", "score": score, "bins": export_reliability(hist)}
        summary = f"ece={score:.6f}"
        if args.weighted:
            plain_score = folds[0].result()[0]
            payload.update(metric="weighted_ece", ece=plain_score)
            summary = f"weighted_ece={score:.6f} ece={plain_score:.6f}"
        write_json(args.out, payload)
        write_reliability_csv(args.out.with_suffix(".csv"), payload["bins"])
        print(f"{summary} records={records} -> {args.out}")
    elif isinstance(spec, list):
        write_json(args.out, {"metric": "head_tail", "rows": result})
        print(f"head_tail thresholds={len(result)} records={records} -> {args.out}")
    else:
        groups = {label: {"ece": g.ece, "weighted_ece": g.weighted_ece, "count": g.count}
                  for label, g in result.items()}
        write_json(args.out, {"metric": "partitioned", "partition": args.partition, "groups": groups})
        parts = " ".join(f"{label}:{g.count}" for label, g in result.items())
        print(f"partition={args.partition} {parts} -> {args.out}")
    return 0


def _cmd_fit(args) -> int:
    records = read_log_file(args.logs)
    seed = _resolve_seed(args)
    if args.mode == "single":
        temperature = fit_single_temperature(records)
        save_params(args.params_out, SingleTemperature(temperature=temperature))
        print(f"mode=single temperature={temperature:.6f} records={len(records)} -> {args.params_out}")
        return 0
    params = fit_calibrator(
        records, TrainConfig(seed=0 if seed is None else seed), plus_one=args.plus_one
    )
    save_params(args.params_out, params)
    print(
        f"mode=variable plus_one={args.plus_one} w1={params.w1:.4f} w2={params.w2:.4f} "
        f"records={len(records)} -> {args.params_out}"
    )
    return 0


def _cmd_apply(args) -> int:
    rewritten = recalibrate_log(read_log_file(args.logs), load_params(args.params))
    rewritten.validate()
    write_log_file(args.logs_out, rewritten)
    print(f"recalibrated records={len(rewritten)} -> {args.logs_out}")
    return 0


def _model_spec(payload) -> tuple[DistortionSpec | None, Path | None]:
    """(distortion, params file) of a decoded model spec, None where absent;
    a malformed field raises SeqcalError naming it."""
    if not isinstance(payload, dict):
        raise SeqcalError("expected a JSON object")
    distortion, params = payload.get("distort"), payload.get("params")
    if params is not None and not isinstance(params, str):
        raise SeqcalError(f"field 'params' must be a file path, got {params!r}")
    try:
        distortion = None if distortion is None else DistortionSpec.from_payload(distortion)
    except SeqcalError as exc:
        raise SeqcalError(f"field 'distort': {exc}") from exc
    return distortion, None if params is None else Path(params)


def _load_model(task: ToyTaskSpec, distortion: DistortionSpec | None, params_path: Path | None = None):
    """The task's true model, distorted and then recalibrated where given."""
    model = build_true_model(task)
    if distortion is not None:
        model = distort(model, distortion)
    if params_path is not None:
        model = CalibratedModel(model, load_params(params_path))
    return model


def _distortion(path: Path | None) -> DistortionSpec | None:
    return None if path is None else DistortionSpec.load(path)


def _cmd_seqcal(args) -> int:
    task = ToyTaskSpec.load(args.task)
    distortion, params = read_json(args.model, _model_spec)
    # a relative params path names a file beside the spec; an absolute one stays as given
    model = _load_model(task, distortion, None if params is None else args.model.parent / params)
    result = sequence_calibration_experiment(
        model, task, n_eval=args.n, num_samples=args.samples, bins=BinningConfig(args.bins), seed=_resolve_seed(args),
    )
    payload = {
        "metric": "structured_ece",
        "score": result.score,
        "bins": export_reliability(result.histogram),
        "rows": result.rows,
    }
    write_json(args.out, payload)
    write_reliability_csv(args.out.with_suffix(".csv"), payload["bins"])
    print(f"structured_ece={result.score:.6f} n={args.n} samples={args.samples} -> {args.out}")
    return 0


def _cmd_toy_gen(args) -> int:
    task = ToyTaskSpec.load(args.spec)
    model = _load_model(task, _distortion(args.distort))
    seed = _resolve_seed(args)
    # drawn, teacher-forced, checked and written a block of whole sequences at a time
    records = write_log_file(args.logs_out, emit_log_blocks(model, task, args.n, task.seed if seed is None else seed))
    print(f"sequences={args.n} records={records} -> {args.logs_out}")
    return 0


def _cmd_toy_beamsweep(args) -> int:
    task = ToyTaskSpec.load(args.spec)
    model = _load_model(task, _distortion(args.distort), args.params)
    try:
        if not (beams := [int(b) for b in args.beams.split(",") if b]):
            raise UsageError(f"--beams {args.beams!r}: no beam widths")
    except ValueError as exc:
        raise UsageError(f"--beams must be comma-separated integers: {exc}") from exc
    rows = beam_sweep(model, task, beams, n_eval=BEAMSWEEP_EVAL_SOURCES, seed=_resolve_seed(args))
    write_json(args.out, {"metric": "beam_sweep", "rows": rows})
    summary = " ".join(f"B={r['beam_width']}:{r['corpus_bleu']:.4f}" for r in rows)
    print(f"beamsweep {summary} -> {args.out}")
    return 0


def run(argv) -> int:
    args = build_parser().parse_args(argv)  # every command and toy subcommand is required
    commands = {"stats": _cmd_stats, "fit": _cmd_fit, "apply": _cmd_apply, "seqcal": _cmd_seqcal,
                "gen": _cmd_toy_gen, "beamsweep": _cmd_toy_beamsweep}
    return commands[args.toy_command if args.command == "toy" else args.command](args)


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (SeqcalError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
