"""Per-layer tracing of one ``seqcal`` CLI command, from outside the package.

Run as ``python benchmarks/tracer.py --spans-out FILE -- <seqcal argv>``.
It imports every ``seqcal`` module, replaces the functions and methods in
``TRACED`` with timing wrappers wherever a ``seqcal.*`` namespace binds
them, calls ``seqcal.cli.main(argv)`` in-process and writes the spans it
recorded to FILE (``.npz``) when the command ends. It exits with the
command's exit code. Nothing under ``src/`` is edited.

Every wrapped call becomes one span: name, start, end, parent span and an
``amount`` (bytes, rows or records, per ``TRACED``). Spans are appended to
in-memory lists; the parent index is known on entry because a span's slot
is reserved when the call starts. A name that no longer exists in the
package is listed as absent and does not fail the command.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from dataclasses import dataclass

import numpy as np


def _records(args, result):
    return float(len(args[0]))


# (module, qualified name, amount of work for one call or None)
TRACED = (
    ("records", "read_log_file", None),
    ("records", "write_log_file", None),
    ("records", "parse_log_line", None),
    ("records", "serialize_record", lambda args, result: float(len(result) + 1)),
    ("records", "validate_record", None),
    ("records", "densify", lambda args, result: float(args[0].vocab_size * 8)),
    ("features", "enrich", lambda args, result: float(len(result.steps))),
    ("features", "attention_entropy", None),
    ("features", "coverage", None),
    ("metrics", "ece", _records),
    ("metrics", "weighted_ece", _records),
    ("metrics", "partitioned_metric", None),
    ("metrics", "top1", None),
    ("recalibrate", "fit_calibrator", None),
    ("recalibrate", "fit_single_temperature", None),
    ("recalibrate", "apply_calibrator", None),
    ("recalibrate", "apply_single_temperature", None),
    ("recalibrate", "ScalarNet.forward", lambda args, result: float(np.size(args[1]))),
    ("recalibrate", "CalibratedModel.step", None),
    ("sequence", "beam_search", None),
    ("sequence", "sample_sequence", None),
    ("sequence", "expected_bleu", None),
    ("sequence", "sentence_bleu", None),
    ("sequence", "corpus_bleu", None),
    ("toybench", "emit_logs", lambda args, result: float(sum(len(s.steps) for s in result))),
    ("toybench", "ToyModel.step", None),
    ("toybench", "DistortedModel.step", None),
    ("cli", "run", None),
)

MODEL_STEPS = ("recalibrate.CalibratedModel.step", "toybench.DistortedModel.step", "toybench.ToyModel.step")


@dataclass
class Spans:
    """Spans of one command; span ``i`` is row ``i`` of every array."""

    names: list[str]
    name_idx: np.ndarray  # int, index into names
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray  # int, -1 for a root span
    amount: np.ndarray
    absent: tuple[str, ...] = ()  # traced names the package no longer has

    def save(self, path) -> None:
        with open(path, "wb") as handle:
            np.savez(
                handle, names=np.array(json.dumps([self.names, list(self.absent)])),
                name_idx=self.name_idx, start=self.start, end=self.end,
                parent=self.parent, amount=self.amount,
            )

    @classmethod
    def load(cls, path) -> "Spans":
        with np.load(path) as data:
            names, absent = json.loads(str(data["names"]))
            return cls(
                names=names, name_idx=data["name_idx"], start=data["start"], end=data["end"],
                parent=data["parent"], amount=data["amount"], absent=tuple(absent),
            )


def self_times(spans: Spans) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Calls run on one thread, so the children of a span never overlap and
    the time they cover is the sum of their durations.
    """
    duration = spans.end - spans.start
    has_parent = spans.parent >= 0
    covered = np.bincount(
        spans.parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - covered


@dataclass
class NameTotals:
    """Per-name sums over the spans of one or more commands."""

    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    amount: float = 0.0
    outer_calls: int = 0  # calls whose parent span is not a model step

    def add(self, other: "NameTotals") -> None:
        self.calls += other.calls
        self.inclusive_s += other.inclusive_s
        self.self_s += other.self_s
        self.amount += other.amount
        self.outer_calls += other.outer_calls


def totals_by_name(spans: Spans) -> dict[str, NameTotals]:
    """Calls, inclusive time, self time and amount per traced name.

    ``outer_calls`` counts model steps whose parent is not itself a model
    step, i.e. the calls a decoder makes, not the calls a wrapper model
    makes to the model it wraps.
    """
    own = self_times(spans)
    duration = spans.end - spans.start
    step_ids = [i for i, name in enumerate(spans.names) if name in MODEL_STEPS]
    is_step = np.isin(spans.name_idx, step_ids)
    parent_is_step = np.zeros(len(is_step), dtype=bool)
    rooted = spans.parent >= 0
    parent_is_step[rooted] = is_step[spans.parent[rooted]]
    out: dict[str, NameTotals] = {}
    for idx, name in enumerate(spans.names):
        mask = spans.name_idx == idx
        if not mask.any():
            continue
        out[name] = NameTotals(
            calls=int(mask.sum()),
            inclusive_s=float(duration[mask].sum()),
            self_s=float(own[mask].sum()),
            amount=float(spans.amount[mask].sum()),
            outer_calls=int((mask & ~parent_is_step).sum()),
        )
    return out


# Per-layer metric -> (unit, statistic, traced names). "incl" and "self" sum
# inclusive and self seconds, "calls" counts spans, "outer" counts model
# steps called by something other than a model step, "amount" sums the
# per-call amounts and "mb" sums them in megabytes.
PER_LAYER = (
    ("records.parse_s", "s", "incl", ("records.read_log_file",)),
    ("records.parse_lines", "count", "calls", ("records.parse_log_line",)),
    ("records.serialize_s", "s", "incl", ("records.write_log_file",)),
    ("records.serialize_mb", "MB", "mb", ("records.serialize_record",)),
    ("records.validate_s", "s", "incl", ("records.validate_record",)),
    ("records.validate_calls", "count", "calls", ("records.validate_record",)),
    ("records.densify_calls", "count", "calls", ("records.densify",)),
    ("records.densify_mb", "MB", "mb", ("records.densify",)),
    ("features.enrich_s", "s", "incl", ("features.enrich",)),
    ("features.enrich_steps", "count", "amount", ("features.enrich",)),
    ("features.entropy_calls", "count", "calls", ("features.attention_entropy",)),
    ("features.coverage_calls", "count", "calls", ("features.coverage",)),
    ("features.step_s", "s", "incl", ("features.attention_entropy", "features.coverage")),
    ("metrics.ece_s", "s", "incl", ("metrics.ece",)),
    ("metrics.weighted_ece_s", "s", "incl", ("metrics.weighted_ece",)),
    ("metrics.partition_s", "s", "incl", ("metrics.partitioned_metric",)),
    ("metrics.top1_calls", "count", "calls", ("metrics.top1",)),
    ("metrics.records_scored", "count", "amount", ("metrics.ece", "metrics.weighted_ece")),
    ("recalibrate.fit_variable_s", "s", "incl", ("recalibrate.fit_calibrator",)),
    ("recalibrate.net_forward_calls", "count", "calls", ("recalibrate.ScalarNet.forward",)),
    ("recalibrate.net_forward_rows", "count", "amount", ("recalibrate.ScalarNet.forward",)),
    ("recalibrate.fit_single_s", "s", "incl", ("recalibrate.fit_single_temperature",)),
    ("recalibrate.apply_s", "s", "incl", ("recalibrate.apply_calibrator", "recalibrate.apply_single_temperature")),
    ("recalibrate.apply_calls", "count", "calls", ("recalibrate.apply_calibrator", "recalibrate.apply_single_temperature")),
    ("recalibrate.calibrated_step_s", "s", "self", ("recalibrate.CalibratedModel.step",)),
    ("recalibrate.calibrated_step_calls", "count", "calls", ("recalibrate.CalibratedModel.step",)),
    ("sequence.beam_search_s", "s", "incl", ("sequence.beam_search",)),
    ("sequence.sample_s", "s", "incl", ("sequence.sample_sequence",)),
    ("sequence.expected_bleu_s", "s", "self", ("sequence.expected_bleu",)),
    ("sequence.bleu_s", "s", "incl", ("sequence.sentence_bleu", "sequence.corpus_bleu")),
    ("sequence.bleu_calls", "count", "calls", ("sequence.sentence_bleu", "sequence.corpus_bleu")),
    ("sequence.model_calls", "count", "outer", MODEL_STEPS),
    ("toybench.emit_s", "s", "incl", ("toybench.emit_logs",)),
    ("toybench.emit_records", "count", "amount", ("toybench.emit_logs",)),
    ("toybench.model_step_s", "s", "self", ("toybench.ToyModel.step", "toybench.DistortedModel.step")),
    ("toybench.model_step_calls", "count", "calls", ("toybench.ToyModel.step",)),
)

# Chain step labels; each gets cli.<label>.self_s, the self time of cli.run.
CLI_LABELS = ("gen", "fit_variable", "fit_single", "apply", "stats", "partition", "seqcal", "beamsweep")


def _statistic(totals: NameTotals, statistic: str) -> float:
    return {
        "incl": totals.inclusive_s,
        "self": totals.self_s,
        "calls": totals.calls,
        "outer": totals.outer_calls,
        "amount": totals.amount,
        "mb": totals.amount / 1e6,
    }[statistic]


def layer_metrics(traced: list[tuple[str, Spans]]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as (value, unit), over the traced commands of one
    chain, given as (label, spans) pairs. Layers the chain does not reach
    read 0."""
    overall: dict[str, NameTotals] = {}
    cli_self = dict.fromkeys(CLI_LABELS, 0.0)
    for label, spans in traced:
        for name, totals in totals_by_name(spans).items():
            overall.setdefault(name, NameTotals()).add(totals)
            if name == "cli.run":
                cli_self[label] += totals.self_s
    out: dict[str, tuple[float, str]] = {}
    for metric, unit, statistic, names in PER_LAYER:
        value = sum(_statistic(overall[n], statistic) for n in names if n in overall)
        out[metric] = (float(value), unit)
    for label, value in cli_self.items():
        out[f"cli.{label}.self_s"] = (value, "s")
    return out


class Tracer:
    """Installs the wrappers and owns the span lists they append to."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_idx: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.amount: list[float] = []
        self._stack: list[int] = []
        self.absent: list[str] = []

    def _wrap(self, fn, name: str, amount_fn):
        key = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            slot = len(self.start)
            self.name_idx.append(key)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.amount.append(0.0)
            self.end.append(0.0)
            self._stack.append(slot)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if amount_fn is not None:
                    self.amount[slot] = amount_fn(args, result)
                return result
            finally:
                self.end[slot] = clock()
                self._stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        importlib.import_module("seqcal.cli")
        namespaces = [m for n, m in sys.modules.items() if n == "seqcal" or n.startswith("seqcal.")]
        for module_name, qualname, amount_fn in TRACED:
            name = f"{module_name}.{qualname}"
            module = sys.modules.get(f"seqcal.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = module if not owner_name else getattr(module, owner_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(original, name, amount_fn)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for namespace in namespaces:
                for binding, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, binding, wrapper)

    def spans(self) -> Spans:
        return Spans(
            names=list(self.names),
            name_idx=np.asarray(self.name_idx, dtype=np.int64),
            start=np.asarray(self.start, dtype=np.float64),
            end=np.asarray(self.end, dtype=np.float64),
            parent=np.asarray(self.parent, dtype=np.int64),
            amount=np.asarray(self.amount, dtype=np.float64),
            absent=tuple(self.absent),
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    tracer = Tracer()
    tracer.install()
    import seqcal.cli

    code = seqcal.cli.main(command)
    tracer.spans().save(args.spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
