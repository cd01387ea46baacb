"""End-to-end benchmark of the ``seqcal`` CLI.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is not installed: every command
runs as ``python -m seqcal.cli ...`` would, in a child process with
``PYTHONPATH=<root>/src``, one child at a time, all on one CPU. A
workload's set-up writes its inputs (all derived from ``--seed``), then its
chain of CLI commands runs again and again until ``--seconds`` is used up.
Each command is timed with its exit code (``os.wait4``) and its peak RSS.
A fixed probe runs in this process before the first command and after each
one, and each command's time is reported rescaled by the probe times
around it, so that the host's drifting speed cancels out. After the loop the
benchmark checks the reports, and the last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
the chain also runs once under ``tracer.py`` (one traced child per
command) and the metrics are the per-layer ones plus the tracing overhead.
The line before the result holds the run's details: environment, time per
command, quality values and the outcome of every check. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sparse_gen
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = (3, 9)  # at least 3, and more while set-up has taken under SETUP_MIN_S
SETUP_MIN_S = 3.0
RUN_BUDGET_S = 170.0  # every run must end within 180 s
# The probe's median time on the 2-core VM the benchmark was written on; it
# only sets the scale of the normalised times, so it must never change.
PROBE_NOMINAL_S = 0.09
PROBE_WARMUP = 5
PROBE_REPEATS = 550


class Probe:
    """A fixed piece of numpy arithmetic: ``log1p`` over a 512 KB array.
    Its time, taken on the same CPU right before and after a command,
    measures how fast the host runs at that moment. Of the probes tried
    (JSON parsing, a Python loop over records, numpy on 21-element arrays,
    this one), this one's time tracked the commands' times best, on the
    decode and on the log workloads."""

    def __init__(self) -> None:
        self.data = np.random.default_rng(0).random(64_000)

    def __call__(self) -> float:
        """Runs the probe once and returns its wall time."""
        t0 = time.perf_counter()
        for _ in range(PROBE_REPEATS):
            np.log1p(self.data).sum()
        return time.perf_counter() - t0


def normalised(walls: list[float], probes: list[float]) -> list[float]:
    """Command times, each rescaled by the mean of the probes taken right
    before and right after it (``probes`` has one more entry): the time the
    command would take on a host that runs the probe in PROBE_NOMINAL_S."""
    return [w * 2.0 * PROBE_NOMINAL_S / (probes[i] + probes[i + 1]) for i, w in enumerate(walls)]


def chain_total(norm_walls: list[list[float]]) -> float:
    """Sum over the chain's commands of each command's median normalised time."""
    return sum(statistics.median(times) for times in zip(*norm_walls))


def pin_to_one_cpu() -> int:
    """Run this process, its probes and every child on one CPU, so that the
    probes time the CPU the commands run on."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


@dataclass(frozen=True)
class Command:
    label: str  # chain step name, e.g. "fit_variable"
    args: tuple[str, ...]  # seqcal CLI arguments
    outputs: tuple[str, ...]  # files it writes, relative to the work dir


# Runs seqcal.cli the way ``python -m seqcal.cli`` does and, at exit, writes
# the process's peak RSS (VmHWM, in kB) to $BENCH_HWM_FILE. The ru_maxrss that
# os.wait4 returns is no use here: a child starts as a vfork of this process,
# so its ru_maxrss is at least this process's own peak.
CLI_LAUNCHER = (
    "import atexit, os, runpy\n"
    "def hwm():\n"
    "    with open('/proc/self/status') as status:\n"
    "        kb = next(line.split()[1] for line in status if line.startswith('VmHWM:'))\n"
    "    with open(os.environ['BENCH_HWM_FILE'], 'w') as out:\n"
    "        out.write(kb)\n"
    "atexit.register(hwm)\n"
    "runpy.run_module('seqcal.cli', run_name='__main__', alter_sys=True)\n"
)


@dataclass
class Outcome:
    label: str
    wall_s: float
    rss_mb: float
    ok: bool


class Runner:
    """Starts one child at a time in the work dir and counts attempts and failures."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.checks: dict[str, bool] = {}
        pythonpath = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.env = {k: v for k, v in os.environ.items() if k != "SEQCAL_SEED"}
        self.env["PYTHONPATH"] = pythonpath
        self.hwm_file = work / "child.hwm"
        self.env["BENCH_HWM_FILE"] = str(self.hwm_file)

    def run(self, label: str, argv: list[str]) -> Outcome:
        self.attempted += 1
        log = self.work / "child.log"
        remaining = self.deadline - time.monotonic()
        with open(log, "wb") as sink:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=sink, stderr=sink)
            timer = threading.Timer(max(remaining, 0.1), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:  # interrupted or terminated: never leave the child running
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        ok = proc.returncode == 0
        if not ok:
            self.failed += 1
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            self.errors.append(f"{label}: exit {proc.returncode}: {tail}")
        return Outcome(label, wall, usage.ru_maxrss * 1024 / 1e6, ok)

    def cli(self, command: Command) -> Outcome:
        self.hwm_file.unlink(missing_ok=True)
        outcome = self.run(command.label, [sys.executable, "-c", CLI_LAUNCHER, *command.args])
        outcome.rss_mb = int(self.hwm_file.read_text()) * 1024 / 1e6 if outcome.ok else 0.0
        return outcome

    def traced(self, command: Command, spans_out: str) -> Outcome:
        argv = [sys.executable, str(BENCH_DIR / "tracer.py"), "--spans-out", spans_out, "--", *command.args]
        return self.run(command.label, argv)

    def check(self, name: str, passed: bool) -> None:
        """Record a check; a failed check counts as a failed operation."""
        self.attempted += 1
        self.checks[name] = passed
        if not passed:
            self.failed += 1
            self.errors.append(f"check failed: {name}")


def derived_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence((seed, stream)).generate_state(1)[0])


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, round(n * scale))


def _read_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _spec_script(temperature: float, eos_bias: float) -> str:
    """The README's way of writing a task spec, plus the distortion spec."""
    return (
        "from seqcal.toybench import DistortionSpec, ToyTaskSpec; "
        "ToyTaskSpec.two_way_default(eos_floor=0.02).save('task.json'); "
        f"DistortionSpec(temperature={temperature}, eos_bias={eos_bias}).save('distort.json')"
    )


@dataclass
class Quality:
    values: dict[str, float] = field(default_factory=dict)
    # value name -> (gate the run must pass, stricter target it is reported against)
    gates: dict[str, tuple[float, float]] = field(default_factory=dict)


class Workload:
    name: str
    setup_outputs: tuple[str, ...]  # must be byte-identical across set-ups

    def references(self) -> list[Command]:
        """Untimed commands whose outputs the checks compare against."""
        return []


class ToyPipeline(Workload):
    """The paper's loop on dense V=21 toy logs: gen -> fit -> apply -> stats."""

    name = "toy-pipeline"
    setup_outputs = ("task.json", "distort.json")

    def __init__(self, seed: int, scale: float):
        self.seed = seed
        self.n_val = _scaled(100, scale, 5)
        self.n_test = _scaled(1500, scale, 10)

    def setup(self, runner: Runner) -> bool:
        return runner.run("spec", [sys.executable, "-c", _spec_script(0.5, 1.5)]).ok

    def chain(self) -> list[Command]:
        gen = ("toy", "gen", "--spec", "task.json", "--distort", "distort.json")
        return [
            Command("gen", (*gen, "--n", str(self.n_val), "--seed", str(derived_seed(self.seed, 1)),
                            "--logs-out", "val.jsonl"), ("val.jsonl",)),
            Command("gen", (*gen, "--n", str(self.n_test), "--seed", str(derived_seed(self.seed, 2)),
                            "--logs-out", "test.jsonl"), ("test.jsonl",)),
            Command("fit_variable", ("fit", "--logs", "val.jsonl", "--mode", "variable", "--seed",
                                     str(derived_seed(self.seed, 3)), "--params-out", "params.json"),
                    ("params.json",)),
            Command("apply", ("apply", "--logs", "test.jsonl", "--params", "params.json",
                              "--logs-out", "recal.jsonl"), ("recal.jsonl",)),
            Command("stats", ("stats", "--logs", "recal.jsonl", "--weighted", "--out", "stats.json"),
                    ("stats.json", "stats.csv")),
            Command("partition", ("stats", "--logs", "recal.jsonl", "--partition", "eos",
                                  "--out", "partition.json"), ("partition.json",)),
        ]

    def references(self) -> list[Command]:
        """The uncalibrated test log's score, for the ECE check."""
        return [Command("reference", ("stats", "--logs", "test.jsonl", "--weighted",
                                      "--out", "stats_distorted.json"), ("stats_distorted.json",))]

    def evaluate(self, work: Path, runner: Runner) -> Quality:
        stats = _read_json(work / "stats.json")
        before = _read_json(work / "stats_distorted.json")["score"]
        groups = _read_json(work / "partition.json")["groups"]
        with open(work / "recal.jsonl", "rb") as handle:
            records = sum(1 for _ in handle)
        runner.check("partition_counts", sum(g["count"] for g in groups.values()) == records)
        runner.check("ece_after", stats["score"] < before)
        return Quality(
            values={"ece_after": stats["score"], "ece_after_top1": stats["ece"], "ece_before": before},
            gates={"ece_after": (before, 0.01)},
        )


class Sparse32k(Workload):
    """NMT-shaped V=32000 top-10 log: stats, entropy partition, single fit, apply."""

    name = "sparse-32k"
    setup_outputs = ("sparse.jsonl", "fit.jsonl", "apply.jsonl")
    temperature_gate = 0.15  # halfway to the 0.3 of a fit that changes nothing

    def __init__(self, seed: int, scale: float):
        self.seed = seed
        self.sequences = _scaled(sparse_gen.SEQUENCES, scale, 4)
        self.fit_records = _scaled(100, scale, 5)
        self.apply_records = _scaled(10, scale, 2)
        self.log: sparse_gen.SparseLog | None = None

    def setup(self, runner: Runner) -> bool:
        work = runner.work
        self.log = sparse_gen.generate(work / "sparse.jsonl", derived_seed(self.seed, 1), self.sequences)
        with open(work / "sparse.jsonl", "r", encoding="utf-8") as handle:
            head = [next(handle) for _ in range(max(self.fit_records, self.apply_records))]
        (work / "fit.jsonl").write_text("".join(head[: self.fit_records]), encoding="utf-8")
        (work / "apply.jsonl").write_text("".join(head[: self.apply_records]), encoding="utf-8")
        return True

    def chain(self) -> list[Command]:
        threshold = repr(self.log.entropy_median)
        return [
            Command("stats", ("stats", "--logs", "sparse.jsonl", "--weighted", "--out", "stats.json"),
                    ("stats.json", "stats.csv")),
            Command("partition", ("stats", "--logs", "sparse.jsonl", "--partition", f"entropy:{threshold}",
                                  "--out", "partition.json"), ("partition.json",)),
            Command("fit_single", ("fit", "--logs", "fit.jsonl", "--mode", "single",
                                   "--params-out", "params.json"), ("params.json",)),
            Command("apply", ("apply", "--logs", "apply.jsonl", "--params", "params.json",
                              "--logs-out", "recal.jsonl"), ("recal.jsonl",)),
        ]

    def evaluate(self, work: Path, runner: Runner) -> Quality:
        groups = _read_json(work / "partition.json")["groups"]
        runner.check("partition_counts", sum(g["count"] for g in groups.values()) == self.log.records)
        temperature = _read_json(work / "params.json")["temperature"]
        err = abs(temperature * sparse_gen.SHARPEN_T - 1.0)
        runner.check("temperature_err", err < self.temperature_gate)
        return Quality(
            values={"temperature_err": err, "temperature": temperature,
                    "weighted_ece": _read_json(work / "stats.json")["score"]},
            gates={"temperature_err": (self.temperature_gate, 0.05)},
        )


class Decode(Workload):
    """Beam search, sampling and BLEU on a calibrated toy model; no log IO is timed."""

    name = "decode"
    setup_outputs = ("task.json", "distort.json", "val.jsonl", "params.json", "model.json")
    beams = "1,8"

    def __init__(self, seed: int, scale: float):
        self.seed = seed
        self.n_val = _scaled(60, scale, 5)
        self.n_eval = _scaled(20, scale, 2)
        self.samples = _scaled(100, scale, 5)

    def setup(self, runner: Runner) -> bool:
        commands = [
            Command("gen", ("toy", "gen", "--spec", "task.json", "--distort", "distort.json", "--n",
                            str(self.n_val), "--seed", str(derived_seed(self.seed, 1)),
                            "--logs-out", "val.jsonl"), ("val.jsonl",)),
            Command("fit_variable", ("fit", "--logs", "val.jsonl", "--mode", "variable", "--seed",
                                     str(derived_seed(self.seed, 2)), "--params-out", "params.json"),
                    ("params.json",)),
        ]
        if not runner.run("spec", [sys.executable, "-c", _spec_script(1.0, 2.5)]).ok:
            return False
        if not all(runner.cli(command).ok for command in commands):
            return False
        model = {"distort": {"temperature": 1.0, "eos_bias": 2.5}, "params": "params.json"}
        (runner.work / "model.json").write_text(json.dumps(model), encoding="utf-8")
        return True

    def chain(self) -> list[Command]:
        seed = str(derived_seed(self.seed, 3))
        return [
            Command("seqcal", ("seqcal", "--task", "task.json", "--model", "model.json", "--samples",
                               str(self.samples), "--n", str(self.n_eval), "--seed", seed,
                               "--out", "seqcal.json"), ("seqcal.json", "seqcal.csv")),
            Command("beamsweep", ("toy", "beamsweep", "--spec", "task.json", "--distort", "distort.json",
                                  "--params", "params.json", "--beams", self.beams, "--seed", seed,
                                  "--out", "sweep.json"), ("sweep.json",)),
        ]

    def references(self) -> list[Command]:
        """The uncalibrated model's sweep on the same sources, for the drop check."""
        seed = str(derived_seed(self.seed, 3))
        return [Command("reference", ("toy", "beamsweep", "--spec", "task.json", "--distort", "distort.json",
                                      "--beams", self.beams, "--seed", seed, "--out", "sweep_distorted.json"),
                        ("sweep_distorted.json",))]

    def evaluate(self, work: Path, runner: Runner) -> Quality:
        def drop(path: str) -> float:
            bleu = {r["beam_width"]: r["corpus_bleu"] for r in _read_json(work / path)["rows"]}
            return bleu[1] - bleu[8]

        calibrated, distorted = drop("sweep.json"), drop("sweep_distorted.json")
        runner.check("beam_bleu_drop", calibrated < distorted)
        return Quality(
            values={"structured_ece": _read_json(work / "seqcal.json")["score"],
                    "beam_bleu_drop": calibrated, "distorted_beam_bleu_drop": distorted},
            gates={"beam_bleu_drop": (distorted, 0.01)},
        )


WORKLOADS = {w.name: w for w in (ToyPipeline, Sparse32k, Decode)}

END_TO_END = {"setup_s": "s", "total_norm_s": "s", "peak_rss_mb": "MB", "out_mb": "MB"}


def digests(work: Path, names) -> dict[str, str]:
    return {name: hashlib.sha256((work / name).read_bytes()).hexdigest() for name in names}


def tree_digest() -> str:
    """Identifies the program and benchmark code, so stored report digests
    are only compared within one version of both."""
    h = hashlib.sha256()
    for base in (SRC, BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def environment(args, source: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": args.nproc,
        "pinned_cpu": args.cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}".strip(),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_sha": sha,
        "tree_sha256": source,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
    }


def compare_stored(store: Path, seen: dict[str, str]) -> bool:
    """Reports of an earlier run with the same seed and code must match."""
    if store.exists():
        return _read_json(store) == seen
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(seen, sort_keys=True), encoding="utf-8")
    os.replace(tmp, store)
    return True


def run_workload(args, work: Path) -> tuple[dict, dict]:
    started = time.monotonic()
    runner = Runner(work, started + RUN_BUDGET_S)
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    source = tree_digest()
    detail: dict = {"env": environment(args, source)}

    probe = Probe()
    for _ in range(PROBE_WARMUP):
        probe()
    setup_times, setup_probes, setup_digests = [], [probe()], []
    least, most = (1, 1) if args.trace else SETUP_REPEATS
    while len(setup_times) < least or (sum(setup_times) < SETUP_MIN_S and len(setup_times) < most):
        t0 = time.perf_counter()
        ok = workload.setup(runner)
        setup_times.append(time.perf_counter() - t0)
        setup_probes.append(probe())
        if not ok:
            break
        setup_digests.append(digests(work, workload.setup_outputs))
    setup_ok = len(setup_digests) == len(setup_times)
    runner.check("setup_repeats", setup_ok and all(d == setup_digests[0] for d in setup_digests))

    chain = workload.chain() if setup_ok else []
    outputs = [name for command in chain for name in command.outputs]
    totals, norm_walls, walls_by_label, rss, out_bytes, report_digests = [], [], {}, [], 0, []
    probe_times: list[list[float]] = []
    command_walls: list[list[float]] = []
    loop_start = time.perf_counter()
    iteration_walls: list[float] = []
    while chain:
        t0 = time.perf_counter()
        outcomes, probes = [], [probe()]
        for command in chain:
            outcomes.append(runner.cli(command))
            probes.append(probe())
            if not outcomes[-1].ok:
                break
        iteration_walls.append(time.perf_counter() - t0)
        probe_times.append(probes)
        command_walls.append([o.wall_s for o in outcomes])
        if not outcomes[-1].ok:
            break
        totals.append(sum(o.wall_s for o in outcomes))
        norm_walls.append(normalised([o.wall_s for o in outcomes], probes))
        rss.extend(o.rss_mb for o in outcomes)
        per_label: dict[str, float] = {}
        for o in outcomes:
            per_label[o.label] = per_label.get(o.label, 0.0) + o.wall_s
        for label, wall in per_label.items():
            walls_by_label.setdefault(label, []).append(wall)
        out_bytes = sum((work / name).stat().st_size for name in outputs)
        report_digests.append(digests(work, outputs))
        elapsed = time.perf_counter() - loop_start
        if elapsed + statistics.median(iteration_walls) > args.seconds:
            break

    traced: list[tuple[str, tracer.Spans]] = []
    traced_total = 0.0
    if args.trace and totals:
        traced_walls, probes = [], [probe()]
        for i, command in enumerate(chain):
            spans_file = f"spans-{i}.npz"
            outcome = runner.traced(command, spans_file)
            probes.append(probe())
            traced_walls.append(outcome.wall_s)
            if not outcome.ok:
                break
            traced.append((command.label, tracer.Spans.load(work / spans_file)))
        traced_total = sum(normalised(traced_walls, probes))
        if len(traced) == len(chain):
            report_digests.append(digests(work, outputs))

    # a command that failed is already counted; the checks below need every output
    complete = bool(totals) and (not args.trace or len(traced) == len(chain))
    for command in workload.references() if complete else []:
        complete = runner.cli(command).ok and complete
    if complete:
        runner.check("reports_repeat", all(d == report_digests[0] for d in report_digests))
        key = f"{source[:16]}-{args.workload}-{args.seed}-{args.scale}.json"
        runner.check("reports_match_stored", compare_stored(WORK / "digests" / key, report_digests[0]))
        try:
            quality = workload.evaluate(work, runner)
        except (KeyError, TypeError, ValueError) as exc:
            runner.errors.append(f"reports: {exc!r}")
            runner.check("reports_readable", False)
        else:
            detail["quality"] = quality.values
            detail["gates"] = {
                name: {"gate": gate, "target": target, "within_target": quality.values[name] < target}
                for name, (gate, target) in quality.gates.items()
            }

    detail.update({
        "checks": runner.checks,
        "iterations": len(totals),
        "setup_s": setup_times,
        "setup_probes_s": setup_probes,
        "totals_s": totals,
        "norm_totals_s": [sum(walls) for walls in norm_walls],
        "command_walls_s": command_walls,
        "probes_s": probe_times,
        "command_median_s": {label: statistics.median(w) for label, w in walls_by_label.items()},
        "errors": runner.errors,
    })
    if args.trace:
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in tracer.layer_metrics(traced).items()}
        overhead = traced_total / chain_total(norm_walls) - 1.0 if traced else 0.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        detail["absent"] = sorted({name for _, spans in traced for name in spans.absent})
    else:
        values = {
            "setup_s": statistics.median(normalised(setup_times, setup_probes)),
            "total_norm_s": chain_total(norm_walls) if norm_walls else sum(iteration_walls),
            "peak_rss_mb": max(rss, default=0.0),
            "out_mb": out_bytes / 1e6,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {
        "correct": runner.failed == 0 and all(runner.checks.values()),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor; below 1 for smoke tests")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "seqcal" / "cli.py").is_file():
        print(f"error: no seqcal package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    args.nproc = len(os.sched_getaffinity(0))
    args.cpu = pin_to_one_cpu()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result, detail = run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
