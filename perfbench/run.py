"""Benchmark of the segrsd package: one workload per run, metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from `src/`
and driven as `python -m segrsd.cli` (or `segrsd.cli.main` in-process).
With `--trace 0` the last stdout line holds the end-to-end metrics listed in
BENCHMARK.json, with `--trace 1` the per-layer ones. Working files go under
`.perfbench_out/<workload>/`. See perfbench/README.md.
"""
import os

# One BLAS/OpenMP thread in this process and every child: on two cores the
# default pool doubles the CPU time of a segmentation run without shortening
# it, and the second thread competes with whatever else the machine runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import layers
import oracles
from spans import Tracer
from workloads import WARMUP, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
IMPORT_REPEATS = 3
PREDICT_SECONDS = 1.0
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    """A fresh interpreter; killed and reaped if it outlives the run's limit."""
    return subprocess.run([sys.executable, *argv], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def run_cli(argv: list[str], in_process: bool) -> int:
    """One CLI command; returns its exit code (-1 for an escaped exception)."""
    if not in_process:
        proc = run_child(["-m", "segrsd.cli", *argv])
        if proc.returncode:
            sys.stderr.write(proc.stderr)
        return proc.returncode
    from segrsd.cli import main

    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink):
            return main(argv)
    except Exception:  # a crash counts as a failed command, the run goes on
        traceback.print_exc()
        return -1


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.wrong.append(f"{name}: {detail}")


@dataclass
class Round:
    commands: list[str]  # CLI subcommand of each step, in order
    seconds: list[float]  # wall time of each step


def run_round(wl: Workload, work: Path, seed: int, in_process: bool, tally: Tally,
              tracer: Tracer | None = None) -> Round:
    """Every CLI command of the workload, each counted as one operation."""
    done = Round([], [])
    for argv in wl.commands(work, seed):
        t0 = time.perf_counter()
        if tracer is None:
            code = run_cli(argv, in_process)
        else:
            with tracer.span(f"cli.{argv[0]}"):
                code = run_cli(argv, in_process)
        done.seconds.append(time.perf_counter() - t0)
        done.commands.append(argv[0])
        tally.attempted += 1
        if code != 0:
            tally.failed += 1
            print(f"{argv[0]} exited with {code}", file=sys.stderr)
    return done


def median_times(rounds: list[Round]) -> dict[str, float]:
    """Each step's median time over the rounds, summed per subcommand and overall.

    The machine's speed wanders by tens of percent, in spells from
    milliseconds to minutes. Rounds repeat back to back for the whole run, so
    the median of each step stands for the run's whole window, not for the
    one spell that a single round, or the fastest of a few, happened to hit.
    """
    med = [statistics.median(column) for column in zip(*(r.seconds for r in rounds))]
    out = {"wall": sum(med)}
    for command, t in zip(rounds[0].commands, med):
        out[command] = out.get(command, 0.0) + t
    return out


def check_outputs(wl: Workload, work: Path, tally: Tally) -> dict:
    """Checks of one round's outputs against figures computed in `oracles`."""
    import numpy as np
    from segrsd.appearance import forward
    from segrsd.data_io import load_corpus, load_rsd_checkpoint, load_seg_checkpoint
    from segrsd.errors import SegrsdError
    from segrsd.rsd import predict_video

    info: dict = {}
    try:
        corpus = load_corpus(work / "corpus")
        ckpt = load_seg_checkpoint(work / "seg" / "segmentation.ckpt")
        report = (work / "eval" / "evaluate_report.txt").read_text()
        models = [load_rsd_checkpoint(p)[0] for p in wl.models(work)]
    except (OSError, SegrsdError) as exc:  # a failed command left no output
        print(f"outputs missing: {exc}", file=sys.stderr)
        missed = 3 + len(wl.models(work))  # the checks below
        tally.attempted += missed
        tally.failed += missed
        return info
    train, test = corpus.by_split("train"), corpus.by_split("test")

    preds = [np.argmax(forward(ckpt.appearance, v), axis=1) for v in train]
    tc = oracles.tc_score(preds)
    same = tc == ckpt.tc_score if wl.k <= 8 else tc >= ckpt.tc_score
    tally.check("tc", same, f"subset DP {tc!r}, checkpoint {ckpt.tc_score!r}")

    naive = oracles.naive_mae([v.n_frames for v in train], [v.n_frames for v in test],
                              train[0].frame_period_s)
    reported = [l for l in report.splitlines() if l.startswith("naive_mae=")]
    reported_value = float(reported[0].split("=")[1]) if reported else float("nan")
    tally.check("naive_mae", abs(naive - reported_value) <= 0.5e-4 + 1e-12,
                f"recomputed {naive:.6f}, evaluate reports {reported_value}")

    ids = sorted(ckpt.labels)
    acc = oracles.one_to_one_accuracy(
        np.concatenate([ckpt.labels[i] for i in ids]),
        np.concatenate([corpus.video(i).phase_labels for i in ids]))
    tally.check("seg_label_acc", acc >= 2.0 / wl.k, f"{acc:.4f} against chance {1 / wl.k:.4f}")
    info["seg_label_acc"] = acc

    for path, params in zip(wl.models(work), models):
        pred = [predict_video(params, v) for v in test]
        ok = all(p.shape == (v.n_frames,) and np.all(np.isfinite(p)) for p, v in zip(pred, test))
        tally.check(f"predictions {path.name}", ok, "not one finite value per frame")
        info[f"test_mae.{path.parent.name}"] = float(np.mean(
            [np.mean(np.abs(p - v.remaining_min())) for p, v in zip(pred, test)]))
    info["rsd_test_mae_min"] = info[f"test_mae.{wl.models(work)[-1].parent.name}"]
    info["naive_mae"] = naive
    info["tc"] = tc
    return info


def predict_rates(wl: Workload, work: Path, seconds: float) -> list[float]:
    """frames/s of repeated predict_video passes over every video of the corpus."""
    from segrsd.data_io import load_corpus, load_rsd_checkpoint
    from segrsd.rsd import predict_video

    params, _ = load_rsd_checkpoint(wl.models(work)[-1])
    videos = load_corpus(work / "corpus").videos
    frames = sum(v.n_frames for v in videos)
    rates = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or len(rates) < 5:
        t0 = time.perf_counter()
        for v in videos:
            predict_video(params, v)
        rates.append(frames / (time.perf_counter() - t0))
    return rates


def fresh_setup(wl: Workload, work: Path, seed: int) -> float:
    """Wall time of one fresh interpreter that generates, saves and loads the corpus."""
    t0 = time.perf_counter()
    proc = run_child([str(HERE / "setup_corpus.py"), "--out", str(work / "corpus"),
                      "--workload", wl.name, "--seed", str(seed)])
    elapsed = time.perf_counter() - t0
    if proc.returncode:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return elapsed


def import_seconds() -> float:
    code = ("import time; t = time.perf_counter(); import segrsd; "
            "print(time.perf_counter() - t)")
    proc = run_child(["-c", code])
    if proc.returncode:
        raise RuntimeError(f"import failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(wl: Workload, seed: int, seconds: float, trace: bool, work: Path,
            tally: Tally) -> tuple[dict, dict]:
    fresh_setup(wl, work, seed)  # untimed: warms the file cache and writes bytecode
    sys.path.insert(0, str(SRC))
    in_process = trace or not wl.subprocess
    if in_process:
        run_round(WARMUP, OUT / "warmup", seed, True, Tally())

    if not trace:
        # Set-up, round, checks and prediction passes alternate for the whole
        # run, so that every metric is a median over the same window of time.
        setups, rounds, rates = [], [], []
        start = time.perf_counter()
        while True:
            setups.append(fresh_setup(wl, work, seed))
            rounds.append(run_round(wl, work, seed, in_process, tally))
            info = check_outputs(wl, work, tally)
            rates += predict_rates(wl, work, PREDICT_SECONDS)
            spent = time.perf_counter() - start
            if len(rounds) >= MIN_ROUNDS and spent * (len(rounds) + 1) / len(rounds) > seconds:
                break  # another round would end past the run's length
        med = median_times(rounds)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": med["wall"],
            "segment_s": med["segment"],
            "train_rsd_s": med["train-rsd"],
            "predict_frames_per_s": statistics.median(rates),
            "peak_rss_mb": peak_rss_mb(children=not in_process),
        }
        return values, dict(info, rounds=len(rounds))

    untraced = run_round(wl, work, seed, True, tally)
    check_outputs(wl, work, tally)
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = run_round(wl, work, seed, True, tally, tracer)
    finally:
        tracer.restore()
    info = check_outputs(wl, work, tally)
    tracer.write(work / "spans.jsonl")
    values = layers.figures(tracer)
    values["import.segrsd_s"] = statistics.median(import_seconds() for _ in range(IMPORT_REPEATS))
    values["data_io.corpus_bytes"] = directory_bytes(work / "corpus")
    values["trace.overhead_s"] = sum(traced.seconds) - sum(untraced.seconds)
    values["rsd.test_mae_min"] = info.get("rsd_test_mae_min", 0.0)
    values["segtrain.seg_label_acc"] = info.get("seg_label_acc", 0.0)
    return values, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "segrsd" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no package under {SRC} or no {spec_path.name}: run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    wl = WORKLOADS[args.workload]
    work = OUT / wl.name
    shutil.rmtree(OUT, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    values, info = measure(wl, args.seed, args.seconds, bool(args.trace), work, tally)

    for line in tally.wrong:
        print(f"CHECK FAILED {line}", file=sys.stderr)
    print(f"{wl.name} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in info.items()))
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
