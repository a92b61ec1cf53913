"""The three workloads: corpus make-up and the CLI commands of one round.

Every workload runs the README flow -- synth, segment, train-rsd for three
pipelines, evaluate -- on its own corpus. What differs is the make-up, which
decides which layer dominates: `walkthrough` starts one interpreter per
command, `long-videos` has few long videos (the minibatch trainers re-run
whole videos per batch), `many-stages` has eight stages per video (the TC
search enumerates orders of every present label).
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# Shared by every corpus. The small duration jitter keeps the frame count, and
# with it the amount of work, nearly the same for every seed.
SYNTH_FLAGS = ["--d", "12", "--order-rho", "8", "--jitter", "0.05"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    videos: int
    minutes: float
    k: int
    iterations: int
    rsd_epochs: int
    subprocess: bool  # one fresh interpreter per CLI command when untraced
    seg_epochs: int = 5  # classifier epochs per segmentation iteration
    tc_epochs: int = 10  # embedding warm-up epochs before the first iteration

    def synth_args(self, seed: int) -> list[str]:
        return ["--videos", str(self.videos), "--k", str(self.k),
                "--duration-mean", str(self.minutes), *SYNTH_FLAGS, "--seed", str(seed)]

    def commands(self, work: Path, seed: int) -> list[list[str]]:
        """argv of every CLI command of one round, in order."""
        corpus, seg = str(work / "corpus"), str(work / "seg")
        ckpt = str(work / "seg" / "segmentation.ckpt")
        s = str(seed)
        rsd = ["--corpus", corpus, "--epochs", str(self.rsd_epochs), "--seed", s]
        cmds = [
            ["synth", "--out", corpus, *self.synth_args(seed)],
            ["segment", "--corpus", corpus, "--out", seg, "--k", str(self.k),
             "--iterations", str(self.iterations), "--epochs", str(self.seg_epochs),
             "--tc-epochs", str(self.tc_epochs),
             "--select", f"{max(1, self.iterations - 2)}:{self.iterations}", "--seed", s],
        ]
        for pipeline, aux, loss in PIPELINES:
            cmds.append(["train-rsd", *rsd, "--out", str(work / f"rsd_{pipeline}"),
                         "--pipeline", pipeline, "--aux", aux, "--loss", loss]
                        + (["--checkpoint", ckpt] if aux == "seg" else []))
        cmds.append(["evaluate", "--corpus", corpus, "--out", str(work / "eval"),
                     "--split", "test", "--models", *[str(p) for p in self.models(work)], ckpt])
        return cmds

    def models(self, work: Path) -> list[Path]:
        """RSD checkpoint paths, in PIPELINES order; the last is the headline model."""
        return [work / f"rsd_{p}" / f"rsd_{p}_{aux}_{loss}.ckpt" for p, aux, loss in PIPELINES]


# (pipeline, aux task, loss) of each train-rsd command; the last is the paper's
# headline configuration
PIPELINES = (
    ("single", "none", "smoothl1"),
    ("feature", "seg", "smoothl1"),
    ("regularize", "seg", "corr"),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "walkthrough", "README CLI flow, one fresh interpreter per command: six imports of the package, then segmentation and the RSD trainers",
            videos=20, minutes=3.0, k=5, iterations=4, rsd_epochs=10, subprocess=True,
        ),
        Workload(
            "long-videos", "few 30-min videos: every minibatch re-runs whole videos, so the trainers dominate",
            videos=8, minutes=30.0, k=5, iterations=1, seg_epochs=2, tc_epochs=5, rsd_epochs=1,
            subprocess=False,
        ),
        Workload(
            "many-stages", "eight stages per video at K=8: the exhaustive TC search dominates segmentation",
            # enough epochs that every iteration after the first predicts all
            # eight labels on each video, so the search enumerates 8! orders
            # per call whatever the seed; the first iteration's 5-8 present
            # labels then vary the search's work by a few percent between seeds.
            # 30 train-rsd epochs keep each trainer's sample near a third of a
            # second, long enough to average the machine's fastest wobbles.
            videos=10, minutes=3.0, k=8, iterations=5, seg_epochs=15, tc_epochs=20,
            rsd_epochs=30, subprocess=False,
        ),
    )
}

# a tiny in-process round run before timing, so lazy imports and allocator pools settle
WARMUP = Workload("warmup", "", videos=8, minutes=0.5, k=3, iterations=1, rsd_epochs=1,
                  subprocess=False, seg_epochs=1, tc_epochs=1)
