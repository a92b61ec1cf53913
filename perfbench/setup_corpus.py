"""Set-up step of a benchmark run, made in a fresh interpreter.

Imports the package, generates a workload's synthetic corpus, saves it and
loads it back: what a user pays before the first real command.

    python3 perfbench/setup_corpus.py --out DIR --workload NAME --seed N
"""
import argparse

from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    from segrsd.cli import main as cli_main
    from segrsd.data_io import load_corpus

    if cli_main(["synth", "--out", args.out, *WORKLOADS[args.workload].synth_args(args.seed)]):
        return 1
    corpus = load_corpus(args.out)
    print(sum(v.n_frames for v in corpus.videos))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
