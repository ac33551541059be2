#!/usr/bin/env python3
"""Training-set-size ablation with simulated learners.

Two stub learners with different data efficiency are "trained" on nested
subsets of a synthetic dataset and scored on a held-out split; the script
then reports how much data the efficient learner needs to match the
other's full-data accuracy, and plots both curves.
"""

import argparse
import math
import random
from pathlib import Path

from ircount import corpus, harness
from ircount.cli import emit_plot
from ircount.corpus import CountLabel, Dataset, ImageRecord
from ircount.harness import DEFAULT_FRACTIONS, FractionCurve
from ircount.metrics import CountPair, count_metrics


def make_counts_dataset(n, seed):
    rng = random.Random(seed)
    return Dataset(
        "ablation",
        tuple(ImageRecord(f"img-{i:05d}", 64, 64, count=CountLabel(rng.randint(0, 13))) for i in range(n)),
    )


def simulated_learner(train_size, efficiency, ceiling, rng):
    """Returns a per-image predictor whose error rate shrinks with data.

    Accuracy follows a saturating curve: ceiling * (1 - exp(-size/efficiency)).
    """
    accuracy = ceiling * (1.0 - math.exp(-train_size / efficiency))

    def predict(record):
        truth = record.count.count
        if rng.random() < accuracy:
            return truth
        return max(0, truth + rng.choice([-2, -1, 1, 2]))

    return predict


def evaluate(predictor, test):
    pairs = [CountPair(r.id, r.count.count, predictor(r)) for r in test]
    return count_metrics(pairs).accuracy


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train-size", type=int, default=2000)
    parser.add_argument("--test-size", type=int, default=800)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out-dir", default="out/ablation")
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    full = make_counts_dataset(args.train_size + args.test_size, args.seed)
    train_pool, test = corpus.split_dataset(full, args.train_size, args.seed)
    subsets = harness.ablate_fractions(train_pool, DEFAULT_FRACTIONS, args.seed)

    # The hungry learner tops out higher but needs far more data; the
    # efficient one saturates early at a lower ceiling.
    learners = {
        "data-hungry": dict(efficiency=0.30 * args.train_size, ceiling=0.95),
        "data-efficient": dict(efficiency=0.125 * args.train_size, ceiling=0.80),
    }
    curves = {}
    for name, cfg in learners.items():
        rng = random.Random(f"{args.seed}-{name}")  # str seeds hash stably, unlike hash()
        accs = [
            evaluate(simulated_learner(len(subset), cfg["efficiency"], cfg["ceiling"], rng), test)
            for subset in subsets
        ]
        curves[name] = FractionCurve(DEFAULT_FRACTIONS, tuple(accs), label=name)
        emit_plot(curves[name], out / f"curve_{name}.svg")
        print(f"{name}: " + " ".join(f"{a:.3f}" for a in accs))

    target = curves["data-efficient"].accuracies[-1]
    needed = harness.break_even(curves["data-hungry"], target)
    if needed is None:
        print(f"data-hungry learner never reaches {target:.4f}")
    else:
        print(
            f"data-hungry learner matches the efficient one's full-data accuracy "
            f"({target:.4f}) with a {needed:.2f} fraction of the training data"
        )
    print(f"artifacts in {out}/")


if __name__ == "__main__":
    main()
