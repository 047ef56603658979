#!/usr/bin/env python3
"""End-to-end demo on synthetic traffic: no dataset download required.

Generates schema-conformant records, then runs the proposed pipeline
(hybrid CFS+IG selection over MDL-discretized features, AdaBoost.M1 with a
naive Bayes base learner, 10-fold stratified cross-validation) and prints
the per-class report next to the unboosted baseline.
"""

import argparse
import time

from idspipe.config import ClassifierConfig, ExperimentConfig, SelectionConfig
from idspipe.data import parse_records
from idspipe.evaluate import cross_validate
from idspipe.synth import synthetic_lines


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-n", type=int, default=8000, help="records to simulate")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--k", type=int, default=10)
    args = ap.parse_args()

    ds = parse_records(synthetic_lines(args.n, seed=args.seed))
    print(f"simulated {len(ds)} records, {len(ds.label_set())} classes")

    for boost in (False, True):
        config = ExperimentConfig(
            discretization="leaky",
            selection=SelectionConfig(method="hybrid"),
            classifier=ClassifierConfig(boost=boost, rounds=args.rounds),
        )
        start = time.monotonic()
        report = cross_validate(ds, config, k=args.k, seed=args.seed)
        elapsed = time.monotonic() - start
        print(f"\n=== hybrid selection + {config.classifier.kind} ({elapsed:.1f}s) ===")
        print(report.format_table())


if __name__ == "__main__":
    main()
