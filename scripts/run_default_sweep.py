#!/usr/bin/env python3
"""Default experiment grid: n in {256, 1024, 4096, 16384} x 10 seeds on the
standard (X=5, A=3, d=4, gamma=0.9) environment, auto-tuned solver with the
iteration count capped at 20000. Writes the results CSV and prints the median
mean-iterate suboptimality per sample size."""

import argparse
import warnings

from fogas import harness
from fogas.data import SAMPLING_MODES


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results.csv")
    parser.add_argument("--behavior", default="uniform")
    parser.add_argument("--mode", default="uniform", choices=SAMPLING_MODES)
    parser.add_argument("--t-cap", type=int, default=20000)
    args = parser.parse_args()

    warnings.filterwarnings("ignore", message="auto-tuned run with T=")
    config = harness.ExperimentConfig(
        mdp={"states": 5, "actions": 3, "dim": 4, "gamma": 0.9, "seed": 0},
        behavior=args.behavior,
        sampling_mode=args.mode,
        fogas={"auto_tune": True, "T_cap": args.t_cap},
    )
    records = harness.run_sweep(config)
    harness.write_records(records, args.out)
    print(f"wrote {len(records)} rows to {args.out}")
    print("n,median_mean_suboptimality")
    for n, median in harness.summarize_by_n(records).items():
        print(f"{n},{median:.6g}")


if __name__ == "__main__":
    main()
