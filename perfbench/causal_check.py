"""Causality check of a causal-diagonal bundle, as acceptance criterion 09 does it.

    PYTHONPATH=src python perfbench/causal_check.py --model DIR --pairs 4 \
        --seed 7 --out DIR

`iqcfit check` refuses kernels whose certificate is UNKNOWN, so this job
takes the route criterion 09 takes: load the bundle, use its tuned norm as
the Lipschitz bound of the fitted operator under passivity scattering, and
run the truncation test of R on every horizon over seeded probe pairs.
Writes causality_report.json; exits 0 when the test passes at tol 1e-8 and 1
otherwise.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from iqcfit.inversion import causality_check_r, scattered_from_operator
from iqcfit.rkhs import evaluate, load_fitted
from iqcfit.signals import random_signal
from iqcfit.supply import factor_phi, passivity_supply

TOL = 1e-8


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    model = load_fitted(args.model)
    factors = factor_phi(passivity_supply(model.input_dim))
    scattered = scattered_from_operator(
        lambda s: evaluate(model, s), model.rkhs_norm, factors, model.grid)
    rng = np.random.default_rng(args.seed)
    pairs = [(random_signal(model.grid, model.input_dim, rng),
              random_signal(model.grid, model.input_dim, rng))
             for _ in range(args.pairs)]
    report = causality_check_r(scattered, pairs, tol=TOL)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "causality_report.json").write_text(json.dumps(
        {**asdict(report), "epsilon": scattered.epsilon}, indent=2,
        sort_keys=True) + "\n")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
