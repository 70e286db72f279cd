"""Write one workload's synthetic dataset with iqcfit's own dataset writer.

    PYTHONPATH=src python perfbench/gen.py --kind passive --n 300 --tau 20 \
        --dim 2 --seed 7 --out DIR

Kinds:
  passive  static map y = A u + 0.2 tanh(u) with A symmetric positive
           definite, so sum_t <du, dy> >= 0 for every pair of trajectories.
  causal   single-channel FIR filter y_t = sum_k 0.6^k u_(t-k), so each
           output sample depends on the past input only.  The filter is
           fixed and only the inputs are drawn, so that the fitted model and
           its Picard iteration counts vary little from seed to seed.

The same arguments always write the same bytes.
"""

from __future__ import annotations

import argparse

import numpy as np

from iqcfit.signals import Dataset, Signal, TimeGrid, save_dataset


def passive_dataset(rng: np.random.Generator, n: int, tau: int,
                    dim: int) -> Dataset:
    grid = TimeGrid(tau)
    b = rng.standard_normal((dim, dim))
    gain = 0.5 * b @ b.T / dim + 0.1 * np.eye(dim)
    inputs = [rng.standard_normal((grid.size, dim)) for _ in range(n)]
    outputs = [u @ gain.T + 0.2 * np.tanh(u) for u in inputs]
    return Dataset(tuple(Signal(grid, u) for u in inputs),
                   tuple(Signal(grid, y) for y in outputs))


def causal_dataset(rng: np.random.Generator, n: int, tau: int) -> Dataset:
    grid = TimeGrid(tau)
    taps = 0.6 ** np.arange(grid.size)
    inputs = [rng.standard_normal(grid.size) for _ in range(n)]
    outputs = [np.convolve(u, taps)[: grid.size] for u in inputs]
    return Dataset(tuple(Signal(grid, u) for u in inputs),
                   tuple(Signal(grid, y) for y in outputs))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=["passive", "causal"], required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--tau", type=int, required=True)
    parser.add_argument("--dim", type=int, default=1)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    if args.kind == "passive":
        data = passive_dataset(rng, args.n, args.tau, args.dim)
    else:
        data = causal_dataset(rng, args.n, args.tau)
    save_dataset(data, args.out)


if __name__ == "__main__":
    main()
