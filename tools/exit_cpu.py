"""CPU a CLI step spends after `main()` returns: interpreter exit.

    OPENBLAS_NUM_THREADS=1 python3 tools/exit_cpu.py [--src DIR ...] \
        [--runs N] [--seed S]

Runs the benchmark's CLI steps (perfbench/run.py's workloads and step
commands: every bundle step, and every check step but causal-truncation's,
which is perfbench/causal_check.py) as child processes that enter through
`iqcfit.cli.console_main`, as the `iqcfit` script and `python -m
iqcfit.cli` do.  Each child records `time.process_time()` when `main`
returns; its exit cost is its whole CPU time (user plus system, from
`wait4`) minus that.

Each `--src` is a checkout's `src/` directory (default: this checkout's).
With several, rounds alternate between them, so they see the same moments
of a shared machine.  Inputs are written once, with `perfbench/gen.py`,
from the first `--src`.  Prints one line per source and step (medians in
ms) and, last, one JSON object with every sample.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import run as bench  # noqa: E402  the benchmark's workloads and steps

# The child: time main's return, then leave through console_main.
PROBE = """
import sys, time
from iqcfit import cli
main, stamp_path = cli.main, sys.argv[1]
def timed(argv=None):
    code = main(argv)
    stamp = time.process_time()
    with open(stamp_path, "w") as f:
        f.write(repr(stamp))
    return code
cli.main = timed
sys.argv = ["iqcfit", *sys.argv[2:]]
cli.console_main()
"""


def write_inputs(work: Path, src: str, seed: int) -> dict[str, Path]:
    """Each dataset workload's data, as perfbench's set-up writes it."""
    env = {**os.environ, "PYTHONPATH": src}
    data = {}
    for w in bench.WORKLOADS.values():
        if w.kind != "reproduce":
            data[w.name] = work / w.name / "data"
            subprocess.run(
                [sys.executable, str(bench.BENCH / "gen.py"), "--kind", w.kind,
                 "--n", str(w.n), "--tau", str(w.tau), "--dim", str(w.dim),
                 "--seed", str(seed), "--out", str(data[w.name])],
                env=env, check=True)
        if w.kind == "causal":
            (work / w.name / "kernel.json").write_text(
                json.dumps(bench.CAUSAL_KERNEL))
    return data


def cli_steps(work: Path, data: dict, out: Path, seed: int):
    """(name, iqcfit argv) of every benchmark step that runs the CLI."""
    for w in bench.WORKLOADS.values():
        for step in ("bundle", "check"):
            argv = bench.step_argv(w, step, seed, data.get(w.name),
                                   work / w.name, out / w.name)
            if argv[:2] == ["-m", "iqcfit.cli"]:
                yield f"{w.name} {step}", argv[2:]


def run_step(src: str, argv: list[str], stamp: Path) -> tuple[float, float]:
    """Return the child's total CPU and its CPU after main returned, in ms."""
    env = {**os.environ, "PYTHONPATH": src}
    stamp.unlink(missing_ok=True)
    proc = subprocess.Popen([sys.executable, "-c", PROBE, str(stamp), *argv],
                            env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)  # reaps it: tell proc
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"{argv[0]} exited {proc.returncode} under {src}")
    total = usage.ru_utime + usage.ru_stime
    return 1e3 * total, 1e3 * (total - float(stamp.read_text()))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append",
                        help="a checkout's src/ (repeatable)")
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    srcs = [str(Path(s).resolve()) for s in args.src or [ROOT / "src"]]
    samples = {src: {} for src in srcs}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        data = write_inputs(work, srcs[0], args.seed)
        for _ in range(args.runs):
            for i, src in enumerate(srcs):
                for step, argv in cli_steps(work, data, work / f"out{i}",
                                            args.seed):
                    cpu, exit_cpu = run_step(src, argv, work / "stamp")
                    runs = samples[src].setdefault(step, [])
                    runs.append({"cpu_ms": cpu, "exit_ms": exit_cpu})
    for src, by_step in samples.items():
        for step, runs in by_step.items():
            cpu = statistics.median(r["cpu_ms"] for r in runs)
            exit_cpu = statistics.median(r["exit_ms"] for r in runs)
            print(f"{src}  {step:24s} cpu {cpu:7.1f} ms  after main "
                  f"{exit_cpu:5.1f} ms ({100 * exit_cpu / cpu:4.1f}%)")
    print(json.dumps({"runs": args.runs, "seed": args.seed,
                      "samples": samples}))


if __name__ == "__main__":
    main()
