"""iqcfit benchmark: three fixed workloads run as a closed loop of CLI jobs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; `--help` lists the workloads and
metrics.  One client runs one job at a time and starts the next job only
when the previous one has finished.  A job is two steps, each a child
process against this checkout's src/ (`python -m iqcfit.cli ...`), so
interpreter start and imports count as they do for users:

  bundle  from inputs to a saved, norm-tuned model bundle
          (`reproduce`, or `fit` on a dataset written at set-up)
  check   from that bundle on disk to a verified verdict
          (`check --target model`, or perfbench/causal_check.py)

Inputs come from --seed only; the same seed gives the same files and flags.
Every step's outputs are checked (see verify()); a failed check fails the
job, and so does a bundle whose bytes differ from the first job's bundle in
the same run.

Step and set-up costs are CPU times (user plus system, from wait4) and are
reported as ratios to perfbench/reference.py, a fixed program run before the
first set-up and after every set-up and step: a cost's ratio is its CPU time
over the mean CPU time of the reference runs just before and just after it.
On a shared 2-CPU virtual machine wall times swing by tens of percent within
a minute, from time stolen by other guests (which CPU time leaves out), and
the cores' speed drifts as much (which the ratio cancels in part): over ten
seeds, 30-second runs on such a machine gave interquartile spreads of run
medians of 0.04 to 0.23 of the median for raw step CPU times and 0.02 to
0.07 for these ratios.  BLAS runs one thread, so CPU time is not inflated by
idle threads spinning.  CPU time leaves out time spent blocked on I/O, so
the gated metrics do not see it; the wall-time ratios, the raw wall and the
raw CPU seconds are printed and kept in the run record beside them.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
jobs with jobs run under perfbench/traced.py, which times the library's
public functions from outside, and reports the per-layer metrics: per job
sums over the traced jobs (medians), Picard percentiles pooled over the run,
and the tracing overhead (traced minus untraced job CPU time).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Run records (provenance, every sample, the
spans of traced runs) are written to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

SETUP_REPEATS = 5
# reference.py's CPU time on the 2-vCPU virtual machine where the bounds in
# BENCHMARK.json were set; setup_s is given in seconds of that machine.
REFERENCE_CPU_S = 0.30
STARTUP_PROBES = 5
# Every run, set-up included, must end well inside three minutes.
HARD_LIMIT_S = 170.0
CAUSAL_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                 # "reproduce", "passive" or "causal"
    n: int = 0                # trajectories in the generated dataset
    tau: int = 0
    dim: int = 1
    probes: int = 100         # check probes; probe pairs for the causal check
    rho: float = 0.99


WORKLOADS = {w.name: w for w in (
    Workload(
        "channel-reproduce",
        "reproduce, the paper's case study and the first command users run, "
        "then a check of its bundle: import, hodgkin RK4 and Picard solves at "
        "eps ~0.99 dominate; Gram work is negligible at n=12",
        "reproduce"),
    Workload(
        "wide-separable",
        "n=200 tau=20 m=p=2 separable fit and check: the O(n^2) Kronecker "
        "Gram loop runs three times a job and ~3n bundle CSVs are written and "
        "read (CPU-timed, so I/O waits are not gated); no RK4",
        "passive", n=200, tau=20, dim=2),
    Workload(
        "causal-truncation",
        "n=16 tau=12 causal-diagonal fit on the dense layout, then a "
        "truncation check whose tau+2 Picard solves per pair run through the "
        "general evaluator",
        "causal", n=16, tau=12, probes=2, rho=0.9),
)}

CAUSAL_KERNEL = {
    "structure": "causal_diagonal",
    "child": {"structure": "separable", "p": 1, "R": "identity",
              "scalar": {"kind": "gaussian", "sigma": 2.0}},
}

# name, unit, better, what it is
END_TO_END = (
    ("bundle_rel", "ratio", "lower",
     "median over jobs of the bundle step's CPU time (reproduce or fit) over "
     "that of the reference runs just before and after it"),
    ("check_rel", "ratio", "lower",
     "the same for the check step"),
    ("setup_s", "s", "lower",
     f"median over {SETUP_REPEATS} set-ups (dataset written to disk plus an "
     "import warm-up) of their CPU time over that of the reference runs just "
     f"before and after them, times {REFERENCE_CPU_S} s"),
    ("peak_rss_mb", "MB", "lower",
     "highest max RSS of any job step's child process"),
    ("ok_ratio", "ratio", "higher",
     "jobs passed over jobs attempted (1 - failed_ratio; never 0, so a "
     "regression shows as a share of it)"),
)

# name, unit, better, the end-to-end metric and workload it should move
PER_LAYER = (
    ("startup.interpreter_s", "s", "lower",
     "every step; largest share: bundle_rel on channel-reproduce"),
    ("startup.import_s", "s", "lower",
     "import iqcfit.cli minus bare start; every step, largest share: "
     "bundle_rel and check_rel on channel-reproduce"),
    ("hodgkin.step_dataset.s", "s", "lower",
     "bundle_rel on channel-reproduce only; no change elsewhere"),
    ("hodgkin.monotonicity_witness.s", "s", "lower",
     "bundle_rel on channel-reproduce only; no change elsewhere"),
    ("hodgkin.rk4_steps", "count", "lower",
     "exact; bundle_rel on channel-reproduce only"),
    ("kernels.eval_scalar.calls", "count", "lower",
     "exact; bundle_rel and check_rel on wide-separable"),
    ("kernels.eval_scalar.s", "s", "lower",
     "bundle_rel and check_rel on wide-separable"),
    ("kernels.block_matrix.calls", "count", "lower",
     "bundle_rel on causal-truncation"),
    ("kernels.block_matrix.s", "s", "lower",
     "bundle_rel on causal-truncation"),
    ("rkhs.build_gram.calls", "count", "lower",
     "exact; bundle_rel and check_rel on wide-separable (kronecker), bundle_rel "
     "on causal-truncation (dense)"),
    ("rkhs.build_gram.s", "s", "lower",
     "bundle_rel and check_rel on wide-separable, bundle_rel on causal-truncation"),
    ("rkhs.build_gram.side", "count", "lower",
     "largest Gram side in a job; layouts are printed and kept in the spans"),
    ("rkhs.tune_gamma.self_s", "s", "lower",
     "bundle_rel on wide-separable"),
    ("rkhs.empirical_risk.s", "s", "lower",
     "bundle_rel on wide-separable"),
    ("rkhs.save_fitted.self_s", "s", "lower",
     "bundle_rel on wide-separable"),
    ("rkhs.load_fitted.self_s", "s", "lower",
     "check_rel on wide-separable"),
    ("signals.write_signal.calls", "count", "lower",
     "exact; bundle_rel on wide-separable"),
    ("signals.write_signal.s", "s", "lower",
     "bundle_rel on wide-separable"),
    ("signals.read_signal.calls", "count", "lower",
     "bundle_rel and check_rel on wide-separable"),
    ("signals.read_signal.s", "s", "lower",
     "bundle_rel and check_rel on wide-separable"),
    ("signals.bytes_written", "bytes", "lower",
     "bundle_rel on wide-separable"),
    ("inversion.picard_solve.calls", "count", "lower",
     "bundle_rel on channel-reproduce, check_rel on causal-truncation"),
    ("inversion.picard_solve.iterations", "count", "lower",
     "exact; bundle_rel on channel-reproduce, check_rel on causal-truncation"),
    ("inversion.picard_solve.p50_s", "s", "lower",
     "bundle_rel on channel-reproduce, check_rel on causal-truncation"),
    ("inversion.picard_solve.tail_s", "s", "lower",
     "highest percentile with at least ten solves beyond it, pooled over "
     "the run; same metrics as p50_s"),
    ("inversion.picard_solve.tail_pct", "pct", "higher",
     "the percentile tail_s reads"),
    ("inversion.causality_check_r.self_s", "s", "lower",
     "check_rel on causal-truncation"),
    ("supply.check_operator_iiqc.self_s", "s", "lower",
     "Picard spans excluded; bundle_rel on channel-reproduce, check_rel on "
     "wide-separable"),
    ("supply.scatter_dataset.s", "s", "lower",
     "bundle_rel on channel-reproduce and wide-separable"),
    ("cli.self_s", "s", "lower",
     "step time after import minus top-level library spans: argparse, "
     "JSON reports, CSV rows; every workload"),
    ("trace.overhead_s", "s", "lower",
     "median traced minus median untraced job CPU time; no end-to-end "
     "effect"),
    ("failed_ratio", "ratio", "lower",
     "jobs failed over jobs attempted, traced and untraced"),
)

UNITS = {name: unit for name, unit, _, _ in END_TO_END + PER_LAYER}


class BenchError(RuntimeError):
    """The benchmark cannot measure this checkout."""


@dataclass(frozen=True)
class Usage:
    """What one child process cost."""
    wall_s: float
    cpu_s: float            # user plus system time of the process's threads
    rss_mb: float           # its maximum resident set size
    code: int


@dataclass
class Step:
    name: str
    usage: Usage
    ref_after: int          # index of the first reference run after the step
    problem: str            # why the step failed; empty when it passed
    spans: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.problem


@dataclass
class Job:
    index: int
    traced: bool
    steps: list[Step] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return len(self.steps) == 2 and all(s.ok for s in self.steps)

    @property
    def wall_s(self) -> float:
        return sum(s.usage.wall_s for s in self.steps)

    @property
    def cpu_s(self) -> float:
        return sum(s.usage.cpu_s for s in self.steps)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Users keep byte-code caches; without them every step recompiles iqcfit.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # Spinning BLAS threads would count as CPU time; the matrices are small.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


class Runner:
    """Starts child processes, one at a time, and reaps every one of them."""

    def __init__(self, deadline: float):
        self.env = child_env()
        self.deadline = deadline

    def run(self, argv: list[str], log: Path) -> Usage:
        """Run `python argv` with its output in log, and wait for it."""
        budget = self.deadline - time.perf_counter()
        if budget <= 0:
            raise BenchError("time limit reached before a step could start")
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT,
                                    env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
            killer = threading.Timer(budget, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Usage(wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0, proc.returncode)

    def checked(self, argv: list[str], log: Path) -> Usage:
        """run(), raising BenchError when the process fails."""
        usage = self.run(argv, log)
        if usage.code != 0:
            raise BenchError(f"{' '.join(argv)} exited with {usage.code}:\n"
                             f"{log.read_text(errors='replace')[-2000:]}")
        return usage


class Calibration:
    """Timed runs of reference.py: one before the first set-up, then one
    after each set-up and each step."""

    def __init__(self, runner: Runner, work: Path):
        self.runner = runner
        self.log = work / "reference.log"
        self.runs: list[Usage] = []

    def measure(self) -> int:
        """Run the reference once; return the index of the run."""
        self.runs.append(self.runner.checked([str(BENCH / "reference.py")],
                                             self.log))
        return len(self.runs) - 1

    def relative(self, usage: Usage, ref_after: int,
                 key: str = "cpu_s") -> float:
        """usage's CPU (or wall) time over the mean of the reference runs just
        before and just after it; ref_after indexes the one after."""
        # The nearest runs track the cores' drifting speed best: over ten
        # seeds, medians of 4 or 6 runs around a step spread more.
        near = self.runs[ref_after - 1:ref_after + 1]
        return getattr(usage, key) / statistics.fmean(
            getattr(u, key) for u in near)


def provenance(runner: Runner, work: Path, seed: int) -> dict:
    log = work / "provenance.log"
    code = runner.run([str(BENCH / "provenance.py")], log).code
    text = log.read_text()
    if code != 0:
        raise BenchError(f"cannot import iqcfit from {SRC}:\n{text}")
    info = json.loads(text.strip().splitlines()[-1])
    where = Path(info["iqcfit_file"])
    if SRC.resolve() not in where.parents:
        raise BenchError(f"iqcfit resolves to {where}, outside {SRC}")
    threads = info["blas"]["threads"]
    if threads is not None and threads > info["nproc"]:
        raise BenchError(f"BLAS runs {threads} threads on {info['nproc']} CPUs")
    info["seed"] = seed
    info["git_sha"], info["git_dirty"] = git_state()
    return info


def git_state() -> tuple[str | None, bool | None]:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None, None
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                            capture_output=True, text=True, check=False)
    if head.returncode != 0 or status.returncode != 0:
        return None, None
    return head.stdout.strip(), bool(status.stdout.strip())


def setup(w: Workload, seed: int, runner: Runner, calib: Calibration,
          work: Path) -> tuple[Path | None, list[Usage], list[float]]:
    """Write the workload's inputs SETUP_REPEATS times, each time followed by
    an import warm-up and a reference run; return the inputs, what each
    repetition cost and that cost relative to the reference."""
    costs, refs, digests, data = [], [], set(), None
    calib.measure()
    for rep in range(SETUP_REPEATS):
        runs = []
        if w.kind != "reproduce":
            data = work / f"setup{rep}" / "data"
            runs.append(runner.checked(
                [str(BENCH / "gen.py"), "--kind", w.kind, "--n", str(w.n),
                 "--tau", str(w.tau), "--dim", str(w.dim), "--seed", str(seed),
                 "--out", str(data)], work / "setup.log"))
            digests.add(tree_digest(data))
        runs.append(runner.checked(["-c", "import iqcfit.cli"],
                                   work / "warmup.log"))
        costs.append(Usage(sum(u.wall_s for u in runs),
                           sum(u.cpu_s for u in runs),
                           max(u.rss_mb for u in runs), 0))
        refs.append(calib.measure())
    if len(digests) > 1:
        raise BenchError("dataset generation is not deterministic")
    if w.kind == "causal":
        (work / "kernel.json").write_text(json.dumps(CAUSAL_KERNEL))
    return data, costs, [calib.relative(u, r) for u, r in zip(costs, refs)]


def tree_digest(*paths: Path) -> str:
    """Digest of the relative names and bytes of every file under paths."""
    h = hashlib.sha256()
    for top in paths:
        files = sorted(top.rglob("*")) if top.is_dir() else [top]
        for path in files:
            if path.is_file():
                h.update(str(path.relative_to(top.parent)).encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()


def step_argv(w: Workload, step: str, seed: int, data: Path | None,
              work: Path, job_dir: Path) -> list[str]:
    bundle = job_dir / "bundle"
    if step == "bundle":
        if w.kind == "reproduce":
            args = ["reproduce", "--probes", str(w.probes)]
        else:
            args = ["fit", "--data", str(data), "--rho", str(w.rho)]
            if w.kind == "causal":
                args += ["--kernel", str(work / "kernel.json")]
        return ["-m", "iqcfit.cli", *args, "--seed", str(seed),
                "--out", str(bundle), "--quiet"]
    check = job_dir / "check"
    if w.kind == "causal":
        return [str(BENCH / "causal_check.py"), "--model", str(bundle / "model"),
                "--pairs", str(w.probes), "--seed", str(seed),
                "--out", str(check)]
    return ["-m", "iqcfit.cli", "check", "--target", "model",
            "--model", str(bundle / "model"), "--probes", str(w.probes),
            "--seed", str(seed), "--out", str(check), "--quiet"]


def traced_argv(argv: list[str], spans: Path) -> list[str]:
    target = argv[1] if argv[0] == "-m" else argv[0]
    rest = argv[2:] if argv[0] == "-m" else argv[1:]
    return [str(BENCH / "traced.py"), str(spans), target, *rest]


def read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def verify(w: Workload, step: str, job_dir: Path) -> str:
    """Return why a finished step's outputs are wrong, or an empty string."""
    bundle, check = job_dir / "bundle", job_dir / "check"
    if step == "bundle":
        if w.kind == "reproduce":
            if read_json(bundle / "report.json").get("passed") is not True:
                return "report.json does not pass"
            return ""
        norm = read_json(bundle / "fit_report.json").get("rkhs_norm")
        if not isinstance(norm, float) or not norm <= w.rho:
            return f"rkhs_norm {norm} is not <= rho {w.rho}"
        return ""
    if w.kind == "causal":
        rep = read_json(check / "causality_report.json")
        if rep.get("passed") is not True or rep.get("tolerance") != CAUSAL_TOL:
            return f"causality report does not pass at tol {CAUSAL_TOL}"
        return ""
    rep = read_json(check / "check_report.json")
    eps = rep.get("epsilon")
    if rep.get("passed") is not True or not isinstance(eps, float) \
            or not eps < 1.0:
        return f"check report does not pass with epsilon < 1 (epsilon {eps})"
    return ""


def bundle_digest(w: Workload, job_dir: Path) -> str:
    report = "report.json" if w.kind == "reproduce" else "fit_report.json"
    return tree_digest(job_dir / "bundle" / report, job_dir / "bundle" / "model")


def run_job(w: Workload, seed: int, data: Path | None, work: Path,
            runner: Runner, calib: Calibration, index: int, traced: bool,
            first: dict) -> Job:
    """Run one job; the first bundle digest of the run goes into first."""
    job_dir = work / f"job{index:04d}"
    job_dir.mkdir(parents=True)
    job = Job(index, traced)
    for name in ("bundle", "check"):
        argv = step_argv(w, name, seed, data, work, job_dir)
        spans = job_dir / f"{name}.spans.json"
        if traced:
            argv = traced_argv(argv, spans)
        usage = runner.run(argv, job_dir / f"{name}.log")
        ref_after = calib.measure()
        problem = (f"exit code {usage.code}" if usage.code != 0
                   else verify(w, name, job_dir))
        if name == "bundle" and not problem:
            digest = bundle_digest(w, job_dir)
            if first.setdefault("bundle", digest) != digest:
                problem = "bundle bytes differ from the run's first bundle"
        step = Step(name, usage, ref_after, problem)
        if traced and spans.exists():
            step.spans = json.loads(spans.read_text())
        job.steps.append(step)
        if problem:
            log = (job_dir / f"{name}.log").read_text(errors="replace")
            print(f"job {index} {name} FAILED: {problem}\n{log[-2000:]}",
                  file=sys.stderr)
            break
    if job.ok:
        shutil.rmtree(job_dir)
    return job


# ---------------------------------------------------------------------------
# per-layer numbers from spans


def job_layers(job: Job) -> dict[str, dict]:
    """Per function name: calls, inclusive and self seconds, summed attrs."""
    out: dict[str, dict] = {}
    cli_self = 0.0
    for step in job.steps:
        if step.spans is None:
            continue
        recs = step.spans["records"]
        child = [0.0] * len(recs)
        top = 0.0
        for name, _, _, parent, calls, total, attrs in recs:
            if parent >= 0:
                child[parent] += total
            else:
                top += total
        for i, (name, _, _, parent, calls, total, attrs) in enumerate(recs):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                        "side": 0, "layouts": set()})
            row["calls"] += calls
            row["s"] += total
            row["self_s"] += total - child[i]
            for key, value in (attrs or {}).items():
                if key == "side":
                    row["side"] = max(row["side"], value)
                elif key == "layout":
                    row["layouts"].add(value)
                else:
                    row[key] = row.get(key, 0) + value
        cli_self += step.spans["t_end"] - step.spans["t_ready"] - top
    out["cli"] = {"self_s": cli_self}
    return out


def picard_durations(jobs: list[Job]) -> list[float]:
    return sorted(rec[5] for job in jobs for step in job.steps
                  if step.spans for rec in step.spans["records"]
                  if rec[0] == "inversion.picard_solve")


def tail(values: list[float]) -> tuple[float, float]:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    n = len(values)
    best = 50.0
    for pct in (75.0, 90.0, 95.0, 99.0, 99.9):
        if n * (1.0 - pct / 100.0) >= 10:
            best = pct
    return percentile(values, best), best


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of sorted values; 0 for no values."""
    if not values:
        return 0.0
    rank = max(1, -(-len(values) * pct // 100))
    return values[int(rank) - 1]


def layer_metrics(traced: list[Job]) -> dict[str, float]:
    """Per-job medians of the per-layer numbers over traced jobs."""
    per_job = [job_layers(job) for job in traced]

    def med(name: str, key: str) -> float:
        return statistics.median(
            layers.get(name, {}).get(key, 0) for layers in per_job)

    metrics: dict[str, float] = {}
    for metric, _, _, _ in PER_LAYER:
        head, _, key = metric.rpartition(".")
        if key in ("calls", "s", "self_s", "side") and head != "startup":
            metrics[metric] = med(head, key)
    metrics["hodgkin.rk4_steps"] = med("hodgkin._integrate_gating", "steps")
    metrics["signals.bytes_written"] = med("signals.write_signal", "bytes")
    metrics["inversion.picard_solve.iterations"] = med(
        "inversion.picard_solve", "iterations")
    solves = picard_durations(traced)
    metrics["inversion.picard_solve.p50_s"] = percentile(solves, 50.0)
    tail_s, tail_pct = tail(solves)
    metrics["inversion.picard_solve.tail_s"] = tail_s
    metrics["inversion.picard_solve.tail_pct"] = tail_pct
    return metrics


def startup_probe(runner: Runner, work: Path) -> tuple[float, float]:
    """Median wall of a bare interpreter, and of `import iqcfit.cli` beyond it."""
    bare, full = [], []
    for _ in range(STARTUP_PROBES):
        bare.append(runner.checked(["-c", "pass"], work / "bare.log").wall_s)
        full.append(runner.checked(["-c", "import iqcfit.cli"],
                                   work / "import.log").wall_s)
    interp = statistics.median(bare)
    return interp, statistics.median(full) - interp


# ---------------------------------------------------------------------------


def measure(w: Workload, seed: int, seconds: float, trace: bool,
            work: Path) -> dict:
    """One run: set-up, then jobs until `seconds` have passed."""
    t0 = time.perf_counter()
    runner = Runner(t0 + HARD_LIMIT_S)
    info = provenance(runner, work, seed)
    calib = Calibration(runner, work)
    data, setup_costs, setup_rel = setup(w, seed, runner, calib, work)
    startup = startup_probe(runner, work) if trace else None
    jobs: list[Job] = []
    first: dict = {}
    start = time.perf_counter()
    while True:
        traced = trace and len(jobs) % 2 == 1
        jobs.append(run_job(w, seed, data, work, runner, calib, len(jobs),
                            traced, first))
        # Start no job that would most likely end past the deadline.
        typical = statistics.median(job.wall_s for job in jobs)
        done = time.perf_counter() - start + typical / 2 >= seconds
        if done and (not trace or len(jobs) >= 2):
            break
    failed = sum(not job.ok for job in jobs)
    plain = [job for job in jobs if not job.traced]
    good = [job for job in plain if job.ok] or plain
    samples = {"setup_rel": setup_rel,
               "setup_cpu_s": [u.cpu_s for u in setup_costs],
               "setup_wall_s": [u.wall_s for u in setup_costs],
               "reference_cpu_s": [u.cpu_s for u in calib.runs],
               "reference_wall_s": [u.wall_s for u in calib.runs]}
    for name in ("bundle", "check"):
        done = [s for job in good for s in job.steps if s.name == name]
        samples[f"{name}_rel"] = [calib.relative(s.usage, s.ref_after)
                                  for s in done]
        # Kept beside the gated CPU ratio: only this one sees I/O waits.
        samples[f"{name}_wall_rel"] = [
            calib.relative(s.usage, s.ref_after, "wall_s") for s in done]
        samples[f"{name}_cpu_s"] = [s.usage.cpu_s for s in done]
        samples[f"{name}_wall_s"] = [s.usage.wall_s for s in done]
    if trace:
        traced_jobs = [job for job in jobs if job.traced]
        metrics = layer_metrics([job for job in traced_jobs if job.ok]
                                or traced_jobs)
        metrics["startup.interpreter_s"], metrics["startup.import_s"] = startup
        metrics["trace.overhead_s"] = (
            statistics.median(job.cpu_s for job in traced_jobs)
            - statistics.median(job.cpu_s for job in plain))
        metrics["failed_ratio"] = failed / len(jobs)
        metrics = {name: metrics[name] for name, _, _, _ in PER_LAYER}
        samples["traced_job_cpu_s"] = [job.cpu_s for job in traced_jobs]
        samples["untraced_job_cpu_s"] = [job.cpu_s for job in plain]
    else:
        metrics = {
            "bundle_rel": statistics.median(samples["bundle_rel"] or [0.0]),
            "check_rel": statistics.median(samples["check_rel"] or [0.0]),
            "setup_s": REFERENCE_CPU_S * statistics.median(setup_rel),
            "peak_rss_mb": max(s.usage.rss_mb for job in jobs
                               for s in job.steps),
            "ok_ratio": 1.0 - failed / len(jobs),
        }
    layouts = sorted({layout for job in jobs for layout in
                      job_layers(job).get("rkhs.build_gram", {})
                      .get("layouts", ())})
    return {"workload": w.name, "trace": trace, "provenance": info,
            "attempted": len(jobs), "failed": failed, "metrics": metrics,
            "samples": samples, "gram_layouts": layouts,
            "spans": [{"job": job.index, "step": s.name, **s.spans}
                      for job in jobs for s in job.steps if s.spans]}


def report(result: dict) -> None:
    """Human-readable lines, then the one-line JSON result last."""
    info = result["provenance"]
    print(f"workload {result['workload']} seed {info['seed']} "
          f"trace {int(result['trace'])}")
    print(f"iqcfit {info['iqcfit_file']} git {info['git_sha']} "
          f"dirty {info['git_dirty']}")
    print(f"python {info['python']} numpy {info['numpy']} scipy "
          f"{info['scipy']} blas {info['blas']['name']} "
          f"{info['blas']['version']} threads {info['blas']['threads']} "
          f"nproc {info['nproc']}")
    print(f"jobs attempted {result['attempted']} failed {result['failed']}")
    for name, values in result["samples"].items():
        if values:
            print(f"  {name}: n={len(values)} median "
                  f"{statistics.median(values):.4f} min {min(values):.4f} "
                  f"max {max(values):.4f}")
    if result["gram_layouts"]:
        print(f"gram layouts: {', '.join(result['gram_layouts'])}")
    for name, value in result["metrics"].items():
        print(f"{name} = {value:.6g} {UNITS[name]}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in result["metrics"].items()},
    }))


def epilog() -> str:
    lines = ["workloads:"]
    lines += [f"  {w.name}: {w.why}" for w in WORKLOADS.values()]
    lines.append("end-to-end metrics (--trace 0), on every workload:")
    lines += [f"  {n} [{u}, {b} is better]: {what}"
              for n, u, b, what in END_TO_END]
    lines.append("per-layer metrics (--trace 1) -> what they should move:")
    lines += [f"  {n} [{u}]: {what}" for n, u, _, what in PER_LAYER]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], epilog=epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "iqcfit" / "__init__.py").is_file():
        print(f"error: no iqcfit sources under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    STATE.mkdir(exist_ok=True)
    work = STATE / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        result = measure(w, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = STATE / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, separators=(",", ":")))
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
