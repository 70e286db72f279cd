"""Run an iqcfit entry point with its library layers timed from outside.

    PYTHONPATH=src python perfbench/traced.py SPANS.json iqcfit.cli ARGS...
    PYTHONPATH=src python perfbench/traced.py SPANS.json perfbench/causal_check.py ARGS...

The target runs as `python -m iqcfit.cli ARGS` or `python SCRIPT ARGS` would,
after every public function of the iqcfit library modules has been wrapped,
both in its defining module and under every other name an iqcfit module
imported it as.  `OperatorKernel.block_matrix` and the private RK4 loop
`hodgkin._integrate_gating` (for its step count) are wrapped as well.  No
iqcfit file is changed.

Spans stay in memory and are written to SPANS.json when the target ends.  A
record is [name, start, end, parent, calls, total_s, attrs]; parent is the
index of the enclosing record or -1.  Calls of the per-sample helpers in
MERGED under one parent share a record, with calls and total_s summed, so
that tracing them costs memory per parent rather than per call.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402

LIBRARY = ("signals", "supply", "kernels", "rkhs", "inversion", "hodgkin")

MERGED = frozenset({
    "kernels.eval_scalar",
    "signals.inner_product",
    "signals.norm",
    "signals.sample_weights",
    "signals.truncate",
})


def _gram_attrs(result, args, kwargs):
    return {"layout": result.layout, "side": result.dim}


def _picard_attrs(result, args, kwargs):
    return {"iterations": result.iterations}


def _write_attrs(result, args, kwargs):
    path = kwargs["path"] if "path" in kwargs else args[1]
    return {"bytes": os.path.getsize(path)}


def _rk4_attrs(result, args, kwargs):
    return {"steps": len(result[0]) - 1}


ATTRS = {
    "rkhs.build_gram": _gram_attrs,
    "inversion.picard_solve": _picard_attrs,
    "signals.write_signal": _write_attrs,
    "hodgkin._integrate_gating": _rk4_attrs,
}


class Tracer:
    """Nested timed spans kept in memory."""

    def __init__(self):
        self.records: list[list] = []
        self._stack: list[int] = []
        self._merged: dict[tuple[int, str], int] = {}

    def wrap(self, name: str, func):
        records, stack, clock = self.records, self._stack, time.perf_counter
        if name in MERGED:
            merged = self._merged

            @functools.wraps(func)
            def merged_call(*args, **kwargs):
                parent = stack[-1] if stack else -1
                rid = merged.get((parent, name))
                if rid is None:
                    rid = merged[(parent, name)] = len(records)
                    records.append([name, clock(), 0.0, parent, 0, 0.0, None])
                rec = records[rid]
                stack.append(rid)
                start = clock()
                try:
                    return func(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    rec[2] = end
                    rec[4] += 1
                    rec[5] += end - start

            return merged_call

        attrs = ATTRS.get(name)

        @functools.wraps(func)
        def call(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 1, 0.0, None]
            stack.append(len(records))
            records.append(rec)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec[1], rec[2], rec[5] = start, end, end - start
            if attrs is not None:
                rec[6] = attrs(result, args, kwargs)
            return result

        return call


def install(tracer: Tracer) -> None:
    """Wrap the library's public functions and the two extras named above."""
    import iqcfit  # noqa: F401  (loads every library module)

    modules = [m for key, m in sys.modules.items()
               if key == "iqcfit" or key.startswith("iqcfit.")]
    targets = []
    for short in LIBRARY:
        module = sys.modules[f"iqcfit.{short}"]
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                targets.append((f"{short}.{attr}", obj))
    hodgkin = sys.modules["iqcfit.hodgkin"]
    targets.append(("hodgkin._integrate_gating", hodgkin._integrate_gating))
    for name, func in targets:
        wrapper = tracer.wrap(name, func)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if obj is func:
                    setattr(module, attr, wrapper)
    kernels = sys.modules["iqcfit.kernels"]
    base = kernels.OperatorKernel
    base.block_matrix = tracer.wrap("kernels.block_matrix", base.block_matrix)


def _exit_code(exc: SystemExit) -> int:
    if exc.code is None:
        return 0
    if isinstance(exc.code, int):
        return exc.code
    print(exc.code, file=sys.stderr)
    return 1


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, target, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    install(tracer)
    t_ready = time.perf_counter()
    sys.argv = [target, *args]
    code = 0
    try:
        if target.endswith(".py"):
            sys.path.insert(0, os.path.dirname(os.path.abspath(target)))
            runpy.run_path(target, run_name="__main__")
        else:
            runpy.run_module(target, run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = _exit_code(exc)
    finally:
        t_end = time.perf_counter()
        with open(spans_path, "w") as fh:
            json.dump({"t_start": T_START, "t_ready": t_ready, "t_end": t_end,
                       "records": tracer.records}, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
