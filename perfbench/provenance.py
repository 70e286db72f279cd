"""Print, as JSON, what the benchmark's jobs will run against.

    PYTHONPATH=src python perfbench/provenance.py

Run with the same interpreter and environment as the jobs, so that the
iqcfit file, the library versions and the BLAS thread count are the ones the
jobs see.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import sys

import numpy as np
import scipy

import iqcfit

THREAD_QUERIES = ("scipy_openblas_get_num_threads64_",
                  "scipy_openblas_get_num_threads", "openblas_get_num_threads")


def blas() -> dict:
    """BLAS name and version from numpy's build record, threads from the library."""
    info: dict = {"name": None, "version": None, "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = deps.get("name"), deps.get("version")
    except (TypeError, KeyError):
        pass
    libs_dir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                info["threads"] = int(query())
                return info
    return info


def main() -> None:
    print(json.dumps({
        "iqcfit_file": os.path.realpath(iqcfit.__file__),
        "python": platform.python_version(),
        "executable": sys.executable,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas(),
        "nproc": len(os.sched_getaffinity(0)),
    }))


if __name__ == "__main__":
    main()
