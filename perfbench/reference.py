"""Fixed reference work that calibrates the machine's speed of the moment.

    python perfbench/reference.py

run.py runs this script around every set-up and job step and reports each
one's CPU time as a multiple of that of the reference runs just before and
just after it.  The cores of a shared virtual machine change speed by tens of
percent within a minute; the ratio cancels much of that, so runs made at
different moments compare.  The work mixes what the jobs do: interpreter start,
importing numpy, a pure-Python loop, many small numpy operations called from
Python and small dense linear algebra.  It uses nothing from iqcfit, so no
change to the program moves it; do not change it either, or ratios measured
before and after the change no longer compare.
"""

import numpy as np


def main() -> None:
    total = 0
    for i in range(300_000):
        total += i * i
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 21, 2))
    for _ in range(15_000):
        d = a - b
        total += float(np.sqrt(np.einsum("ij,ij->", d, d)))
    gram = rng.standard_normal((200, 200))
    gram = gram @ gram.T
    for _ in range(5):
        np.linalg.eigh(gram)


if __name__ == "__main__":
    main()
