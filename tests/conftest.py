"""Hypothesis defaults for the suite.

Examples are seeded from a hash of each test rather than drawn at random, no
example database is kept, and there is no deadline: every property test is
reproducible run to run.  Hypothesis's remaining cache (constants it reads
from the source) goes to the system temporary directory, so the suite
writes no .hypothesis/ into the checkout.
"""

import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("iqcfit", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("iqcfit")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "iqcfit-hypothesis")
