import random
import sys
import warnings
from pathlib import Path

import pytest

from weaktrace import builtin_scenario, parse_scenario

# Hypothesis imports libcst to write the patch for a failing example, and
# libcst's first import warns DeprecationWarning; under ``-W error`` that
# warning turns the failure report into an INTERNALERROR.  Importing it once
# here, with that warning ignored, leaves the report to show the example.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(scope="session")
def fig1():
    return builtin_scenario("fig1")


@pytest.fixture(scope="session")
def fig2():
    return builtin_scenario("fig2")


@pytest.fixture(scope="session")
def chains():
    """The generated benchmark chains with k = 1..7 loops, polarization off and on, parsed."""
    # scengen imports bench/oracle.py while it draws a chain, so bench stays
    # importable until every chain is drawn.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    try:
        import scengen

        rng = random.Random(14)
        specs = [
            scengen.chain(rng, k, pol, f"chain{k}{'p' if pol else ''}")
            for k in range(1, 8)
            for pol in (False, True)
        ]
    finally:
        del sys.path[0]
    return [parse_scenario(spec.text(), name=spec.name) for spec in specs]
