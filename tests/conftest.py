import numpy as np
import pytest
from hypothesis import settings

from framelab import PSchauderFrame, counting_measure, default_zoo

# ``--hypothesis-profile=ci`` (the tier-1 step in CI): a failure that only CI
# hits prints its ``@reproduce_failure`` blob, so it can be replayed locally.
settings.register_profile("ci", print_blob=True)


@pytest.fixture(scope="session")
def zoo_frames():
    return default_zoo()


@pytest.fixture(scope="session")
def three_atom_frame():
    """The plane dictionary {e1, e2, (e1+e2)/sqrt(2)} with functionals chosen
    so both frame axioms hold exactly (the redundant atom carries the zero
    functional)."""
    s = 1.0 / np.sqrt(2.0)
    return PSchauderFrame(
        counting_measure(3),
        2.0,
        functionals=[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
        vectors=[[1.0, 0.0], [0.0, 1.0], [s, s]],
        field="real",
    )
