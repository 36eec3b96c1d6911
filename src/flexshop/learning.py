"""Position-based learning effect on processing times.

An operation processed at position ``r`` of a machine's sequence takes
``floor(100 * p / r**alpha + 1/2)`` time units, where ``p`` is the standard
processing time and ``alpha >= 0`` is the learning rate.  Position 1, and
every position at ``alpha == 0`` (no learning effect, ``r**0.0 == 1.0``),
yields ``100 * p``, exactly while ``100 * p`` is below 2**53.  Negative,
NaN and infinite rates are rejected.  A valid instance keeps ``100 * p``
within 2**1000 (``validate_instance``), so a divisor ``r**alpha`` too
large for a float gives 0.  Values are cached, so that the schedules of a
run share them.
"""

import math
from functools import lru_cache

__all__ = ["actual_time"]


# unbounded: the keys are (standard time, position, learning rate) triples,
# a few thousand per instance, and the values are ints
@lru_cache(maxsize=None)
def actual_time(p: int, r: int, alpha: float) -> int:
    """Actual processing time of an operation at machine position ``r``.

    ``p`` is the standard (integer) processing time, ``r`` the 1-based
    position in the machine sequence, ``alpha`` the learning rate.
    """
    if r < 1:
        raise ValueError(f"machine position must be >= 1, got {r}")
    if p < 0:
        raise ValueError(f"standard time must be >= 0, got {p}")
    if not 0 <= alpha < math.inf:  # also false for NaN
        raise ValueError(f"learning rate must be finite and >= 0, "
                         f"got {alpha}")
    try:
        scale = r**alpha
    except OverflowError:  # r**alpha > 2**1023 and 100 * p <= 2**1000
        return 0
    return math.floor(100.0 * p / scale + 0.5)
