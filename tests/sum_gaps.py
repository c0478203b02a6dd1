"""Cross-check for ``behavior.signaling_gaps``: the per-party gaps formed
with a ``.sum`` over party i's length-2 outcome axis, the route the
strided-slice kernel replaced.  Both add the same two entries per cell
and subtract the same sums, so the gaps agree bit for bit.
"""

import numpy as np


def sum_axis_gaps(probs, n):
    """Party i's table summed over its outcome at setting U minus the same
    at setting D, for i = 0..n-1; leading axes of ``probs`` are kept."""
    probs = np.asarray(probs)
    gaps = []
    for i in range(n):
        rest = (slice(None),) * (2 * n - 1 - i)
        gap = probs[(..., 0, *rest)].sum(axis=i - n)
        gap -= probs[(..., 1, *rest)].sum(axis=i - n)
        gaps.append(gap)
    return gaps
