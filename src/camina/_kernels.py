"""The benchmark's build stamp.

There is no JIT path.  The flag stays because e2ebench/child.py stamps it on
every benchmark result and e2ebench/compare.py refuses to compare results
whose stamps differ.
"""

USING_NUMBA = False
