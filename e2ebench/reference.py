"""The benchmark's reference loop, and the helper process that runs it.

``python3 e2ebench/reference.py`` runs :func:`reference_loop` once for every
line it reads on standard input and prints the loop's wall seconds, one
line each, until its input closes.  :class:`harness.Meter` drives it.
"""

import sys
import time

import numpy as np

_REF_DICT_ITERS = 300_000
_REF_ARRAY_LEN = 400_000


def reference_loop() -> float:
    """Run the fixed reference workload; returns its wall seconds.

    About half interpreter work (dict get/set on small ints, like the
    scalar classifier and the memo tables) and half NumPy ``sort`` +
    ``searchsorted`` on a 3 MB array (like the batch classifier and the
    simulator kernels).  On a shared host neither half alone follows the
    host's slowdowns well.  Over 39 alternating samples, FindMisses on mgrid
    varied by 16% (coefficient of variation); normalised by the NumPy part
    alone it still varied by 14%, by the dict part alone 12%, by both 10%.
    The inputs are fixed, never derived from the workload seed.
    """
    started = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(_REF_DICT_ITERS):
        k = (i * 40503) & 0x3FFF
        table[k] = table.get(k, 0) + i
        acc ^= table[k]
    data = (np.arange(_REF_ARRAY_LEN, dtype=np.int64) * 2654435761) % 1000003
    ordered = np.sort(data)
    acc += int(np.searchsorted(ordered, data[::3])[-1])
    elapsed = time.perf_counter() - started
    if acc < 0:  # never true; keeps the work observable
        raise AssertionError(acc)
    return elapsed


def main() -> None:
    for _ in sys.stdin:
        print(reference_loop(), flush=True)


if __name__ == "__main__":
    main()
