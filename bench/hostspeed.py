"""The host's speed, measured where the workload runs, to scale its times by.

The benchmark runs on a few shared cores whose speed drifts with the
neighbours' load: the loop below takes from 8 ms to over 16 ms, and the
drift holds for tens of seconds, so a whole run can fall in a slow stretch.
CPU time drifts with wall time, so the process runs slower rather than
waiting. `calibrate` times a fixed interpreter loop of dict and integer
operations. The workloads run it between their operations, and on a workload
whose work runs in the interpreter a time measured at a loop time of
`calibrate()` is reported at the nominal loop time `REF_S` as
time * REF_S / loop time. A change to cubesum leaves the loop alone, so it
moves the scaled times as much as the measured ones.
"""

from __future__ import annotations

import time

# the loop's time when the host is quiet (a 2-vCPU Intel Xeon at 2.1 GHz,
# Python 3.11): scaled times read as the program's times on that quiet host
REF_S = 0.008


def _mul(a: tuple[int, int], b: tuple[int, int], p: int) -> tuple[int, int]:
    return (a[0] * b[0] - 3 * a[1] * b[1]) % p, (a[0] * b[1] + a[1] * b[0]) % p


def calibrate() -> tuple[float, float]:
    """(wall s, cpu s) of one run of the fixed loop. Its three parts (dict
    updates, integer arithmetic mod p, function calls on tuples) are the kinds
    of work the interpreted workloads do; together they follow those workloads'
    speed more closely than any one part does."""
    w0, c0 = time.perf_counter(), time.process_time()
    d: dict[int, int] = {}
    for i in range(24000):
        k = (i * 2654435761) & 4095
        d[k] = d.get(k, 0) + i
    s = 1
    for i in range(36000):
        s = (s * 31 + i) % 1000003
    x = (1, 2)
    for _ in range(9000):
        x = _mul(x, (3, 5), 10007)
    return time.perf_counter() - w0, time.process_time() - c0
