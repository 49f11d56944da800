"""Calibration process: a fixed amount of work that never touches qgatelab.

Usage: python3 perfbench/calibrate.py

The benchmark runs this process right before every qgatelab process and
divides each operation's times by its wall time, spawn to exit.  The host
shares its cores with other machines, and its speed drifts by tens of percent
within minutes; the operation and the calibration just before it see nearly
the same speed, so the ratio cancels the drift while any change to qgatelab
moves it in full.

The work mirrors what an operation does: start an interpreter, import numpy,
then two phases of pure-Python loops around small matrix products.  In the
first, every product is below the size at which OpenBLAS uses threads.  In
the second, a 64 x 64 complex product every few rounds keeps OpenBLAS's
worker thread spinning on the second core, as a qgatelab operation at its
default BLAS threads does (both use about 1.9 s of CPU per second of wall
time).  Neither phase alone tracks the operation as closely as the two do.

REFERENCE_S is about the calibration's wall time on the host the benchmark
was tuned on (2 vCPUs of a shared Intel Xeon virtual machine, CPython 3.11,
numpy 2.4, OpenBLAS 0.3.31); times are reported in seconds at that speed.
"""

REFERENCE_S = 0.45
SINGLE_THREAD_ROUNDS = 20000
THREADED_ROUNDS = 2000
SMALL_PER_THREADED = 6


def _small_round(matrix) -> float:
    product = matrix @ matrix
    square_sum = 0
    for j in range(20):
        square_sum += j * j
    return float(product[0, 0]) * 1e-9 + square_sum * 1e-12


def main() -> int:
    import numpy

    rng = numpy.random.default_rng(0)
    small = rng.standard_normal((9, 9))
    large = (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))) / 64
    total = 0.0
    for _ in range(SINGLE_THREAD_ROUNDS):
        total += _small_round(small)
    for _ in range(THREADED_ROUNDS):
        total += float((large @ large)[0, 0].real) * 1e-9
        for _ in range(SMALL_PER_THREADED):
            total += _small_round(small)
    return 0 if total == total else 1


if __name__ == "__main__":
    raise SystemExit(main())
