"""Host-drift probe: time a fixed pure-Python loop and a fixed numpy loop.

Prints one JSON object {"python_s": ..., "numpy_s": ...}. The work never
changes, so a change in these times is the host, not the program.
"""

import json
import time

import numpy as np


def main() -> None:
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    t1 = time.perf_counter()
    x = np.random.default_rng(0).random(50_000)
    for _ in range(200):
        np.sort(x)
    t2 = time.perf_counter()
    print(json.dumps({"python_s": t1 - t0, "numpy_s": t2 - t1}))


if __name__ == "__main__":
    main()
