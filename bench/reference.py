"""Fixed reference work that tracks the host's speed between benchmark commands.

    python3 bench/reference.py

``run.py`` times this script in a fresh process before and after every
session command and around the block of set-ups, and scales the commands'
wall times by it. It uses nothing from ``src/``, so no change to the program
moves it; only the host does. Like a farecast command it starts an
interpreter and imports numpy, then runs a pure-Python loop and many numpy
calls on small arrays, the two kinds of code the commands spend their time
in. It takes about 0.78 s on the reference machine.
"""

import numpy as np


def python_part(n: int = 1_000_000) -> float:
    table = {}
    total = 0.0
    for i in range(n):
        key = i % 97
        total += table.get(key, 0.0) * 0.5 + i * 1e-6
        table[key] = total % 7.0
    return total


def numpy_part(n: int = 2_000) -> float:
    rng = np.random.default_rng(0)
    x = rng.random(4_000)
    total = 0.0
    for _ in range(n):
        order = np.argsort(x)
        total += float(np.cumsum(x[order])[-1])
        x = np.roll(x, 1)
    return total


if __name__ == "__main__":
    python_part()
    numpy_part()
