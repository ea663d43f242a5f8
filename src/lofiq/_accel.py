# perfbench/worker.py reports this flag in its environment line; numpy is the only backend.
USE_NUMBA = False
