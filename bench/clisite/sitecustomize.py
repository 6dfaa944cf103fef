"""Imported at start-up by every CLI call of the cli-warm workload (run.py
puts this directory on the call's PYTHONPATH).  When WEIGHTSYS_BENCH_TICKS
names a file, it runs a ``speed.Ticker`` for the life of the process and
writes the ticks there at exit, so that run.py can bring the call's CPU
time to reference speed.  It touches nothing of weightsys.
"""

import os

_path = os.environ.get("WEIGHTSYS_BENCH_TICKS")
if _path:
    import atexit
    import json
    import sys

    _bench = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.append(_bench)
    import speed
    sys.path.remove(_bench)

    _ticker = speed.Ticker().__enter__()

    def _write():
        _ticker.__exit__(None, None, None)
        with open(_path, "w") as fh:
            json.dump(_ticker.ticks, fh)

    atexit.register(_write)
