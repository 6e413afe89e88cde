"""Run one sarqc command as the `sarqc` console script does, timing its parts.

    python3 bench/launch.py TIMING_JSON ARG...

Equivalent to `sarqc ARG...` (`from sarqc.cli import main; sys.exit(main())`),
and writes the wall time of `main()` to TIMING_JSON.
"""

import sys
import time

del sys.path[0]  # this script's directory, so its modules cannot shadow the program's imports

from sarqc.cli import main  # noqa: E402

t0 = time.perf_counter()
rc = main(sys.argv[2:])
t1 = time.perf_counter()
with open(sys.argv[1], "w") as fh:
    fh.write(f'{{"main_s": {t1 - t0!r}}}\n')
sys.exit(rc)
