"""Reference values the checkers take from the package itself.

    python bench/oracle.py nm M_MAX       N_m by recurrence and closed form, m = 0..M_MAX
    python bench/oracle.py load-rank PATH  shape and rank of a matrix dump, and the load time

These run in a child process so that run.py itself never imports
numpy: a child's peak RSS includes the memory of the process that started
it, so a heavy run.py would inflate every op's peak_rss_mb.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    command, arg = argv
    if command == "nm":
        from storagecodes.carryfree import nm_closed_form, nm_recurrence

        doc = [[nm_recurrence(m), nm_closed_form(m)] for m in range(int(arg) + 1)]
    elif command == "load-rank":
        from storagecodes.bitmatrix import BitMatrix

        start = time.perf_counter()
        with open(arg) as fh:
            matrix = BitMatrix.load(fh)
        load_s = time.perf_counter() - start
        doc = {"rows": matrix.rows, "cols": matrix.cols, "rank": matrix.rank(),
               "load_s": load_s, "bytes": os.path.getsize(arg)}
    else:
        print(f"unknown command {command!r}", file=sys.stderr)
        return 2
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
