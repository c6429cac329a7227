"""One fresh-process set-up, timed from outside by run.py for `setup_s`.

Imports fluxfem from the checkout's `src` and runs the warm-up ops
(`patch-test` for both methods). Exits 0 when their outputs check out,
1 with the problems on stderr otherwise.
"""

import sys
from pathlib import Path

from workloads import check_results, import_fluxfem, run_ops, warm_up_ops


def main() -> int:
    cli = import_fluxfem(Path(__file__).resolve().parent.parent)
    ops = warm_up_ops()
    problems = [p for outcome in check_results(ops, run_ops(cli, ops)) for p in outcome.problems]
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
