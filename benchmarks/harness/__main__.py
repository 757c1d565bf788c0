"""``python -m benchmarks.harness``: see :mod:`benchmarks.harness.cli`."""

import os
import sys


def _main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    source = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"benchmarks.harness: no program to measure at {source}",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing is salted per process, and that alone moves a
        # query's latency by 4 % from one run to the next. Pin it, so
        # runs differ by their inputs only; this replaces the process.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.orig_argv[1:])
    # The program is measured from source, uninstalled.
    sys.path.insert(0, source)
    from benchmarks.harness.cli import main

    return main()


if __name__ == "__main__":
    raise SystemExit(_main())
