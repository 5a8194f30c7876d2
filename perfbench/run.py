#!/usr/bin/env python3
"""Build the solver service from source and run one benchmark workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cold-p11 --seed 1 --seconds 10 --trace 0

The build (dune, with its shared cache off so that nothing is written
outside the checkout) logs to stderr; the last line of stdout is the
benchmark's JSON result.  Without the repository's sources next to
perfbench/ the script exits with status 2 and prints no result.
"""

import os
import subprocess
import sys

SOURCES = ("dune-project", "bin/dune", "lib/service/server.ml")
TARGETS = ("./bin/dls_cli.exe", "./perfbench/bin/bench.exe")


def main() -> int:
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        print(
            "perfbench: run from the root of a source checkout (missing: %s)"
            % ", ".join(missing),
            file=sys.stderr,
        )
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", *TARGETS],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    bench = os.path.join("_build", "default", "perfbench", "bin", "bench.exe")
    dls = os.path.join("_build", "default", "bin", "dls_cli.exe")
    os.execv(bench, [bench, "--dls", dls, *sys.argv[1:]])
    return 1


if __name__ == "__main__":
    sys.exit(main())
