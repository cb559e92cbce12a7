"""Run one consensus-irl command the way the console script does, noting when set-up ended.

    python3 perfbench/cli_child.py STAMP_FILE COMMAND [FLAGS...]

Right after `import consensus_irl.cli` this writes CLOCK_MONOTONIC and the
path the package was imported from to STAMP_FILE. The clock is system-wide,
so the parent subtracts the time it spawned this process and gets the
command's set-up time: interpreter start plus the package import. Then it
dispatches the command and exits with its code.
"""

import sys
import time

import consensus_irl.cli as cli

if __name__ == "__main__":
    imported = time.clock_gettime(time.CLOCK_MONOTONIC)
    with open(sys.argv[1], "w") as fh:
        fh.write(f"{imported!r}\n{cli.__file__}\n")
    sys.exit(cli.dispatch(sys.argv[2:]))
