"""Run one bergerconn CLI command as ``python -m bergerconn.cli`` does,
while sampling the calibration kernel (calib.py).

    python3 perfbench/cli_child.py <cli arguments>

Started by the cli_cold workload.  The command's stdout and exit code are
its own.  The last line on stderr is ``perfbench-kernel <median kernel
seconds> <seconds spent in the kernel>``, from which the caller turns the
process's wall time into reference seconds.
"""

import runpy
import sys

import calib

TAG = "perfbench-kernel"


def main() -> int:
    sys.argv = ["bergerconn.cli", *sys.argv[1:]]
    code = 0
    with calib.SpeedSampler() as speed:
        try:
            runpy.run_module("bergerconn.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code
    print(f"{TAG} {speed.median_kernel_s()!r} {speed.paused[-1]!r}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
