"""Keep one CPU from halting: ``python3 perfbench/awake.py CPU``.

Runs at idle scheduling priority, so it only ever gets the CPU when
nothing else wants it, and spins.  On a virtual machine an idle vCPU
halts and the hypervisor takes it back; waking it for the next request
then costs up to milliseconds that depend on the host's other tenants.
With a spinner on every CPU the benchmark's latencies measure the server
instead of that wake-up (the effect of booting with ``idle=poll``).
"""

import os
import sys


def main(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, PermissionError, OSError):
        os.nice(19)
    while True:
        pass


if __name__ == "__main__":
    main(int(sys.argv[1]))
