"""Where one consensus-irl command sets its peak memory.

    python3 tools/peaks.py COMMAND [FLAGS...]

Runs the command in this process, from this checkout's src/, under a
sys.setprofile hook that reads this process's VmHWM (its peak resident set,
from /proc/self/status) as each function of the package is entered and as it
returns. On stderr it prints the VmHWM after the package import; then, as
each package call returns having raised VmHWM by at least 0.25 MiB since it
was entered, the VmHWM, the rise and the call (file:function), so a rise is
named by every call it happened under, innermost first, and after it the
modules first imported during that call that no line has named yet (an
import's code and data count toward the rise: numpy.random's first use costs
about 2.5 MiB); then the process's final ru_maxrss. Each line also gives the
current resident set, VmRSS, read with its VmHWM: memory that a call freed
but that the allocator kept (a heap that cannot shrink past a live block
above the freed one) stays in VmRSS, and so under every later peak. The
command's stdout and exit status are its own. Linux only: it needs
/proc/self/status.

The kernel counts resident pages per thread in batches, so a VmHWM read can
lag the true peak by a fraction of a MiB, and a line may show a little less
than the line before it.
"""

from __future__ import annotations

import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STEP_MIB = 0.25  # the least rise of VmHWM within one call that gets a line


def main(argv: list[str]) -> int:
    status_fd = os.open("/proc/self/status", os.O_RDONLY)

    def status() -> bytes:
        return os.pread(status_fd, 1 << 16, 0)

    def mib(status: bytes, field: bytes) -> float:
        at = status.index(field) + len(field)
        return int(status[at : status.index(b"kB", at)]) / 1024

    def vm_hwm_mib() -> float:
        return mib(status(), b"VmHWM:")

    def report(peak: float, where: str, now: bytes) -> None:
        print(f"{peak:9.2f} MiB  VmRSS {mib(now, b'VmRSS:'):9.2f}  {where}", file=sys.stderr)

    sys.path.insert(0, str(ROOT / "src"))
    import consensus_irl
    from consensus_irl.cli import dispatch

    package = os.path.dirname(consensus_irl.__file__) + os.sep
    now = status()
    report(mib(now, b"VmHWM:"), "import", now)
    # (VmHWM, number of modules loaded) on entry to each package call now running,
    # innermost last; sys.modules keeps its modules in the order they were loaded
    entered = []
    named = set()  # the modules a line has named

    def probe(frame, event, _arg):
        code = frame.f_code
        if event not in ("call", "return") or not code.co_filename.startswith(package):
            return
        if event == "call":
            entered.append((vm_hwm_mib(), len(sys.modules)))
            return
        now = status()
        peak, (before, n_modules) = mib(now, b"VmHWM:"), entered.pop()
        if peak - before >= STEP_MIB:
            name = getattr(code, "co_qualname", code.co_name)
            loaded = list(sys.modules)[n_modules:]
            # a module is named unless the package it belongs to was loaded here too
            new = [m for m in loaded if m.rpartition(".")[0] not in loaded and m not in named]
            named.update(new)
            imports = f"  (first imports {', '.join(new)})" if new else ""
            where = f"{os.path.basename(code.co_filename)}:{name}{imports}"
            report(peak, f"+{peak - before:.2f}  {where}", now)

    sys.setprofile(probe)
    try:
        exit_status = dispatch(argv)
    finally:
        sys.setprofile(None)
    report(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "ru_maxrss", status())
    return exit_status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
