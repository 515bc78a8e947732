"""Process helpers read from ``/proc`` (``psutil`` is not a dependency): the
CPU count, peak resident memory of the main process and every process it
started, and a bounded wait for those processes to end."""

from __future__ import annotations

import os
import signal
import sys
import time


def nproc() -> int:
    """CPUs as ``nproc`` counts them: the affinity mask, capped by
    ``OMP_NUM_THREADS`` when set."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "")
    return max(1, min(n, int(omp))) if omp.isdigit() and int(omp) > 0 else n


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                # the command may hold spaces or ')': ppid follows the last ')'
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # process ended while listing
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants(pid: int | None = None) -> list[int]:
    """Every live process below ``pid`` (default: this process)."""
    kids = _children_map()
    out, todo = [], [pid or os.getpid()]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb() -> tuple[float, int]:
    """(sum of VmHWM over this process and its descendants in MB, number of
    processes summed)."""
    pids = [os.getpid()] + descendants()
    return sum(_vm_hwm_kb(p) for p in pids) / 1024.0, len(pids)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")[:120]
    except OSError:
        return "?"


def stop_all(pids: list[int], timeout_s: float = 10.0) -> None:
    """Wait for ``pids`` to end; SIGTERM then SIGKILL the ones that linger,
    and reap those that are our own children."""
    deadline = time.monotonic() + timeout_s
    for sig in (None, signal.SIGTERM, signal.SIGKILL):
        if sig is not None:
            for p in pids:
                if _alive(p):
                    print(f"replaybench: sending {sig.name} to {p} "
                          f"({_cmdline(p)})", file=sys.stderr, flush=True)
                    try:
                        os.kill(p, sig)
                    except ProcessLookupError:
                        pass
        while time.monotonic() < deadline and any(_alive(p) for p in pids):
            time.sleep(0.1)
        deadline = time.monotonic() + 5.0
    for p in pids:
        try:
            os.waitpid(p, os.WNOHANG)
        except ChildProcessError:
            pass
