"""Output hashes and host readings shared by the harness and its session.

Output hashes are order-independent: a table's hash is the sha256 of its
sorted per-row digests, so the same rows hash the same whatever blocks,
files or partitions they arrive in. Host readings come from ``/proc``:
CPU time and steal from ``/proc/stat``, load from ``/proc/loadavg`` and
resident memory from ``/proc/<pid>/statm`` for a whole process tree.
"""

from __future__ import annotations

import glob
import hashlib
import os
import threading

_TICK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def table_hash(table) -> str:
    """Order-independent content hash of a pyarrow Table (columns by name)."""
    names = sorted(table.column_names)
    cols = [table.column(n).to_pylist() for n in names]
    digests = sorted(
        hashlib.sha1(repr(row).encode("utf-8")).digest() for row in zip(*cols)
    )
    h = hashlib.sha256(repr(names).encode("utf-8"))
    for d in digests:
        h.update(d)
    return h.hexdigest()


def parquet_dir_table(path: str):
    """All Parquet files under ``path`` (recursively) as one Table."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    files = sorted(glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True))
    if not files:
        raise FileNotFoundError(f"no parquet output under {path}")
    return pa.concat_tables([pq.read_table(f) for f in files])


def tables_hash(*tables) -> str:
    """One hash over the content hashes of several tables, in order."""
    return hashlib.sha256("".join(table_hash(t) for t in tables).encode()).hexdigest()


def blobs_hash(blobs) -> str:
    """Hash of an ordered list of file contents (bytes)."""
    h = hashlib.sha256()
    for b in blobs:
        h.update(hashlib.sha256(b).digest())
    return h.hexdigest()


def cpu_times() -> dict:
    """Whole-VM CPU seconds from the aggregate ``cpu`` line of /proc/stat:
    ``busy`` = user+nice+system+irq+softirq (steal excluded), ``steal``,
    and ``total`` over every state."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    user, nice, system, idle, iowait, irq, softirq, steal = (fields + [0] * 8)[:8]
    busy = user + nice + system + irq + softirq
    total = busy + idle + iowait + steal
    return {"busy": busy / _TICK, "steal": steal / _TICK, "total": total / _TICK}


def cpu_delta(before: dict, after: dict) -> dict:
    total = after["total"] - before["total"]
    return {
        "cpu_s": after["busy"] - before["busy"],
        "steal_share": (after["steal"] - before["steal"]) / total if total > 0 else 0.0,
    }


def loadavg() -> list:
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def _ppid_map() -> dict:
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after its ')'
        rest = stat[stat.rfind(")") + 2:].split()
        out[int(d)] = (int(rest[1]), rest[0], rest[19])  # ppid, state, starttime
    return out


def descendants(root: int) -> dict:
    """pid → start time of every live, non-zombie process below ``root``."""
    procs = _ppid_map()
    children = {}
    for pid, (ppid, _state, _start) in procs.items():
        children.setdefault(ppid, []).append(pid)
    out, todo = {}, list(children.get(root, ()))
    while todo:
        pid = todo.pop()
        ppid, state, start = procs[pid]
        if state != "Z":
            out[pid] = start
        todo.extend(children.get(pid, ()))
    return out


def alive(pid: int, start: str) -> bool:
    """True while ``pid`` is the same process (same start time), not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            rest = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return False
    return rest[0] != "Z" and rest[19] == start


def tree_rss_bytes(root: int) -> int:
    total = 0
    for pid in [root, *descendants(root)]:
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1]) * _PAGE
        except OSError:
            pass
    return total


class PeakRss:
    """Samples the summed RSS of a process tree on a background thread."""

    def __init__(self, root: int, interval_s: float = 0.2):
        self.root = root
        self.interval_s = interval_s
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while True:
            self.peak = max(self.peak, tree_rss_bytes(self.root))
            if self._stop.wait(self.interval_s):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, tree_rss_bytes(self.root))
