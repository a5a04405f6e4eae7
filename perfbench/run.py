#!/usr/bin/env python3
"""Build the VIPER-grid benchmark and run it with hardware counters.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench` (cargo, release, offline; `CARGO_TARGET_DIR` is
honoured) and runs it with the given arguments plus `--counters stdin`.
Right after starting it, attaches two counters to the benchmark process:
user-mode instructions retired and core cycles (`perf_event_open`,
inherited by the threads it starts later). Whenever the benchmark prints
the marker line, it is blocked waiting for a reading; this script reads
both counters and answers `<instructions> <cycles>` on its stdin. Every
other line is passed through to stdout, and the exit code is the
benchmark's. Exits 1 without a result when the build fails or the
counters cannot be opened or did not count the whole time.
"""

import ctypes
import os
import platform
import signal
import struct
import subprocess
import sys

MARK = "@@counters"

PERF_TYPE_HARDWARE = 0
PERF_COUNT_HW_CPU_CYCLES = 0
PERF_COUNT_HW_INSTRUCTIONS = 1
# perf_event_attr read_format: time enabled, time running.
READ_FORMAT = 1 | 2
# perf_event_attr flag bits: inherit, exclude_kernel, exclude_hv.
FLAGS = (1 << 1) | (1 << 5) | (1 << 6)
ATTR_SIZE = 128
SYS_PERF_EVENT_OPEN = {"x86_64": 298, "aarch64": 241}


def open_counter(pid, config):
    """A counting (not sampling) hardware counter on `pid`, or OSError."""
    nr = SYS_PERF_EVENT_OPEN.get(platform.machine())
    if nr is None:
        raise OSError(f"perf_event_open: unsupported machine {platform.machine()}")
    attr = bytearray(ATTR_SIZE)
    struct.pack_into("IIQ", attr, 0, PERF_TYPE_HARDWARE, ATTR_SIZE, config)
    struct.pack_into("Q", attr, 32, READ_FORMAT)
    struct.pack_into("Q", attr, 40, FLAGS)
    libc = ctypes.CDLL(None, use_errno=True)
    libc.syscall.restype = ctypes.c_long
    buf = (ctypes.c_char * ATTR_SIZE).from_buffer(attr)
    fd = libc.syscall(
        ctypes.c_long(nr), buf, ctypes.c_int(pid), ctypes.c_int(-1), ctypes.c_int(-1),
        ctypes.c_ulong(0),
    )
    if fd < 0:
        err = ctypes.get_errno()
        raise OSError(err, f"perf_event_open: {os.strerror(err)}")
    return fd


def read_counter(fd):
    """The count, or OSError when the PMU was shared out and the counter
    did not run the whole time (its count would be an estimate)."""
    value, enabled, running = struct.unpack("QQQ", os.read(fd, 24))
    if running != enabled:
        raise OSError(f"counter ran {running} of {enabled} ns: the PMU is shared out")
    return value


def build(here):
    manifest = os.path.join(here, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd).returncode != 0:
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(here, "target")
    return os.path.join(target, "release", "sirpent-perfbench")


def main():
    # Turn SIGTERM into an exit, so the `finally` below stops the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    here = os.path.dirname(os.path.abspath(__file__))
    binary = build(here)
    if binary is None:
        print("error: building perfbench failed", file=sys.stderr)
        return 1
    child = subprocess.Popen(
        [binary, *sys.argv[1:], "--counters", "stdin"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        bufsize=1,
    )
    fds = []
    try:
        try:
            fds = [
                open_counter(child.pid, PERF_COUNT_HW_INSTRUCTIONS),
                open_counter(child.pid, PERF_COUNT_HW_CPU_CYCLES),
            ]
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        for line in child.stdout:
            if line.rstrip("\n") == MARK:
                try:
                    reading = f"{read_counter(fds[0])} {read_counter(fds[1])}\n"
                except OSError as e:
                    print(f"error: {e}", file=sys.stderr)
                    return 1
                child.stdin.write(reading)
                child.stdin.flush()
            else:
                sys.stdout.write(line)
        return child.wait()
    finally:
        for fd in fds:
            os.close(fd)
        if child.poll() is None:
            child.kill()
        child.wait()


if __name__ == "__main__":
    sys.exit(main())
