#!/usr/bin/env python
"""CI smoke test for the adaptive sweep's resume contract.

For each routing kernel (``batched`` and ``bitmask``; both run the
same adaptive round loop) it orchestrates three ``wdm-repro sweep``
subprocesses:

1. **reference** -- the sweep run to completion without a cache;
2. **interrupted** -- the same sweep with ``--resume`` into a fresh
   cache directory, SIGKILLed as soon as its first round entry is
   published in the cache (a ``.tmp-`` file mid-write does not count);
3. **resumed** -- the same ``--resume`` command again, run to
   completion against the surviving cache.

The resumed run's table must be byte-identical to the reference run's
(the cache-traffic footer is stripped: hit/store counts legitimately
differ between a cold and a resumed run -- they are *how* the contract
is met, not part of the result).  The check also proves that a resume
happened: it fails if the interrupted run finished before the kill, or
if the resumed run replayed no warm round (0 cache hits).  Exit 0 on
success, 1 on any failure.

Usage::

    python tools/check_resume.py
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import tempfile
import time

#: one adaptive sweep, sized so a run takes a second or two: many
#: rounds, so a kill after the first published round lands mid-run
SWEEP_ARGS = [
    "sweep",
    "--n", "3", "--r", "3", "--k", "1",
    "--m-max", "6",
    "--steps", "200",
    "--ci-halfwidth", "0.008",
]
KERNELS = ("batched", "bitmask")
#: seconds between two looks at the cache directory
POLL_S = 0.002


def _command(kernel: str, extra: list[str]) -> list[str]:
    return [
        sys.executable, "-m", "repro", *SWEEP_ARGS, "--kernel", kernel, *extra,
    ]


def _comparable(output: str) -> str:
    """The result table without the cache-traffic footer."""
    lines = [
        line
        for line in output.splitlines()
        if not line.startswith("cache:")
    ]
    return "\n".join(lines).rstrip()


def _published(directory: str) -> int:
    """Round entries the cache has published (temp files excluded)."""
    with os.scandir(directory) as entries:
        return sum(
            1
            for entry in entries
            if entry.name.endswith(".pkl") and not entry.name.startswith(".tmp-")
        )


def _interrupt(command: list[str], directory: str) -> bool:
    """Run ``command`` until its first published round, then SIGKILL it.

    Returns whether the kill interrupted the run; False means the run
    exited on its own first.
    """
    process = subprocess.Popen(
        command, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    while process.poll() is None and not _published(directory):
        time.sleep(POLL_S)
    process.kill()  # SIGKILL: no cleanup handlers run
    return process.wait() == -signal.SIGKILL


def check(kernel: str) -> bool:
    """One kill-and-resume round trip under ``kernel``; True if it held."""
    start = time.perf_counter()
    reference = subprocess.run(
        _command(kernel, []), capture_output=True, text=True
    )
    reference_s = time.perf_counter() - start
    if reference.returncode != 0:
        print(reference.stdout)
        print(reference.stderr, file=sys.stderr)
        print(f"FAIL [{kernel}]: reference sweep exited nonzero")
        return False
    print(f"[{kernel}] reference sweep: {reference_s:.2f}s")

    with tempfile.TemporaryDirectory(prefix="wdm-resume-smoke-") as tmp:
        resume_args = ["--resume", "--cache-dir", tmp]
        if not _interrupt(_command(kernel, resume_args), tmp):
            print(
                f"FAIL [{kernel}]: the interrupted sweep finished before "
                "the kill, so nothing was resumed"
            )
            return False
        print(
            f"[{kernel}] interrupted sweep killed; {_published(tmp)} round "
            "entries survived in the cache"
        )

        resumed = subprocess.run(
            _command(kernel, resume_args), capture_output=True, text=True
        )
        if resumed.returncode != 0:
            print(resumed.stdout)
            print(resumed.stderr, file=sys.stderr)
            print(f"FAIL [{kernel}]: resumed sweep exited nonzero")
            return False
        hits = re.search(r"cache: (\d+) hits", resumed.stdout)
        print(f"[{kernel}] resumed sweep: {hits.group(0) if hits else 'no cache footer'}")
        if hits is None or int(hits.group(1)) == 0:
            print(f"FAIL [{kernel}]: the resumed sweep replayed no warm round")
            return False

    if _comparable(resumed.stdout) != _comparable(reference.stdout):
        print(f"FAIL [{kernel}]: resumed sweep diverged from the uninterrupted run")
        print("--- reference ---")
        print(_comparable(reference.stdout))
        print("--- resumed ---")
        print(_comparable(resumed.stdout))
        return False
    print(f"ok [{kernel}]: resumed sweep is bit-identical to the uninterrupted run")
    return True


def main() -> int:
    results = [check(kernel) for kernel in KERNELS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
