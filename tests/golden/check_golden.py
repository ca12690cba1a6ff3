#!/usr/bin/env python3
"""Checks sdcctl outputs against the golden digest corpus.

Usage: check_golden.py SDCCTL CORPUS [--print]

Each non-comment line of CORPUS is "<fnv1a-64 hex digest> <sdcctl arguments...>". The
script runs sdcctl with those arguments once per vector level the host supports
(SDC_SIMD=scalar, then avx2 and avx512 where /proc/cpuinfo lists them; SDC_THREADS
cleared, so --threads decides), hashes stdout with 64-bit FNV-1a, and reports every run
whose digest differs, naming the entry and the level. --print recomputes and prints
every line with its current digest (at the host's default level) instead of checking,
which is how an entry is added.
"""

import os
import subprocess
import sys

FNV_OFFSET = 0xcbf29ce484222325
FNV_PRIME = 0x100000001b3
MASK = (1 << 64) - 1


def fnv1a(data):
    digest = FNV_OFFSET
    for byte in data:
        digest = ((digest ^ byte) * FNV_PRIME) & MASK
    return digest


def entries(path):
    with open(path) as corpus:
        for number, line in enumerate(corpus, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            digest, _, args = line.partition(" ")
            yield number, int(digest, 16), args.split()


def simd_levels():
    """The SDC_SIMD values this host runs: scalar always, the x86 vector levels when the
    CPU flags show them (an sdcctl built with SDC_FORCE_SCALAR runs scalar at each)."""
    flags = set()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("flags"):
                    flags = set(line.split(":", 1)[1].split())
                    break
    except OSError:
        pass
    levels = ["scalar"]
    if "avx2" in flags:
        levels.append("avx2")
    if {"avx512f", "avx512bw", "avx512dq", "avx512vl"} <= flags:
        levels.append("avx512")
    return levels


def main(argv):
    if len(argv) not in (3, 4) or (len(argv) == 4 and argv[3] != "--print"):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sdcctl, corpus = argv[1], argv[2]
    printing = len(argv) == 4
    env = {k: v for k, v in os.environ.items() if k not in ("SDC_THREADS", "SDC_SIMD")}
    levels = [None] if printing else simd_levels()
    failures = 0
    for number, expected, args in entries(corpus):
        for level in levels:
            level_env = env if level is None else dict(env, SDC_SIMD=level)
            run = subprocess.run([sdcctl] + args, env=level_env, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, check=False)
            actual = fnv1a(run.stdout)
            where = f"{corpus}:{number}: SDC_SIMD={level} sdcctl {' '.join(args)}"
            if printing:
                print(f"{actual:016x} {' '.join(args)}")
            elif run.returncode != 0:
                print(f"{where} exited {run.returncode}", file=sys.stderr)
                failures += 1
            elif actual != expected:
                print(f"{where}: digest {actual:016x}, golden {expected:016x}",
                      file=sys.stderr)
                failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
