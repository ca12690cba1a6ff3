#!/usr/bin/env python3
"""Checks sdcctl outputs against the golden digest corpus.

Usage: check_golden.py SDCCTL CORPUS [--print]

Each non-comment line of CORPUS is "<fnv1a-64 hex digest> <sdcctl arguments...>". The
script runs sdcctl with those arguments (SDC_THREADS and SDC_SIMD cleared, so --threads
and the host decide), hashes stdout with 64-bit FNV-1a, and fails on the first entry
whose digest differs, naming it. --print recomputes and prints every line with its
current digest instead of checking, which is how an entry is added.
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


def main(argv):
    if len(argv) not in (3, 4) or (len(argv) == 4 and argv[3] != "--print"):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sdcctl, corpus = argv[1], argv[2]
    printing = len(argv) == 4
    env = {k: v for k, v in os.environ.items() if k not in ("SDC_THREADS", "SDC_SIMD")}
    failures = 0
    for number, expected, args in entries(corpus):
        run = subprocess.run([sdcctl] + args, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, check=False)
        actual = fnv1a(run.stdout)
        if printing:
            print(f"{actual:016x} {' '.join(args)}")
            continue
        if run.returncode != 0:
            print(f"{corpus}:{number}: sdcctl {' '.join(args)} exited {run.returncode}",
                  file=sys.stderr)
            failures += 1
        elif actual != expected:
            print(f"{corpus}:{number}: sdcctl {' '.join(args)}: digest {actual:016x}, "
                  f"golden {expected:016x}", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
