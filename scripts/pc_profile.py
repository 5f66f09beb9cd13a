#!/usr/bin/env python3
"""Tabulate a pc_sample.c profile by simulator layer.

Usage (after recording with scripts/pc_sample.c, see its file comment):

    python3 scripts/pc_profile.py pc_sample.<pid>.txt [--top N] [--json]

Every sample is resolved with `addr2line -a -i -f -C` against the
mapping it fell in. With -i addr2line lists the inlined frames of an
address innermost first; the sample is charged to the layer of that
innermost frame, by its source path (LAYERS below, first match wins).
Prints the share of samples per layer and the N hottest innermost
functions, or with --json one object {"samples": n, "layers": {layer:
share}, "functions": [[name, share], ...]}.
"""

import argparse
import collections
import functools
import json
import re
import subprocess
import sys

# (layer, pattern on "function @ file") -- first match wins. Library
# containers are named for what they are, not for their caller.
LAYERS = [
    ("std::unordered_map", r"bits/hashtable|bits/unordered_map|"
                           r"std::_Hashtable|std::__detail::_Map_base"),
    ("stats", r"src/common/stats\."),
    ("flat_map", r"src/sim/flat_map\."),
    ("trace_cpu", r"src/(trace|cpu|workload)/"),
    ("cache", r"src/cache/"),
    ("dramcache", r"src/dramcache/"),
    ("coherence", r"src/coherence/"),
    ("noc", r"src/interconnect/|src/sim/queue_router\."),
    ("mem", r"src/mem/"),
    ("mapping", r"src/mapping/"),
    ("socket", r"src/sim/socket\."),
    ("kernel", r"src/sim/(event_queue|cell_executor|inline_function|"
               r"slab|machine|runner|watchdog)\."),
    ("sweep", r"src/exp/|tools/"),
    ("libc", r"libc\.so|libstdc\+\+|libm\.so|ld-linux|vdso"),
]


def parse(path):
    maps, pcs = [], []
    with open(path) as f:
        for line in f:
            if line.startswith("M "):
                parts = line[2:].split()
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                off = int(parts[2], 16)
                name = parts[5] if len(parts) > 5 else ""
                maps.append((lo, hi, off, name))
            elif line.startswith("P "):
                pcs.append(int(line[2:], 16))
    return maps, pcs


@functools.lru_cache(maxsize=None)
def is_pie_or_shared(path):
    """ELF e_type ET_DYN: addresses are relative to the load base."""
    try:
        with open(path, "rb") as f:
            head = f.read(18)
        return head[16] == 3
    except OSError:
        return True


def resolve(module, addrs):
    """addr -> innermost "function @ file:line" via addr2line -i."""
    out = {}
    addrs = sorted(set(addrs))
    for i in range(0, len(addrs), 4000):
        chunk = addrs[i:i + 4000]
        proc = subprocess.run(
            ["addr2line", "-a", "-i", "-f", "-C", "-e", module]
            + [hex(a) for a in chunk],
            capture_output=True, text=True, check=False)
        current, lines = None, []
        for line in proc.stdout.splitlines() + ["0x0"]:
            if re.fullmatch(r"0x[0-9a-f]+", line):
                if current is not None and len(lines) >= 2:
                    where = lines[1]
                    if where.startswith("??"):
                        where = module  # no line info: the library
                    out[current] = f"{lines[0]} @ {where}"
                current, lines = int(line, 16), []
            else:
                lines.append(line)
    return out


def layer_of(frame):
    for layer, pattern in LAYERS:
        if re.search(pattern, frame):
            return layer
    return "other"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()

    maps, pcs = parse(args.profile)
    by_module = collections.defaultdict(list)
    where = []
    for pc in pcs:
        hit = next((m for m in maps if m[0] <= pc < m[1]), None)
        if hit is None:
            where.append(None)
            continue
        lo, _, off, name = hit
        addr = pc - lo + off if is_pie_or_shared(name) else pc
        by_module[name].append(addr)
        where.append((name, addr))

    frames = {}
    for name, addrs in by_module.items():
        if name.startswith("/"):
            for addr, frame in resolve(name, addrs).items():
                frames[(name, addr)] = frame

    layers = collections.Counter()
    funcs = collections.Counter()
    for w in where:
        frame = frames.get(w) if w else None
        if frame is None:
            frame = f"?? @ {w[0] if w else '??'}"
        layers[layer_of(frame)] += 1
        funcs[frame.split(" @ ")[0]] += 1

    n = max(1, len(pcs))
    if args.json:
        print(json.dumps({
            "samples": len(pcs),
            "layers": {k: round(v / n, 4) for k, v in layers.most_common()},
            "functions": [[k, round(v / n, 4)]
                          for k, v in funcs.most_common(args.top)],
        }, indent=1))
        return 0
    print(f"{len(pcs)} samples")
    print(f"{'layer':<20} {'samples':>8} {'share':>7}")
    for k, v in layers.most_common():
        print(f"{k:<20} {v:>8} {100.0 * v / n:>6.1f}%")
    print()
    for k, v in funcs.most_common(args.top):
        print(f"{100.0 * v / n:>6.1f}%  {k}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
