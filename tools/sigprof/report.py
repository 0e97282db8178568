#!/usr/bin/env python3
"""Symbolise a prof.so dump and print where the samples went.

    report.py BINARY [DUMP ...] [--top N] [--callers SUBSTRING] [--depth D]
              [--lines SUBSTRING]

Prints each function's self share (samples whose RIP is inside it) and
inclusive share (samples with it anywhere on the stack). With --callers, also
the most frequent caller chains of every function whose demangled name
contains SUBSTRING, innermost caller first. With --lines, also the self
samples of every such function by source line: the innermost three inlined
frames of each RIP, from `addr2line -i` (the binary needs line tables; see
README.md). --top 0 prints every row. Several
dumps of one binary are pooled. Symbols come from `nm -C`, so only the
program's own text is named. A sample whose RIP is outside it (a library
leaf such as memcpy) is charged to the word at RSP when that word points
into the program's text, as `<caller> (via library)`; everything else is
[library or kernel].
"""
import argparse
import bisect
import collections
import os
import subprocess


def symbols(binary):
    out = subprocess.run(["nm", "-C", "--defined-only", "-n", binary],
                         capture_output=True, text=True, check=True).stdout
    table = []
    for line in out.splitlines():
        addr, kind, name = line.split(" ", 2)
        if kind in "tTwW":
            table.append((int(addr, 16), name))
    return [a for a, _ in table], [n for _, n in table]


def source_lines(binary, offsets):
    """The innermost three inlined frames of each offset as one
    `file:line <- file:line <- file:line` string, from `addr2line -i`."""
    out = subprocess.run(["addr2line", "-e", binary, "-a", "-i", "-p"] + [hex(o) for o in offsets],
                         capture_output=True, text=True, check=True).stdout
    blocks = []
    for line in out.splitlines():
        inlined = line.startswith(" (inlined by) ")
        where = line.removeprefix(" (inlined by) ") if inlined else line.split(": ", 1)[-1]
        where = "/".join(where.split("/")[-2:])  # crate-relative enough to read
        if inlined:
            blocks[-1].append(where)
        else:
            blocks.append([where])
    return [" <- ".join(block[:3]) for block in blocks]


def load(dump, binary):
    """The samples of one dump as lists of offsets into the binary (-1 outside
    it): RIP, the word at RSP, then the return addresses; and the offsets of
    the binary's executable mapping."""
    base, end, text, samples, in_samples = None, 0, range(0), [], False
    real = os.path.realpath(binary)
    for line in open(dump):
        if in_samples:
            samples.append([int(word, 16) for word in line.split()])
        elif line.startswith("--samples--"):
            in_samples = True
        elif line.rstrip().endswith(real):
            span, perms = line.split()[:2]
            lo, hi = (int(word, 16) for word in span.split("-"))
            base = lo if base is None else base  # first mapping: file offset 0
            end = hi
            if "x" in perms:
                text = range(lo - base, hi - base)
    if base is None:
        raise SystemExit(f"{real} is not in the dump's maps; pass the path the program ran from")
    offsets = [[addr - base if base <= addr < end else -1 for addr in sample] for sample in samples]
    return offsets, text


def main():
    args = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    args.add_argument("binary")
    args.add_argument("dump", nargs="*", default=["sigprof.out"])
    args.add_argument("--top", type=int, default=30)
    args.add_argument("--callers")
    args.add_argument("--depth", type=int, default=4)
    args.add_argument("--lines")
    args = args.parse_args()
    addrs, names = symbols(args.binary)
    top = args.top or None  # most_common(None) is every row
    samples = []
    for dump in args.dump:
        offsets, text = load(dump, args.binary)
        samples += [(sample, text) for sample in offsets]

    def name(offset):
        at = bisect.bisect_right(addrs, offset) - 1
        return names[at] if offset >= 0 and at >= 0 else "[library or kernel]"

    self_n, incl_n, chains = collections.Counter(), collections.Counter(), collections.Counter()
    for (rip, word, *callers), text in samples:
        stack = [name(addr) for addr in callers]
        if rip < 0 and word in text:
            # A leaf outside the binary: its return address names the caller
            # the frame-pointer chain skips.
            stack = [f"{name(word)} (via library)", name(word)] + stack
        else:
            stack = [name(rip)] + stack
        self_n[stack[0]] += 1
        incl_n.update(set(stack))
        if args.callers:
            for at, frame in enumerate(stack):
                if args.callers in frame:
                    chains[(frame, " <- ".join(stack[at + 1:at + 1 + args.depth]))] += 1
                    break
    total = max(len(samples), 1)
    print(f"{len(samples)} samples")
    print(f"{'self %':>7} {'incl %':>7}  function")
    for func, n in self_n.most_common(top):
        print(f"{100 * n / total:7.2f} {100 * incl_n[func] / total:7.2f}  {func}")
    print(f"\n{'incl %':>7}  function (by inclusive share)")
    for func, n in incl_n.most_common(top):
        print(f"{100 * n / total:7.2f}  {func}")
    if args.callers:
        print(f"\ncaller chains of *{args.callers}*")
        for (func, chain), n in chains.most_common(top):
            print(f"{100 * n / total:7.2f}  {func} <- {chain}")
    if args.lines:
        rips = collections.Counter(
            rip for (rip, *_), _ in samples if rip >= 0 and args.lines in name(rip))
        lines = collections.Counter()
        wheres = source_lines(args.binary, list(rips)) if rips else []
        for where, n in zip(wheres, rips.values()):
            lines[where] += n
        print(f"\nself samples of *{args.lines}* by source line (innermost inlined frame first)")
        for where, n in lines.most_common(top):
            print(f"{100 * n / total:7.2f}  {where}")


if __name__ == "__main__":
    main()
