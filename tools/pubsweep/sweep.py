#!/usr/bin/env python3
"""Find public items nothing outside their crate uses, and items nothing uses.

Usage: sweep.py [--no-tests] DIR

DIR is a copy of the repository (`git clone`), edited in place. Every `pub`
item, field and `use` of the library crates (`crates/*/src`, except
`crates/bench`) is narrowed to `pub(crate)`. The workspace (`--all-targets`),
the benchmark package under `benchmark/` and the workspace doctests are then
built; every narrowing an error traces back to is restored, round after
round, until all three build. What stays narrowed is used only inside its own
crate: `git -C DIR diff` is that list. Last, the libraries and binaries are
checked without tests, and every `dead_code` or `unused_imports` warning
there — an item that nothing but its own unit tests, or nothing at all, uses
— is printed as `path:line: message`, one per line, sorted. Progress goes to
stderr, one line per restore with the diagnostic that caused it; cargo
builds into DIR/target. The exit code is 1 if an error could not be traced
to a narrowing.

With `--no-tests` the workspace is built as `--lib --bins --examples`: the
integration tests and `#[cfg(test)]` modules no longer count as callers, so
what is printed is the public API only tests reach. The benchmark package
and the doctests still count.
"""

import argparse
import json
import os
import re
import subprocess
import sys

SKIP_CRATES = {"bench"}
KEYWORDS = r"(?:(?:unsafe|const|async)\s+)*(?:fn|struct|enum|trait|type|const|static|mod|union|use)\b"
NARROWABLE = re.compile(r"^(\s*)pub (?=" + KEYWORDS + r"|[A-Za-z_]\w*\s*:)")
# Errors whose message names the item but whose spans do not locate it.
NAMED = re.compile(r"`([A-Za-z_]\w*)`")
TYPE = re.compile(r"type `contig_(\w+?)::(?:\w+::)*(\w+)` is private")
FIELD = re.compile(r"fields? (.+) of struct `(?:\w+::)*(\w+)(?:<[^`]*>)?` (?:is|are) private")
TRIGGER_LINTS = {"private_interfaces", "private_bounds"}
DEAD_LINTS = {"dead_code", "unused_imports"}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def sources(root):
    for crate in sorted(os.listdir(os.path.join(root, "crates"))):
        if crate in SKIP_CRATES:
            continue
        src = os.path.join(root, "crates", crate, "src")
        for dirpath, _, names in os.walk(src):
            for name in sorted(names):
                if name.endswith(".rs"):
                    yield os.path.join(dirpath, name)


def flatten(tree, prefix=""):
    """The paths a `use` tree imports: `a::{b, c::{d, self}}` gives `a::b`,
    `a::c::d` and `a::c`."""
    tree = tree.strip()
    if "{" not in tree:
        path = prefix + tree
        return [path[:-len("::self")] if path.endswith("::self") else path]
    head, rest = tree.split("{", 1)
    inner, parts, depth, start = rest[:rest.rindex("}")], [], 0, 0
    for k, ch in enumerate(inner + ","):
        depth += (ch == "{") - (ch == "}")
        if ch == "," and depth == 0:
            parts.append(inner[start:k])
            start = k + 1
    return [leaf for part in parts if part.strip() for leaf in flatten(part, prefix + head.strip())]


def crate_of(path):
    parts = os.path.normpath(path).split(os.sep)
    return parts[parts.index("crates") + 1] if "crates" in parts else None


class Tree:
    """The narrowed lines of every source file, and the edits to them."""

    def __init__(self, root):
        self.root = root
        self.lines = {}
        self.narrowed = {}  # path -> set of 0-based line numbers

    def narrow_all(self):
        for path in sources(self.root):
            with open(path) as f:
                lines = f.read().split("\n")
            out, hits, depth, in_macro, i = [], set(), 0, False, 0
            while i < len(lines):
                line, code = lines[i], lines[i].split("//")[0]
                if "macro_rules!" in code:
                    in_macro, depth = True, 0
                m = None if in_macro else NARROWABLE.match(line)
                if in_macro:
                    depth += code.count("{") - code.count("}")
                    in_macro = depth > 0 or "}" not in code
                    out.append(line)
                elif m and line[m.end():].startswith("use "):
                    # One line per imported name, so each can be restored
                    # on its own.
                    j = i
                    while ";" not in lines[j].split("//")[0]:
                        j += 1
                    stmt = " ".join(l.split("//")[0].strip() for l in lines[i:j + 1])
                    for leaf in flatten(stmt[stmt.index("use ") + 4:stmt.rindex(";")]):
                        hits.add(len(out))
                        out.append(f"{m.group(1)}pub(crate) use {leaf};")
                    i = j
                elif m:
                    hits.add(len(out))
                    out.append(m.group(1) + "pub(crate) " + line[m.end():])
                else:
                    out.append(line)
                i += 1
            if hits:
                self.lines[path], self.narrowed[path] = out, hits
                self.write(path)
        return sum(map(len, self.narrowed.values()))

    def write(self, path):
        with open(path, "w") as f:
            f.write("\n".join(self.lines[path]))

    def restore(self, path, i, why=""):
        if i not in self.narrowed.get(path, ()):
            return False
        log(f"restore {os.path.relpath(path, self.root)}:{i + 1}: {why}")
        self.narrowed[path].remove(i)
        self.lines[path][i] = self.lines[path][i].replace("pub(crate) ", "pub ", 1)
        self.write(path)
        return True

    def definitions(self, name, crate=None, field_of=None):
        """Narrowed lines that declare, re-export or (as a field) hold `name`."""
        n = re.escape(name)
        decl = re.compile(r"^\s*pub\(crate\) (?:" + KEYWORDS + r"\s+" + n + r"\b|use\b.*\b" + n + r"\b)")
        field = re.compile(r"^\s*pub\(crate\) " + n + r"\s*:")
        for path, hits in self.narrowed.items():
            if crate and crate_of(path) != crate:
                continue
            lines = self.lines[path]
            if field_of:
                starts = [i for i, l in enumerate(lines) if re.search(r"\bstruct " + field_of + r"\b", l)]
                for s in starts:
                    for i in range(s, len(lines)):
                        if i in hits and field.match(lines[i]):
                            yield path, i
                        if i > s and lines[i].strip() == "}":
                            break
            else:
                for i in sorted(hits):
                    if decl.match(lines[i]):
                        yield path, i


def cargo(args, cwd, json_out=True):
    cmd = ["cargo"] + args + (["--message-format=json"] if json_out else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)


def messages(stdout, base):
    for line in stdout.splitlines():
        try:
            m = json.loads(line)
        except ValueError:
            continue
        if m.get("reason") == "compiler-message":
            msg = m["message"]
            for s in spans(msg):
                for t in (s, *invocations(s)):
                    t["path"] = os.path.normpath(os.path.join(base, t["file_name"]))
            yield msg


def spans(msg):
    yield from msg["spans"]
    for child in msg["children"]:
        yield from spans(child)


def invocations(span):
    """The macro invocations `span` was expanded from, innermost first."""
    while span.get("expansion"):
        span = span["expansion"]["span"]
        yield span


def restore_for(tree, msg):
    """Restores what `msg` traces back to; returns the number restored."""
    noted = [s for s in spans(msg) if not s["is_primary"] or s not in msg["spans"]]
    why = msg["message"]
    hit = sum(tree.restore(s["path"], s["line_start"] - 1, why) for s in noted)
    if hit:
        return hit
    # An item a macro declares: the spans point into the macro, whose
    # invocation holds the narrowed line.
    calls = [call for s in spans(msg) for call in invocations(s)]
    named = NAMED.findall(msg["message"])
    found = [(p, i) for n in named for p, i in tree.definitions(n)
             if any(p == c["path"] and c["line_start"] <= i + 1 <= c["line_end"] for c in calls)]
    if found:
        return sum(tree.restore(p, i, why) for p, i in found)
    crate = crate_of(next((s["path"] for s in msg["spans"] if s["is_primary"]), ""))
    return restore_by_name(tree, msg["message"], (msg.get("code") or {}).get("code"), crate)


def restore_by_name(tree, message, code, crate):
    """Restores the narrowing an error names but does not locate: a private
    field, a private type in a signature, a re-export; returns the number
    restored. `crate` is the crate the error was reported in."""
    field = FIELD.search(message)
    if field:
        names = NAMED.findall(field.group(1))
        found = [d for name in names for d in tree.definitions(name, field_of=field.group(2))]
    elif TYPE.search(message):
        krate, name = TYPE.search(message).groups()
        found = tree.definitions(name, krate)
    elif "found module" in message:
        # A narrowed re-export of a function named like its module: the
        # path now resolves to the module.
        name = NAMED.findall(message)[-1]
        found = [(p, i) for p, i in tree.definitions(name) if " use " in tree.lines[p][i]]
    elif code in ("E0364", "E0365"):
        found = [d for name in NAMED.findall(message) for d in tree.definitions(name, crate)]
    else:
        return 0
    return sum(tree.restore(p, i, message) for p, i in list(found))


def build_round(tree, target, workspace_targets):
    """One pass over the three builds; returns (restored, unresolved)."""
    restored, unresolved = 0, []
    root = tree.root
    for args, base in (
        (["check", "--offline", "--workspace", *workspace_targets, "--target-dir", target], root),
        (["check", "--offline", "--all-targets", "--manifest-path", "benchmark/Cargo.toml",
          "--target-dir", os.path.join(target, "benchmark")], os.path.join(root, "benchmark")),
    ):
        out = cargo(args, root)
        for msg in messages(out.stdout, base):
            code = (msg.get("code") or {}).get("code")
            if (msg["level"] == "error" and msg["spans"]) or code in TRIGGER_LINTS:
                n = restore_for(tree, msg)
                restored += n
                if not n and msg["level"] == "error":
                    unresolved.append(msg["rendered"] or msg["message"])
        # An error left over may be a duplicate of one a restore just fixed.
        if restored:
            return restored, []
        if unresolved:
            return 0, unresolved
    doc = ["test", "--offline", "--workspace", "--doc", "--no-fail-fast", "--target-dir", target]
    out = cargo(doc, root, json_out=False)
    if out.returncode:
        text, errors = out.stdout + out.stderr, []
        for line in text.splitlines():
            if line.startswith(("error", "warning")):
                head = re.match(r"error(?:\[(E\d+)\])?: (.*)", line)
                errors.append(head and (head.group(1), head.group(2), []))
            elif errors and errors[-1]:
                errors[-1][2].extend(re.findall(r"(?:-->|:::) ([^\s:]+\.rs):(\d+):\d+", line))
        for code, message, located in filter(None, errors):
            paths = [(os.path.normpath(os.path.join(root, p)), int(n)) for p, n in located]
            n = sum(tree.restore(p, line - 1, "doctest") for p, line in paths)
            # Spans of an error inside a doctest point into the doc comment;
            # one that names its item is restored by that name.
            crate = crate_of(paths[0][0]) if paths else None
            restored += n or restore_by_name(tree, message, code, crate)
        if not restored:
            unresolved.append(text[-4000:])
    return restored, unresolved


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--no-tests", action="store_true",
                    help="count only libraries, binaries, examples, the benchmark and doctests as callers")
    ap.add_argument("dir", help="a copy of the repository, edited in place")
    args = ap.parse_args()
    root = os.path.abspath(args.dir)
    workspace_targets = ["--lib", "--bins", "--examples"] if args.no_tests else ["--all-targets"]
    target = os.path.join(root, "target")
    tree = Tree(root)
    total = tree.narrow_all()
    log(f"narrowed {total} items")
    rounds = 0
    while True:
        rounds += 1
        restored, unresolved = build_round(tree, target, workspace_targets)
        log(f"round {rounds}: restored {restored}")
        if unresolved:
            log("errors no narrowing explains:\n" + "\n".join(unresolved))
            return 1
        if not restored:
            break
    left = sum(map(len, tree.narrowed.values()))
    log(f"{left} of {total} items stay narrowed after {rounds} rounds")
    out = cargo(["check", "--offline", "--workspace", "--lib", "--bins", "--target-dir", target], root)
    dead = set()
    for msg in messages(out.stdout, root):
        code = (msg.get("code") or {}).get("code")
        primary = [s for s in msg["spans"] if s["is_primary"]]
        if code in DEAD_LINTS and primary and crate_of(primary[0]["path"]) not in (None, *SKIP_CRATES):
            rel = os.path.relpath(primary[0]["path"], root)
            dead.add((rel, primary[0]["line_start"], msg["message"]))
    for rel, line, text in sorted(dead):
        print(f"{rel}:{line}: {text}")
    log(f"{len(dead)} unused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
