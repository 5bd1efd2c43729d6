#!/usr/bin/env python3
"""Documentation consistency gate.

Three checks, all cheap enough for every CI run and for ctest:

1. **Link check** — every relative markdown link in ``README.md`` and
   ``docs/*.md`` must point at a file or directory that exists (external
   ``http(s)://``/``mailto:`` links and pure ``#anchor`` links are
   skipped; a link's own ``#fragment`` is ignored when resolving).

2. **Drift guard** — every source file under ``src/<subsystem>/`` must be
   mentioned in ``docs/architecture.md``'s directory map.  A file
   ``src/sim/context.hpp`` counts as mentioned when the document contains
   either its full name (``context.hpp``) or the brace-pair shorthand the
   map uses for header/impl pairs (``context.{``, covering
   ``context.{hpp,cpp}``).  Adding a new source file without documenting
   it fails CI — the map cannot silently rot.

3. **Stale rows** — the other direction: every file a table row names
   (the backticked names in its first cell) under a ``### `src/<sub>/` ``
   heading of the map must exist as ``src/<sub>/<file>``.  The
   ``{hpp,cpp}`` shorthand is expanded first, so ``mux.{hpp,cpp}`` needs
   both ``mux.hpp`` and ``mux.cpp``.  Deleting a source file without
   deleting its row fails CI.

Usage:
    docs_check.py [--repo-root PATH]

Exit status: 0 clean, 1 with findings (one per line on stderr), 2 when
the repository layout is unusable (e.g. missing architecture.md).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# [text](target) — excludes images' leading '!' capture by not caring: an
# image's path must exist just like a link's.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_EXTERNAL_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")  # http:, mailto:, …

_SOURCE_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}

# "### `src/sim/` — ..." opens a directory-map section for src/sim.
_MAP_HEADING_RE = re.compile(r"^###\s+`src/([^`]+?)/?`")
_CODE_SPAN_RE = re.compile(r"`([^`]+)`")
_BRACES_RE = re.compile(r"^(.*)\{([^{}]*)\}(.*)$")


class DocsLayoutError(Exception):
    """The repository is missing a file the checks need."""


def markdown_files(repo_root):
    """README.md plus every docs/*.md that exists, in stable order."""
    root = Path(repo_root)
    files = []
    readme = root / "README.md"
    if readme.is_file():
        files.append(readme)
    docs = root / "docs"
    if docs.is_dir():
        files.extend(sorted(docs.glob("*.md")))
    return files


def check_links(repo_root):
    """Broken relative links, as 'file: target' strings."""
    problems = []
    for md in markdown_files(repo_root):
        text = md.read_text(encoding="utf-8")
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if _EXTERNAL_RE.match(target) or target.startswith("#"):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            if path_part.startswith("/"):
                # GitHub-style repo-root link: resolve against the repo,
                # not the runner's filesystem root.
                resolved = (Path(repo_root) / path_part.lstrip("/")).resolve()
            else:
                resolved = (md.parent / path_part).resolve()
            if not resolved.exists():
                rel = md.relative_to(Path(repo_root))
                problems.append(f"{rel}: broken link -> {target}")
    return problems


def source_files(repo_root):
    """Every src/<subsystem>/<file> source path, repo-relative."""
    src = Path(repo_root) / "src"
    if not src.is_dir():
        return []
    return sorted(
        p.relative_to(Path(repo_root))
        for p in src.rglob("*")
        if p.is_file() and p.suffix in _SOURCE_SUFFIXES)


def _mentioned(text, token, bound_end=True):
    """True when `token` appears starting at a word boundary (and, for
    full file names, ending at one) — a plain substring test would let
    ``source.hpp`` ride on ``cbr_source.hpp``'s mention.  The brace
    shorthand (``context.{``) ends in its own delimiter, so only its
    start is bounded."""
    pattern = r"(?<!\w)" + re.escape(token) + (r"(?!\w)" if bound_end else "")
    return re.search(pattern, text) is not None


def check_drift(repo_root):
    """Source files absent from docs/architecture.md's directory map."""
    arch = Path(repo_root) / "docs" / "architecture.md"
    if not arch.is_file():
        raise DocsLayoutError("docs/architecture.md does not exist")
    text = arch.read_text(encoding="utf-8")
    problems = []
    for rel in source_files(repo_root):
        name = rel.name  # e.g. context.hpp
        stem_brace = rel.stem + ".{"  # e.g. context.{  (for context.{hpp,cpp})
        if (_mentioned(text, name) or
                _mentioned(text, stem_brace, bound_end=False)):
            continue
        problems.append(
            f"docs/architecture.md: no mention of {rel.as_posix()} "
            "in the directory map")
    return problems


def expand_braces(name):
    """``mux.{hpp,cpp}`` -> [``mux.hpp``, ``mux.cpp``]; other names as-is."""
    match = _BRACES_RE.match(name)
    if not match:
        return [name]
    head, alternatives, tail = match.groups()
    return [head + alt.strip() + tail for alt in alternatives.split(",")]


def map_rows(text):
    """(subsystem, file name) for every file a directory-map row names."""
    subsystem = None
    for line in text.splitlines():
        if line.startswith("#"):
            heading = _MAP_HEADING_RE.match(line)
            subsystem = heading.group(1) if heading else None
            continue
        if subsystem is None or not line.startswith("|"):
            continue
        first_cell = line.split("|")[1]
        for span in _CODE_SPAN_RE.findall(first_cell):
            for name in expand_braces(span.strip()):
                yield subsystem, name


def check_stale_rows(repo_root):
    """Directory-map rows naming files that do not exist under src/."""
    arch = Path(repo_root) / "docs" / "architecture.md"
    if not arch.is_file():
        raise DocsLayoutError("docs/architecture.md does not exist")
    problems = []
    for subsystem, name in map_rows(arch.read_text(encoding="utf-8")):
        rel = f"src/{subsystem}/{name}"
        if not (Path(repo_root) / rel).is_file():
            problems.append(
                f"docs/architecture.md: directory map names {rel}, "
                "which does not exist")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repo-root",
        default=str(Path(__file__).resolve().parent.parent),
        help="repository root (default: this script's parent's parent)")
    args = parser.parse_args(argv)

    try:
        problems = (check_links(args.repo_root) + check_drift(args.repo_root)
                    + check_stale_rows(args.repo_root))
    except (DocsLayoutError, OSError) as err:
        print(f"docs_check: {err}", file=sys.stderr)
        return 2

    for p in problems:
        print(p, file=sys.stderr)
    if problems:
        print(f"docs_check: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    checked = len(markdown_files(args.repo_root))
    covered = len(source_files(args.repo_root))
    print(f"docs_check: {checked} markdown file(s) link-clean, "
          f"{covered} source file(s) covered by docs/architecture.md")
    return 0


if __name__ == "__main__":
    sys.exit(main())
