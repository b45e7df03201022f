#!/usr/bin/env python
"""Regenerate the event/metric catalog tables in docs/observability.md.

The tables are derived from the schema registry
(:mod:`repro.obs.schema`), the single source of truth that
``Tracer(validate=True)`` and ``validate_metric`` enforce on code at
run time.  This script closes the docs side of the loop: it splices
``event_catalog_markdown()`` / ``metric_catalog_markdown()`` between
BEGIN/END marker comments in the docs file, so a newly declared event
type or metric family cannot ship undocumented.

Usage::

    PYTHONPATH=src python scripts/gen_event_catalog.py          # rewrite
    PYTHONPATH=src python scripts/gen_event_catalog.py --check  # CI gate

``--check`` exits non-zero (without writing) when the committed docs
differ from what the registry generates.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"),
)

from repro.obs.schema import (  # noqa: E402
    event_catalog_markdown,
    metric_catalog_markdown,
)

DOCS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "docs",
    "observability.md",
)

#: (marker name, generator) — each splices between
#: ``<!-- BEGIN GENERATED <name> -->`` / ``<!-- END GENERATED <name> -->``.
REGIONS = (
    ("EVENT CATALOG", event_catalog_markdown),
    ("METRIC CATALOG", metric_catalog_markdown),
)


def splice(text: str) -> str:
    for name, generator in REGIONS:
        begin = f"<!-- BEGIN GENERATED {name} -->"
        end = f"<!-- END GENERATED {name} -->"
        if begin not in text or end not in text:
            raise SystemExit(
                f"{DOCS_PATH}: missing {begin!r} / {end!r} markers"
            )
        pattern = re.compile(
            re.escape(begin) + r".*?" + re.escape(end), re.DOTALL
        )
        replacement = f"{begin}\n{generator()}\n{end}"
        text = pattern.sub(lambda _m: replacement, text, count=1)
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 if the committed docs differ from the registry "
             "(writes nothing)",
    )
    args = parser.parse_args(argv)
    with open(DOCS_PATH) as handle:
        current = handle.read()
    generated = splice(current)
    if args.check:
        if generated != current:
            print(
                f"{DOCS_PATH}: catalog tables are stale — run "
                "`PYTHONPATH=src python scripts/gen_event_catalog.py`",
                file=sys.stderr,
            )
            return 1
        print(f"{DOCS_PATH}: catalog tables match the schema registry")
        return 0
    if generated == current:
        print(f"{DOCS_PATH}: already up to date")
        return 0
    with open(DOCS_PATH, "w") as handle:
        handle.write(generated)
    print(f"{DOCS_PATH}: catalog tables regenerated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
