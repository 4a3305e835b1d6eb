#!/usr/bin/env python3
"""One SHA-256 per call of a fixed list of shellsde CLI calls.

Each call runs in process through ``shellsde.cli.main``, on the ``src`` of
the checkout that holds this script, in a fresh temporary directory.  Its
digest covers the exit code, the standard output (where every call here
writes its result), the standard error (its warnings) and each file that a
call names after a flag of ``FILE_FLAGS`` (a relative name, so that it is
the same text in every checkout's config).  To compare two checkouts, run
this script in each:

    python3 scripts/output_digest.py                  # one digest per call
    python3 scripts/output_digest.py --save DIR       # and keep each output in DIR
    python3 scripts/output_digest.py --against DIR    # and compare with a saved run

With ``--against``, a call whose output differs from the saved one names
each field that changed (a CSV column or a JSON key) and, for numbers, the
largest relative change of one value, and the largest change over the
field's largest magnitude.
"""
import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from shellsde.cli import main

PRESETS = ("novikov", "goy", "sabra")
FILE_FLAGS = ("--curves-out",)
CALLS = (
    [(f"triangulate-seed{seed}", ["triangulate", "--model", "novikov", "--paths", "900", "--seed", str(seed)])
     for seed in (1, 2, 102)]
    + [(f"chain-{model}", ["chain", "--model", model]) for model in ("novikov", "goy")]
    + [("simulate-goy-split", ["simulate", "--model", "goy", "--scheme", "split"])]
    # Girsanov-weighted ensembles: the ledger's cells join the slab, and GOY's shift its second channel row
    + [(f"simulate-{model}-{weights}-split",
        ["simulate", "--model", model, "--weights", weights, "--scheme", "split", "--paths", "300", "--horizon", "0.2"])
       for model, weights in (("novikov", "QtoP"), ("goy", "PtoQ"))]
    # the step kernel's other branches: the nonlinear system under each scheme, and a linear conservative run
    + [(f"simulate-goy-nonlinear-{scheme}",
        ["simulate", "--model", "goy", "--system", "nonlinear", "--scheme", scheme, "--paths", "300",
         "--horizon", "0.05", *extra])
       for scheme, extra in (("split", []), ("em", ["--shells", "6"]), ("conservative", ["--shells", "6"]))]
    # the fused kernel on the third preset, and a weighted nonlinear run, whose ledger reads the raw slab
    + [("simulate-sabra-nonlinear-split",
        ["simulate", "--model", "sabra", "--system", "nonlinear", "--scheme", "split", "--paths", "300",
         "--horizon", "0.05"]),
       ("simulate-goy-nonlinear-PtoQ-split",
        ["simulate", "--model", "goy", "--system", "nonlinear", "--weights", "PtoQ", "--scheme", "split",
         "--paths", "300", "--horizon", "0.05"])]
    + [("simulate-novikov-conservative",
        ["simulate", "--model", "novikov", "--scheme", "conservative", "--shells", "6", "--paths", "300",
         "--horizon", "0.2"])]
    # either side of the block size (half numpy's buffer size) up to which a step stores its per-shell factors
    # at full size over the paths
    + [(f"simulate-novikov-{scheme}-{paths}",
        ["simulate", "--model", "novikov", "--scheme", scheme, "--shells", "6", "--paths", str(paths),
         "--horizon", "0.02"])
       for scheme in ("em", "split") for paths in (4096, 4097)]
    + [("simulate-novikov-defaults", ["simulate", "--model", "novikov"])]
    # two blocks at the default block size, 8,192 paths and 1: a weighted linear run and a nonlinear one,
    # whose step loop writes every array the ensemble aligns
    + [("simulate-novikov-QtoP-8193",
        ["simulate", "--model", "novikov", "--weights", "QtoP", "--scheme", "split", "--shells", "6",
         "--paths", "8193", "--horizon", "0.02"]),
       ("simulate-goy-nonlinear-8193",
        ["simulate", "--model", "goy", "--system", "nonlinear", "--scheme", "split", "--shells", "6",
         "--paths", "8193", "--horizon", "0.02"])]
    + [("dissipation-novikov-reweighted", ["dissipation", "--model", "novikov", "--paths", "200"])]
    + [(f"dissipation-{model}", ["dissipation", "--model", model, "--paths", "0"]) for model in PRESETS]
    # the shape of the dissipation benchmark, past the 25 rows where eigh changes method
    + [("dissipation-novikov-to60", ["dissipation", "--model", "novikov", "--shells-list", "10,20,30,40,60", "--paths", "0"])]
    + [(f"constants-{model}", ["constants", "--model", model]) for model in PRESETS]
    # the decay constants' bordered inverse: a 1 x 1 leading block, a probe at shell 69, and
    # tail_rel_change 4.4e-4 near TAIL_TOL
    + [("constants-novikov-1", ["constants", "--model", "novikov", "--shells", "1"]),
       ("constants-goy-64", ["constants", "--model", "goy", "--shells", "64"]),
       ("constants-novikov-lambda1.1-59", ["constants", "--model", "novikov:lambda=1.1", "--shells", "59"])]
    # the dissipation benchmark's GOY call
    + [("dissipation-goy-bench", ["dissipation", "--model", "goy:a=1,b=-1.5,c=0.5,lambda=2.2,sigma_tilde=1",
                                  "--shells-list", "10,20,30,40,60", "--paths", "0"])]
    + [("moments-novikov", ["moments", "--model", "novikov"])]
    # as many grid times as shells, so that only the column order tells the two axes apart
    + [("moments-novikov-square", ["moments", "--model", "novikov", "--shells", "5", "--points", "5"])]
    + [("dissipation-novikov-curves",
        ["dissipation", "--model", "novikov", "--paths", "0", "--curves-out", "mass.csv"])]
)


def run(argv: list[str]) -> str:
    """Exit code (or exception), standard output, standard error and named files of one call, as one text."""
    out, err = io.StringIO(), io.StringIO()
    files = [argv[i + 1] for i, flag in enumerate(argv[:-1]) if flag in FILE_FLAGS]
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    status = str(main(argv))
                except Exception as exc:  # an escaped exception is an output too
                    status = f"{type(exc).__name__}: {exc}"
            texts = [Path(name).read_text(encoding="utf-8") if Path(name).exists() else "(missing)\n" for name in files]
        finally:
            os.chdir(home)
    text = f"exit: {status}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    return text + "".join(f"--- file {name}\n{body}" for name, body in zip(files, texts))


def _flatten(path: str, doc, found: dict) -> None:
    if isinstance(doc, dict):
        for key, value in doc.items():
            _flatten(f"{path}.{key}" if path else key, value, found)
    elif isinstance(doc, list):
        for value in doc:
            _flatten(path, value, found)
    else:
        found.setdefault(path, []).append(doc)


def _table(text: str, prefix: str, found: dict) -> None:
    """The fields of one CSV, JSON or plain text, each name after ``prefix``; text outside a table is ``stdout``."""
    lines = text.splitlines()
    rest = prefix + "text" if prefix else "stdout"
    if lines and lines[0].startswith("# config: "):
        _flatten(prefix + "config", json.loads(lines[0][len("# config: "):]), found)
        header = lines[1].split(",")
        for line in lines[2:]:
            cells = line.split(",")
            if len(cells) != len(header):  # a summary line after the table
                found.setdefault(rest, []).append(line)
                continue
            for name, cell in zip(header, cells):
                found.setdefault(prefix + name, []).append(float(cell) if cell else None)
    elif text.startswith("{"):
        _flatten(prefix.rstrip("."), json.loads(text), found)
    else:
        found[rest] = [text]


def fields(text: str) -> dict:
    """The values of one output by field: a CSV column, a JSON key path, or a whole text; a file's after its name."""
    status, rest = text.split("\n--- stdout\n", 1)
    out, rest = rest.split("--- stderr\n", 1)
    err, *files = rest.split("--- file ")
    found = {"exit": [status], "stderr": [err]}
    _table(out, "", found)
    for section in files:
        name, body = section.split("\n", 1)
        _table(body, name + ".", found)
    return found


def changes(old: str, new: str) -> str:
    """Each field whose values differ, with the largest relative change among its numbers."""
    a, b = fields(old), fields(new)
    report = []
    for name in sorted(a.keys() | b.keys()):
        x, y = a.get(name), b.get(name)
        if x == y:
            continue
        numeric = x and y and len(x) == len(y) and all(type(v) is float and type(w) is float for v, w in zip(x, y))
        if not numeric:
            report.append((math.inf, f"{name} differs"))
            continue
        worst = max(abs(v - w) / max(abs(v), abs(w)) for v, w in zip(x, y) if v != w)
        spread = max(abs(v - w) for v, w in zip(x, y)) / max(abs(v) for v in x + y)
        report.append((worst, f"{name} {worst:.3g} ({spread:.2g} of its largest)"))
    if not report:
        return "same"
    return "changed: " + ", ".join(text for _, text in sorted(report, reverse=True))


def cli(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--save", default=None, help="directory to keep each call's output in")
    ap.add_argument("--against", default=None, help="directory of a saved run to compare with")
    args = ap.parse_args(argv)
    if args.save:
        os.makedirs(args.save, exist_ok=True)
    for label, call in CALLS:
        text = run(call)
        line = f"{hashlib.sha256(text.encode()).hexdigest()}  {label}"
        if args.save:
            with open(os.path.join(args.save, label + ".txt"), "w", encoding="utf-8") as fh:
                fh.write(text)
        if args.against:
            with open(os.path.join(args.against, label + ".txt"), encoding="utf-8") as fh:
                old = fh.read()
            line += "  " + changes(old, text)
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(cli())
