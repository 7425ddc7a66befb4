"""Run one `becsteer` CLI command in this process and record what the benchmark needs.

    python3 perfbench/probe.py --mode {plain,trace,setup} --record out.json -- <becsteer args>

The command runs through `becsteer.cli.main`, imported from the checkout's
`src/`.  Every mode notes when `config.load_config` and
`sequence.prepare_initial` first return (the end of set-up).  `trace` also
wraps the public functions of the traced modules (see tracing.py); `setup`
stops the command as soon as set-up has finished.  The record is written
once, after the command has ended.
"""

import argparse
import json
import os
import resource
import sys

from tracing import Tracer, clock, rebind

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class SetupDone(BaseException):
    """Raised after set-up in `setup` mode; a BaseException so that the
    CLI's `except Exception` fault handlers let it through."""


def mark_return(module, name, marks, stop=False):
    """Rebind module.name (and its aliases in other becsteer modules) so the
    first return time is stored in marks[name]."""
    orig = getattr(module, name)

    def marked(*args, **kwargs):
        out = orig(*args, **kwargs)
        marks.setdefault(name, clock())
        if stop:
            raise SetupDone
        return out
    rebind("becsteer", {id(orig): marked})


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("plain", "trace", "setup"), required=True)
    ap.add_argument("--record", required=True)
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import becsteer.cli
    from becsteer import config, sequence
    if not os.path.abspath(becsteer.cli.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"probe: becsteer imported from {becsteer.cli.__file__}, "
                         f"not from {ROOT}/src")

    tracer = Tracer()
    if args.mode == "trace":
        tracer.instrument()
    marks = {}
    mark_return(config, "load_config", marks)
    mark_return(sequence, "prepare_initial", marks, stop=args.mode == "setup")

    try:
        code = becsteer.cli.main(argv)
    except SetupDone:
        code = 0
    record = {
        "exit": code,
        "marks": marks,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans,
    }
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
