"""CLI child: ``python3 perfbench/cli_child.py MODE OUT_JSON VERB ARGS...``.

``plain`` runs ``ringkt.cli`` as ``__main__``, the way ``python -m
ringkt.cli`` does.  ``trace`` installs the same span wrappers as the
in-process traced run, then calls ``ringkt.cli.main`` with the verb's
arguments.

Both arm the ``refclock`` sampler first.  ``OUT_JSON`` gets the kernel
samples and the seconds the sampler itself took, which the parent takes out
of the child's wall time, and in ``trace`` mode the span aggregates.  It is
written on exit, whatever the exit code.
"""

import json
import runpy
import sys
from pathlib import Path

import refclock


def plain(argv, sampler, report):
    sys.argv = ["ringkt", *argv]
    runpy.run_module("ringkt.cli", run_name="__main__", alter_sys=True)


def trace(argv, sampler, report):
    import spans

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import ringkt.cli

    tracer = spans.Tracer(clock=sampler.net_clock)
    report["stats"] = tracer.stats
    spans.install(tracer)
    ringkt.cli.main.main(args=argv, prog_name="ringkt")


def main():
    mode, out, *argv = sys.argv[1:]
    sampler = refclock.Sampler()
    sampler.arm()
    report = {}
    try:
        {"plain": plain, "trace": trace}[mode](argv, sampler, report)
    finally:
        report.update(sampler.finish())
        Path(out).write_text(json.dumps(report))


if __name__ == "__main__":
    main()
