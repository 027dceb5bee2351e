"""Count the calls each ``src/ringkt`` function takes in one pass of every
perfbench workload.

One seeded pass of ``engine``, ``lattice`` and ``fields`` runs in this
process, through the workloads' own ``make_pass``, ``prepare``, ``run`` and
``check`` (``perfbench/workloads.py``, imported read-only).  ``cli`` runs
each verb through click's ``CliRunner``, on the argv that ``Cli.materialize``
writes into a temporary directory, so its counts are those of a warm process.
A ``sys.setprofile`` hook counts the calls made while an operation is
prepared and run (not while it is checked) to every function of the package:
module functions, class members (properties, class and static methods, the
methods ``dataclass`` generates, click callbacks) and the named functions
nested in them.  A generator counts once per resume.

The table gives the calls per workload of every function some workload
reaches, then the functions none reaches: first those written in the
package, then the methods ``dataclass`` generates, whose code comes from no
file of the package, so no edit to it can delete them.  Run from the
repository root::

    python tools/traffic.py [--seed N]
"""

import argparse
import collections
import functools
import importlib
import inspect
import pkgutil
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def inventory(package):
    """``{code object: "module.qualname"}`` for every function of ``package``
    and its modules (module names without the package prefix)."""
    names = {}

    def add(short, fn):
        code = getattr(inspect.unwrap(fn), "__code__", None)
        if code is None or code in names:
            return
        names[code] = f"{short}.{fn.__qualname__}"  # the wrapper's name: the one callers use
        stack = [code]
        while stack:  # nested functions; comprehensions and lambdas stay unnamed
            for const in stack.pop().co_consts:
                if isinstance(const, types.CodeType):
                    if not const.co_name.startswith("<"):
                        names.setdefault(const, f"{short}.{const.co_qualname}")
                    stack.append(const)

    def members(short, owner, module):
        for value in vars(owner).values():
            if isinstance(value, (staticmethod, classmethod)):
                value = value.__func__
            if isinstance(value, property):
                add(short, value.fget)
            elif isinstance(value, functools.cached_property):
                add(short, value.func)
            elif isinstance(value, type):
                if value.__module__ == module:
                    members(short, value, module)
            elif isinstance(getattr(value, "callback", None), types.FunctionType):
                add(short, value.callback)  # a click command
            elif callable(value) and getattr(value, "__module__", None) == module:
                add(short, value)

    modules = [package] + [importlib.import_module(f"{package.__name__}.{info.name}")
                           for info in pkgutil.iter_modules(package.__path__)]
    for mod in modules:
        members(mod.__name__.removeprefix(package.__name__ + "."), mod, mod.__name__)
    return names


def generated(names, package):
    """The names in ``names`` whose code objects come from no file of
    ``package``: the methods ``dataclass`` generates."""
    root = Path(package.__file__).resolve().parent
    return {name for code, name in names.items()
            if Path(code.co_filename).resolve().parent != root}


def count_calls(fn, names):
    """``(fn(), calls)``: the value of ``fn()`` and a ``Counter`` of the
    calls it made to each code object in ``names``, by its name."""
    calls = collections.Counter()

    def hook(frame, event, arg):
        if event == "call":
            name = names.get(frame.f_code)
            if name is not None:
                calls[name] += 1

    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls


def workload_traffic(name, seed, ringkt, names):
    """The calls of one seeded pass of workload ``name``, each answer checked."""
    from workloads import WORKLOADS, make_passes

    ops = make_passes(name, seed, 1)[0]  # the first pass of a benchmark run on ``seed``
    total = collections.Counter()
    if name == "cli":
        from click.testing import CliRunner

        runner, cli = CliRunner(), WORKLOADS["cli"]
        with tempfile.TemporaryDirectory() as tmp:
            for op in cli.materialize(ops, Path(tmp), 0):
                result, calls = count_calls(
                    lambda: runner.invoke(ringkt.cli.main, op.args), names)
                cli.check(op, (result.exit_code, result.stdout_bytes))
                total += calls
        return total
    wl = WORKLOADS[name](ringkt)
    for op in ops:
        result, calls = count_calls(lambda: wl.run(op, wl.prepare(op)), names)
        wl.check(op, result)
        total += calls
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="the workloads' seed (default 1)")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # leave no cache files under perfbench/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import ringkt
    import ringkt.cli
    from workloads import WORKLOADS

    names = inventory(ringkt)
    traffic = {name: workload_traffic(name, args.seed, ringkt, names) for name in WORKLOADS}
    reached = sorted(set().union(*traffic.values()))
    width = max(map(len, names.values()))
    print(f"{'function':<{width}}" + "".join(f"{name:>9}" for name in traffic))
    for fn in reached:
        print(f"{fn:<{width}}" + "".join(f"{calls[fn]:>9}" for calls in traffic.values()))
    unreached = set(names.values()) - set(reached)
    made = generated(names, ringkt)
    print(f"\nreached by no workload (seed {args.seed}):")
    for fn in sorted(unreached - made):
        print(f"  {fn}")
    print(f"\nreached by no workload, generated by dataclass (seed {args.seed}):")
    for fn in sorted(unreached & made):
        print(f"  {fn}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
