"""Closed-loop benchmark of ringkt: one client, one operation at a time.

Run from the root of a checkout (``src/ringkt`` is imported from there):

    python3 perfbench/run.py --workload engine --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``engine``, ``lattice``, ``fields`` run
in this process; ``cli`` runs one fresh ``ringkt.cli`` child process at a
time (``cli_child.py plain``, which runs it as ``python -m ringkt.cli``
does).  The timed loop runs ``round(seconds / NOMINAL_PASS_S)`` passes of
operations whose kinds and sizes are fixed; the seed draws their values
(fresh ones for every pass) and their order, so every run does the same
work and takes about ``--seconds`` on the reference machine.  Every result
is checked against a known answer; a raise, a wrong answer or a missed
deadline counts as a failed operation.

Times are reference-speed times (see ``refclock.py``): wall time scaled by
how fast a fixed calibration kernel runs around and inside each timed
region, so that the shared machine's changes of speed cancel out.  The line
before the result also gives the wall-clock throughput.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one pass in
which every operation runs untraced and then with span wrappers installed,
and prints the per-layer metrics.  The last line of stdout is the JSON
result.
"""

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import refclock
import spans
from workloads import WORKLOADS, Mismatch, make_passes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Seconds one pass takes on the reference machine (2 cores, Python 3.11.7,
# sympy 1.14 with pure-Python ground types), in reference-speed time, rounded
# so that at 25 s op_tail_ms falls inside a group of samples of one heavy
# operation, not on the edge of a group: engine makes 9 passes (the tail is
# the second of nine k_of_B0(6) samples), lattice 8 (the third of sixteen
# 40 x 40 Smith forms), fields 6 (the fifth of six roots_of_unity_order of
# the seventh cyclotomic field) and cli 3.
NOMINAL_PASS_S = {"engine": 2.8, "lattice": 3.2, "fields": 4.2, "cli": 8.5}
OP_DEADLINE_S = 30.0
LOOP_CAP_S = 120.0
SETUP_PROBES = 3
CLI_PROBE_REPS = 5
PROBE_VERBS = [["colim", "--system", "rank-one"],
               ["field-info", "--field", "x^2 - 2"],
               ["snf", "--matrix", "[[2,4],[6,8]]"]]


def load_ringkt():
    """Import ringkt from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import ringkt
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import ringkt from {SRC}: {exc}")
    if Path(ringkt.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: ringkt was imported from {ringkt.__file__}, not {SRC}")
    return ringkt


def child_env():
    env = dict(os.environ)
    env.pop("RKT_VERIFY_DEPTH", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def pass_count(name, seconds, trace):
    return 1 if trace else max(1, round(seconds / NOMINAL_PASS_S[name]))


def setup(name, seed, passes, workdir):
    """Everything before the timed loop: the first sympy import (which ringkt
    otherwise does lazily on first use) and the seeded inputs of every pass."""
    import sympy  # noqa: F401

    pass_ops = make_passes(name, seed, passes)
    if name == "cli":
        pass_ops = [WORKLOADS[name].materialize(ops, workdir, k) for k, ops in enumerate(pass_ops)]
    return pass_ops


def child_reference_s(wall_s, report):
    """Reference seconds of a child that armed a ``refclock.Sampler`` and
    reported its samples and the time the sampler took."""
    return refclock.reference_seconds(wall_s - report["overhead_s"], report["samples"])


def measure_setup(name, seed, seconds):
    """Median reference time of fresh processes that set up and exit."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                              "--seed", str(seed), "--seconds", str(seconds), "--setup-probe"],
                             cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, check=True).stdout
        times.append(child_reference_s(time.perf_counter() - start, json.loads(out)))
    return statistics.median(times), times


# ---------------------------------------------------------------------------
# one operation
# ---------------------------------------------------------------------------


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def run_in_process(wl, op, sampler):
    """(reference seconds, wall seconds, error or None) of one timed call,
    checked after timing.  The wall time is net of the sampler's own time."""
    from sympy.core.cache import clear_cache

    # Each operation sees sympy's global cache cold, as a fresh request
    # would: repeats of a pass never turn into cache hits.
    clear_cache()
    state = wl.prepare(op)
    sampler.arm()
    signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
    start = time.perf_counter()
    try:
        result = wl.run(op, state)
        error = None
    except DeadlineExceeded:
        error = f"missed the {OP_DEADLINE_S:g} s deadline"
    except Exception as exc:  # any raise is a failed operation, with its reason
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        samples, spent = sampler.disarm()
    if error is None:
        try:
            wl.check(op, result)
        except Mismatch as exc:
            error = f"wrong answer: {exc}"
    wall = elapsed - spent
    return refclock.reference_seconds(wall, samples), wall, error


def run_child(cmd, workdir):
    """(seconds, exit code, stdout bytes, peak RSS in KiB) of one child."""
    with open(workdir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(OP_DEADLINE_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, out, usage.ru_maxrss


class CliRunner:
    """Runs the cli workload's operations as child processes."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.first_stdout = {}
        self.peak_rss_kib = 0
        self.child_stats = {}

    def run(self, op, traced=False):
        """(reference seconds, wall seconds, error or None) of one child.

        The child samples the ``refclock`` kernel itself; its wall time is
        net of the sampler's own time.  A verb invoked again with the same
        arguments (an unseeded one, in every pass) must print the same
        bytes."""
        argv = op.args
        report_path = self.workdir / "child.json"
        report_path.unlink(missing_ok=True)
        mode = "trace" if traced else "plain"
        cmd = [sys.executable, str(HERE / "cli_child.py"), mode, str(report_path), *argv]
        elapsed, code, out, rss = run_child(cmd, self.workdir)
        self.peak_rss_kib = max(self.peak_rss_kib, rss)
        if not report_path.exists():
            return elapsed, elapsed, f"exited with {code} before it wrote its report"
        report = json.loads(report_path.read_text())
        if traced:
            spans.merge(self.child_stats, report.get("stats", {}))
        ref, wall = child_reference_s(elapsed, report), elapsed - report["overhead_s"]
        if elapsed > OP_DEADLINE_S:
            return ref, wall, f"missed the {OP_DEADLINE_S:g} s deadline"
        try:
            WORKLOADS["cli"].check(op, (code, out))
        except (Mismatch, ValueError, KeyError) as exc:
            tail = (self.workdir / "stderr.txt").read_text(errors="replace")[-300:]
            return ref, wall, f"wrong answer: {exc!r} {tail}"
        if self.first_stdout.setdefault(tuple(argv), out) != out:
            return ref, wall, "stdout differs from an earlier invocation"
        return ref, wall, None


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def run_pass(wl, ops, order, cli, sampler, deadline):
    """Reference latencies, wall latencies and errors of one pass over
    ``ops`` in ``order``.

    Operations not started because the loop passed ``deadline`` count as
    failed and have no latency.
    """
    latencies, walls, errors = [], [], []
    for i in order:
        if time.perf_counter() > deadline:
            errors.append(f"{ops[i].kind}: not started, the loop passed its {LOOP_CAP_S:g} s cap")
            continue
        if cli is not None:
            ref, wall, error = cli.run(ops[i])
        else:
            ref, wall, error = run_in_process(wl, ops[i], sampler)
        latencies.append(ref)
        walls.append(wall)
        if error:
            errors.append(f"{ops[i].kind}: {error}")
    return latencies, walls, errors


def tail(latencies):
    """(value, percentile) at the highest percentile with 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def timed_run(name, seed, seconds, wl, pass_ops, cli):
    sampler = refclock.Sampler() if cli is None else None
    latencies, walls, errors, pass_medians = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    for k, ops in enumerate(pass_ops):
        if k and time.perf_counter() - start > 1.3 * seconds:
            break  # a much slower machine: keep the run within its time budget
        order = list(range(len(ops)))
        random.Random(f"{name}:{seed}:pass{k}").shuffle(order)
        lat, wall, err = run_pass(wl, ops, order, cli, sampler, deadline=start + LOOP_CAP_S)
        attempted += len(order)
        latencies += lat
        walls += wall
        errors += err
        if lat:
            pass_medians.append(statistics.median(lat))
    elapsed = time.perf_counter() - start
    failed = len(errors)
    tail_s, tail_pct = tail(latencies)
    if cli is not None:
        rss_kib = cli.peak_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_s, setup_samples = measure_setup(name, seed, seconds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": ((attempted - failed) / sum(latencies), "1/s"),
        # A single order statistic of the whole run can sit in the gap
        # between two operation kinds; the mean of the per-pass medians
        # moves smoothly.
        "op_p50_ms": (1000 * statistics.mean(pass_medians), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
    }
    info = {"workload": name, "seed": seed, "passes": attempted // len(ops), "ops_per_pass": len(ops),
            "samples": len(latencies), "op_tail_percentile": round(tail_pct, 2),
            "loop_s": round(elapsed, 3), "setup_samples_s": [round(t, 4) for t in setup_samples],
            # Wall-clock figures, for comparison with the reference-time metrics.
            "wall_ops_per_s": round((attempted - failed) / sum(walls), 3),
            "machine_speed": round(sum(walls) / sum(latencies), 3)}
    return attempted, errors, metrics, info


def _median_wall(cmd, reps):
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def in_process_verb_s(argv):
    """Time of the same verb called in this (warm) process."""
    import ringkt.cli
    from sympy.core.cache import clear_cache

    clear_cache()
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        try:
            ringkt.cli.main.main(args=argv, prog_name="ringkt", standalone_mode=False)
        except SystemExit:
            pass
    return time.perf_counter() - start


def cli_layer(verbs, workdir):
    """Interpreter start, imports and per-verb overhead of a fresh process."""
    py = sys.executable
    interp = _median_wall([py, "-c", "pass"], CLI_PROBE_REPS)
    with_cli = _median_wall([py, "-c", "import ringkt.cli"], CLI_PROBE_REPS)
    with_sympy = _median_wall([py, "-c", "import ringkt.cli, sympy"], CLI_PROBE_REPS)
    overheads = []
    for argv in verbs:
        wall = run_child([py, "-m", "ringkt.cli", *argv], workdir)[0]
        overheads.append(wall - in_process_verb_s(argv))
    return {
        "cli.interpreter_ms": (1000 * interp, "ms"),
        "cli.import_ms": (1000 * (with_cli - interp), "ms"),
        "cli.sympy_import_ms": (1000 * (with_sympy - with_cli), "ms"),
        "cli.verb_overhead_ms": (1000 * statistics.median(overheads), "ms"),
    }


def traced_run(name, seed, wl, ops, cli, workdir):
    """One pass where each operation runs untraced and traced, back to back,
    so that drift in machine speed cancels out of the tracing overhead.  Which
    of the two runs first alternates, so that warming up does not count as
    tracing cost."""
    order = list(range(len(ops)))
    random.Random(f"{name}:{seed}:pass0").shuffle(order)
    sampler = refclock.Sampler() if cli is None else None
    tracer = spans.Tracer(clock=sampler.net_clock) if sampler else None
    plain, traced, errors = [], [], []
    for n, i in enumerate(order):
        for on in ((False, True) if n % 2 == 0 else (True, False)):
            if cli is not None:
                elapsed, _, error = cli.run(ops[i], traced=on)
            elif on:
                uninstall = spans.install(tracer)
                try:
                    elapsed, _, error = run_in_process(wl, ops[i], sampler)
                finally:
                    uninstall()
            else:
                elapsed, _, error = run_in_process(wl, ops[i], sampler)
            (traced if on else plain).append(elapsed)
            if error:
                errors.append(f"{ops[i].kind}: {error}")
    metrics = spans.layer_metrics(cli.child_stats if cli is not None else tracer.stats)
    metrics.update(cli_layer([op.args for op in ops] if cli is not None else PROBE_VERBS, workdir))
    metrics["tracing_overhead_frac"] = (1 - sum(plain) / sum(traced), "frac")
    info = {"workload": name, "seed": seed, "ops_per_pass": len(ops),
            "untraced_s": round(sum(plain), 4), "traced_s": round(sum(traced), 4)}
    return len(plain) + len(traced), errors, metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, then exit (times one set-up for setup_s)")
    args = parser.parse_args(argv)
    if args.setup_probe:
        sampler = refclock.Sampler()
        sampler.arm()
    os.environ.pop("RKT_VERIFY_DEPTH", None)
    ringkt = load_ringkt()
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        pass_ops = setup(args.workload, args.seed,
                         pass_count(args.workload, args.seconds, args.trace), workdir)
        if args.setup_probe:
            print(json.dumps(sampler.finish()))
            return 0
        if args.workload == "cli":
            wl, cli = None, CliRunner(workdir)
        else:
            wl, cli = WORKLOADS[args.workload](ringkt), None
        if args.trace:
            attempted, errors, metrics, info = traced_run(
                args.workload, args.seed, wl, pass_ops[0], cli, workdir)
        else:
            attempted, errors, metrics, info = timed_run(
                args.workload, args.seed, args.seconds, wl, pass_ops, cli)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    for error in errors[:10]:
        print(f"FAILED {error}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
