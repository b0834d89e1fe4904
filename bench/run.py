"""Run one workload of the sdelab benchmark and print its metrics.

    python3 bench/run.py --workload continuous-mixing --seed 1 --seconds 40 --trace 0

Run from anywhere; the program is imported from ``src/`` of the checkout
that holds this file.  The run sets up the workload's inputs from the seed,
then repeats whole rounds of its operations until ``--seconds`` is used up,
checks the first round's outputs (and that every later round wrote the same
bytes), and prints one JSON object as the last line of standard output:

* ``--trace 0``: the end-to-end metrics ``setup_s`` (process start to
  ready: interpreter, ``import sdelab`` and the workload's inputs),
  ``wall_s`` (the mean round, ready to last artifact written: the timed
  seconds over the number of rounds) and
  ``peak_rss_mib`` (the process's peak resident memory at the end of the
  timed rounds);
* ``--trace 1``: the per-layer metrics, from spans around calls into
  sdelab's public functions, averaged over the traced rounds.  After an
  untraced warm-up round, traced and untraced rounds alternate;
  ``trace.overhead_s`` is the difference of their median round times.

Exit status 0 means the run finished and printed its result; ``correct``
says whether every check passed.  Spans of the last traced round are
written to ``bench/out/trace-<workload>-seed<seed>.csv``.
"""

import os
import time

_START = time.perf_counter()


def _since_process_start() -> float:
    """Seconds the process ran before ``_START`` (0 where /proc is missing)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - started
                   - (time.perf_counter() - _START))
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


_BEFORE_START = _since_process_start()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("continuous-mixing", "per-path-ensembles", "pathspace-verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def _rounds(work, budget, tracer=None):
    """Run whole rounds until the next one would overrun ``budget`` seconds.

    Without a tracer every round is untraced.  With one, round 0 is an
    untraced warm-up, then traced and untraced rounds alternate, at least
    one of each.  Returns a list of (seconds, traced, outputs) and the
    per-round layer metrics and spans of the traced rounds.
    """
    import spans

    rounds, layers, recorded = [], [], []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            out = work.run_round(len(rounds))
            seconds = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            recorded, counts = tracer.take()
            layers.append(spans.layer_metrics(recorded, counts))
        rounds.append((seconds, traced, out))
        enough = tracer is None or len(rounds) >= 3
        if enough and time.perf_counter() - begin + seconds > budget:
            return rounds, layers, recorded


def _write_spans(path, recorded):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,name,start_ns,end_ns,parent,thread\n")
        for row in sorted(recorded):
            fh.write(",".join(str(x) for x in row) + "\n")


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "sdelab", "__init__.py")):
        print(f"bench: no sdelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t_import = time.perf_counter()
    import sdelab
    import sdelab.cli  # noqa: F401
    import_s = time.perf_counter() - t_import
    if not os.path.abspath(sdelab.__file__).startswith(SRC + os.sep):
        print(f"bench: sdelab imported from {sdelab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import checks
    import spans
    from workloads import WORKLOADS, fingerprint

    out_root = os.path.join(BENCH, "out")
    workdir = os.path.join(out_root, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(workdir)
    try:
        work = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = _BEFORE_START + time.perf_counter() - _START

        tracer = spans.Tracer() if args.trace else None
        rounds, layers, recorded = _rounds(work, args.seconds, tracer)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outputs = [out for _, _, out in rounds]

        verifier = checks.Verifier()
        work.verify(outputs[0], verifier)
        work.verify_routes(verifier)
        first = fingerprint(outputs[0])
        for r, out in enumerate(outputs[1:], start=1):
            if fingerprint(out) != first:
                verifier.failures.append(f"round {r} outputs differ from round 0")
        for msg in verifier.failures:
            print(f"bench: check failed: {msg}", file=sys.stderr)

        if args.trace:
            metrics = {name: statistics.fmean(m[name] for m in layers)
                       for name in layers[0]}
            metrics["cli.import_s"] = import_s
            metrics["trace.overhead_s"] = (
                statistics.median(t for t, traced, _ in rounds if traced)
                - statistics.median(t for t, traced, _ in rounds[1:] if not traced))
            units = {name: unit for name, unit, _ in spans.PER_LAYER}
            _write_spans(os.path.join(out_root, f"trace-{args.workload}-seed{args.seed}.csv"),
                         recorded)
        else:
            # the mean, not the median: round times on a shared host switch
            # between a fast and a slow speed for seconds at a time, and the
            # median of a run flips with whichever speed held most of it
            metrics = {"setup_s": setup_s,
                       "wall_s": statistics.fmean(t for t, _, _ in rounds),
                       "peak_rss_mib": peak_rss_mib}
            units = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}
        result = {
            "correct": verifier.ok,
            "attempted": work.attempted,
            "failed": work.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
