"""D3L benchmark: index build, batched discovery and serial search.

Run from the repository root::

    python3 perfbench/run.py --workload synthetic --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
pass with call-site spans, then a second pass with every layer traced, and
prints the per-layer metrics (see ``report.py``); its spans are written to
``.bench_work/spans-<workload>-<lake seed>.json``. Progress goes to stderr;
the last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``,
the line before it the environment stamp. The exit code is 0 only when
every answer passed its checks.

``--seed`` sets both the lake seed and the serial-target seed;
``--lake-seed``/``--target-seed`` set them one at a time. Without either,
the lake preset's seed (21 synthetic, 22 real) and target seed 5 are used,
which are the seeds ``reference.json`` holds answers for.
``--write-reference`` records the answers of such a run into it.

Spark runs ``local[n]`` (n = min(4, cores)) with the test fixture's session
settings. Everything the run writes goes under ``.bench_work/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
WORK = ROOT / ".bench_work"
SHUFFLE_PARTITIONS = 8
DRIVER_MEMORY = "2g"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lake-seed", type=int, default=None)
    p.add_argument("--target-seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    return p.parse_args(argv)


def _prepare_environment(cores: int) -> None:
    """Settings read when the JVM and Python workers start, so they are
    set before pyspark is imported."""
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    os.environ["PYSPARK_PYTHON"] = sys.executable
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark")
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory {DRIVER_MEMORY} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        # The tracer reads job counts per job group at the end of a run.
        "--conf spark.ui.retainedJobs=100000 "
        f"--driver-java-options '-Djava.io.tmpdir={tmp} -XX:-UsePerfData' pyspark-shell"
    )


def _start_spark():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and its Python workers) to exit."""
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        proc.wait(timeout=60)


def _git_commit() -> str | None:
    """HEAD's commit from ``.git`` if the checkout has one (no subprocess)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(spark, cores: int) -> dict:
    import pyspark

    sc = spark.sparkContext
    return {
        "nproc": os.cpu_count(),
        "cores": cores,
        "spark": spark.version,
        "pyspark": pyspark.__version__,
        "java": sc._jvm.System.getProperty("java.version"),
        "python": platform.python_version(),
        "master": sc.master,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "driver_memory": DRIVER_MEMORY,
        "git_commit": _git_commit(),
    }


def _log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "core" / "ranking.py").is_file():
        _log("src/repro not found: run from the root of a repository checkout")
        return 2
    cores = min(4, os.cpu_count() or 1)
    _prepare_environment(cores)

    import checks
    import workload as wl

    if args.workload not in wl.WORKLOADS:
        _log(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
        return 2
    spec = wl.WORKLOADS[args.workload]
    lake_seed = next(s for s in (args.lake_seed, args.seed, spec.default_seed) if s is not None)
    target_seed = next(s for s in (args.target_seed, args.seed, wl.DEFAULT_TARGET_SEED) if s is not None)

    reference = checks.load_reference()
    key = {"lake_seed": lake_seed, "target_seed": target_seed,
           "derivations": spec.derivations, "rows": spec.rows}
    ref = reference.get(args.workload, {})
    exact = not args.write_reference and all(ref.get(k) == v for k, v in key.items())
    _log(f"workload={args.workload} lake_seed={lake_seed} target_seed={target_seed} "
         f"checks={'reference answers' if exact else 'structure only'}")

    spark = _start_spark()
    try:
        runner = wl.Runner(spark, spec, lake_seed, target_seed, ref if exact else {})
        runner.load_lake()
        setup_s = time.perf_counter() - t_start
        if args.trace:
            metrics, outcomes = _traced(runner, spark, args.workload, lake_seed)
        else:
            a, _ = runner.run_pass("A", args.seconds, digests=exact or args.write_reference)
            metrics, outcomes = wl.end_to_end(a, setup_s), [a]
            _log(f"set-up {setup_s:.1f}s, build {a.build_s:.2f}s, batch {a.batch_s:.2f}s "
                 f"for {a.n_batch} targets, serial {' '.join(f'{s:.2f}' for s in a.serial_s)}s")
            if args.write_reference:
                reference[args.workload] = {**key, **a.as_reference()}
                checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
                _log(f"wrote the {args.workload} reference answers")
        env = _environment(spark, cores)
    finally:
        _stop_spark(spark)

    failed = sum(o.failed for o in outcomes)
    for e in [e for o in outcomes for e in o.errors][:20]:
        _log(f"check failed: {e}")
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def _traced(runner, spark, workload: str, lake_seed: int):
    """Pass A with call-site spans, pass B with every layer traced.

    Pass A is a timed run plus a warm-up query before its batch, so both
    batches run warm; pass B's build follows pass A's, so it runs warm too.
    Returns the per-layer metrics and both passes' outcomes. Pass B is
    checked against pass A's answers, so a traced answer that differs from
    the untraced one is a failed operation.
    """
    import report
    import workload as wl
    from tracer import Tracer, patched_layers

    tracer = runner.tracer = Tracer(spark.sparkContext)
    a, d3l = runner.run_pass("A", 0, digests=True, warm_up=True)
    extras = {f"lsh.bands.max_bucket.{n}": wl.max_bucket(getattr(d3l, f"index_{n}"))
              for n in report.INDEXES if hasattr(d3l, f"index_{n}")}
    extras["ranking.candidate_pairs.retained_mb"] = a.retained_bytes / wl.MB
    runner.release(d3l)
    runner.reference = a.as_reference()
    with patched_layers(tracer) as (state, absent):
        b, _ = runner.run_pass("B", 0, digests=True, serial=False, layer_state=state)
    if absent:
        _log(f"layers absent from the program: {', '.join(absent)}")
    overhead = extras["trace.overhead_s"] = b.batch_s - a.batch_s
    _log(f"tracing overhead {overhead:+.2f}s on the batch ({a.batch_s:.2f}s untraced); "
         f"traced build {b.build_s:.2f}s")
    (WORK / f"spans-{workload}-{lake_seed}.json").write_text(json.dumps(tracer.to_records(), indent=1))
    return report.per_layer(tracer, extras), [a, b]


if __name__ == "__main__":
    sys.exit(main())
