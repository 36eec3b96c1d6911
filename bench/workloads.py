"""The benchmark's workloads: seeded inputs, fixed job lists, checks.

Every workload is a closed loop with one caller and fixed work: each run
stops on an iteration cap or on a per-instance target, never on a
wall-clock budget, so a round does the same work on any machine.

* ``scan-dag``: ILS-reduced stopped on a target (56 instances, n=40) and
  TS-reduced under an iteration cap (n=100, 150, 200) on random-DAG
  instances. Nearly all of its time is in best-improvement reduced scans
  (remove, then rebuild a schedule per insertion), the path a faster
  neighbor evaluation speeds up. A run's time to target varies by +-50%
  between instances, so only many small ILS instances give a median that
  holds still from seed to seed.
* ``anneal-large``: SA-reduced under an iteration cap on 200-300 operation
  DAG and chain instances. Each candidate is one remove plus one full
  rebuild with no scan, so scan optimisations are bypassed here, while
  remove and construction costs show at scale.
* ``batch-chain``: the ``flexshop bench`` path (``run_benchmark`` then
  ``emit_results``) over generated Brandimarte-style ``.fjs`` files, with
  all four metaheuristics under small caps and a two-worker process pool.
  It is the only workload that parses files, uses the pool and writes
  results, and its precedences are per-job chains instead of a DAG.

ILS targets are fixed data, not worked out at run time: ``ils_targets.json``
holds a pool of seeded n=40 DAG instances (and a small smoke pool), each
with the target its run must reach, made by ``make_targets.py`` at the seed
commit. A pool instance's target is one time unit below the makespan of its
constructive start (``best_of_est_ect``), kept only where that start has an
improving reduced neighbor, so at the seed commit the first
best-improvement descent of ILS-reduced reaches it. The seed picks which
pool instances a run uses. A run that stops on the iteration cap (a safety
stop) instead of its target counts as failed, and a pool instance whose
text no longer matches the stored fingerprint fails the inputs check.
"""

import hashlib
import json
import os
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import flexshop.harness
import flexshop.metaheuristics
from flexshop.metaheuristics import MetaConfig

import hostspeed
import instances
import verify

ILS_SAFETY_CAP = 20
TARGETS_FILE = Path(__file__).resolve().parent / "ils_targets.json"


@dataclass(frozen=True)
class Job:
    instance: int  # index into the workload's generated instances
    algo: str
    cap: int
    seed: int
    to_target: bool = False


@dataclass(frozen=True)
class Plan:
    """Sizes and caps of one workload; ``--smoke`` swaps in a tiny plan."""

    ils_count: int = 0  # ILS instances drawn from the target pool
    ils_n: int = 0  # operations per ILS instance: the pool's size class
    ts_dag: tuple = ()  # (n, m) per TS instance (scan-dag)
    ts_cap: int = 0
    sa_dag: tuple = ()  # (n, m) per SA DAG instance (anneal-large)
    sa_chain: tuple = ()  # (jobs, ops_lo, ops_hi, m) per SA chain instance
    sa_cap: int = 0
    batch_chain: tuple = ()  # (jobs, ops_lo, ops_hi, m) per .fjs file
    batch_caps: tuple = ()  # (algo, cap) per config
    batch_runs: int = 0


PLANS = {
    "scan-dag": Plan(
        ils_count=56,
        ils_n=40,
        ts_dag=((100, 8), (150, 9), (200, 10)),
        ts_cap=2,
    ),
    "anneal-large": Plan(
        sa_dag=tuple((200 + 8 * i, 8 + i % 3) for i in range(14)),
        sa_chain=tuple((20 + 3 * i, 9, 11, 8 + i % 3) for i in range(4)),
        sa_cap=60,
    ),
    "batch-chain": Plan(
        batch_chain=tuple((5 + i % 4, 6, 7, 5 + i % 3) for i in range(16)),
        batch_caps=(("ils", 1), ("grasp", 1), ("ts", 4), ("sa", 40)),
        batch_runs=2,
    ),
}
SMOKE = {
    "scan-dag": Plan(ils_count=2, ils_n=12, ts_dag=((20, 3),), ts_cap=2),
    "anneal-large": Plan(sa_dag=((25, 3),), sa_chain=((4, 3, 5, 3),),
                         sa_cap=10),
    "batch-chain": Plan(batch_chain=((3, 3, 5, 3), (4, 3, 5, 3)),
                        batch_caps=(("ils", 1), ("grasp", 1), ("ts", 2),
                                    ("sa", 5)),
                        batch_runs=1),
}
NAMES = tuple(PLANS)


def pool_instance(n: int, index: int):
    """Instance ``index`` of the ILS target pool of ``n``-operation DAGs."""
    return instances.dag_instance(random.Random(f"ils-pool/n{n}/{index}"),
                                  f"ils-dag-n{n}-p{index:04d}", n,
                                  5 + index % 6)


def text_sha(g) -> str:
    return hashlib.sha256(g.text.encode()).hexdigest()[:16]


@dataclass
class Result:
    job: Job | None  # None for runs made by the harness
    record: object  # RunRecord, or None when the run raised
    error: str = ""
    factor: float = 1.0  # host-speed scale of this run's timings


@dataclass
class Round:
    seconds: float | None  # raw seconds of the job list; None if it raised
    ref_seconds: float | None  # the same at reference host speed
    results: list
    # batch-chain: estimated share of the measured wall time that pool
    # workers spent in host-speed samples, already taken out of ``seconds``
    calibration_s: float = 0.0


def _speed_sampled(run):
    """``run`` bracketed by host-speed samples; the record carries the
    factor and the seconds the samples took."""
    def sampled(inst, cfg, *args, **kwargs):
        t0 = time.perf_counter()
        before = hostspeed.sample()
        t1 = time.perf_counter()
        record = run(inst, cfg, *args, **kwargs)
        t2 = time.perf_counter()
        record.host_factor = hostspeed.scale([before, hostspeed.sample()])
        record.sample_s = (t1 - t0) + (time.perf_counter() - t2)
        return record
    return sampled


class Workload:
    def __init__(self, name: str, seed: int, smoke: bool, out_dir: Path):
        self.name = name
        self.seed = seed
        self.plan = (SMOKE if smoke else PLANS)[name]
        self.out_dir = out_dir
        self.workers = min(2, os.cpu_count() or 1)
        self.generated = []
        self.instances = []
        self.jobs = self._jobs()
        # pool index -> (target, text fingerprint), for the plan's size class
        pool = (json.loads(TARGETS_FILE.read_text())["pools"]
                .get(str(self.plan.ils_n), {}) if self.plan.ils_count else {})
        if len(pool) < self.plan.ils_count:
            raise ValueError(f"{TARGETS_FILE.name} has {len(pool)} targets "
                             f"for n={self.plan.ils_n}, "
                             f"{self.plan.ils_count} needed")
        picks = random.Random(f"{name}/{seed}/ils").sample(
            sorted(pool, key=int), self.plan.ils_count)
        self.pool_picks = [(int(j), *pool[j]) for j in picks]
        # instance index -> target makespan of its ILS run
        self.targets = {i: target
                        for i, (_, target, _) in enumerate(self.pool_picks)}

    # -- inputs --------------------------------------------------------

    def _generate(self) -> list:
        rng = random.Random(f"{self.name}/{self.seed}")
        p = self.plan
        gen = [pool_instance(p.ils_n, j) for j, _, _ in self.pool_picks]
        for label, sizes in (("ts", p.ts_dag), ("sa", p.sa_dag)):
            for i, (n, m) in enumerate(sizes):
                gen.append(instances.dag_instance(
                    rng, f"{label}-dag{i:02d}-n{n}", n, m))
        for label, shapes in (("sa", p.sa_chain), ("batch", p.batch_chain)):
            for i, (jobs, lo, hi, m) in enumerate(shapes):
                gen.append(instances.chain_instance(
                    rng, f"{label}-chain{i:02d}", jobs, (lo, hi), m))
        return gen

    def setup(self) -> None:
        """Generate, serialize and parse/validate every instance; the
        batch workload also writes its ``.fjs`` files."""
        self.generated = self._generate()
        if self.name == "batch-chain":
            fjs = self.out_dir / "instances"
            shutil.rmtree(fjs, ignore_errors=True)
            fjs.mkdir(parents=True)
            for g in self.generated:
                (fjs / f"{g.name}.fjs").write_text(g.text)
        self.instances = [g.parse() for g in self.generated]

    def input_errors(self) -> list:
        errors = []
        for g, inst in zip(self.generated, self.instances):
            errors.extend(instances.round_trip_errors(g, inst))
        for g, (_, _, sha) in zip(self.generated, self.pool_picks):
            if text_sha(g) != sha:
                errors.append(f"{g.name}: text differs from the one its "
                              f"target in {TARGETS_FILE.name} was made for")
        return errors

    # -- the fixed job list ---------------------------------------------

    def _jobs(self) -> list:
        p = self.plan
        jobs = []
        idx = 0
        for _ in range(p.ils_count):
            jobs.append(Job(idx, "ils", ILS_SAFETY_CAP, self.seed * 1000 + idx,
                            to_target=True))
            idx += 1
        for _ in p.ts_dag:
            jobs.append(Job(idx, "ts", p.ts_cap, self.seed * 1000 + idx))
            idx += 1
        for _ in p.sa_dag + p.sa_chain:
            jobs.append(Job(idx, "sa", p.sa_cap, self.seed * 1000 + idx))
            idx += 1
        return jobs

    def configs(self) -> list:
        return [MetaConfig.calibrated(algo, "reduced", max_iterations=cap)
                for algo, cap in self.plan.batch_caps]

    def attempted(self) -> int:
        """Runs per round."""
        if self.name == "batch-chain":
            return (len(self.plan.batch_chain) * len(self.plan.batch_caps)
                    * self.plan.batch_runs)
        return len(self.jobs)

    def timed_round(self, tracer=None) -> "Round":
        """One pass over the job list. A round that raises fails every run
        in it and has no time."""
        try:
            if self.name == "batch-chain":
                return self._batch_round()
            return self._sequential_round(tracer)
        except Exception as exc:
            error = f"round raised {type(exc).__name__}: {exc}"
            return Round(None, None, [Result(None, None, error)]
                         * self.attempted())

    def _sequential_round(self, tracer) -> "Round":
        samples = [hostspeed.sample()]
        seconds, results = [], []
        for job in self.jobs:
            cfg = MetaConfig.calibrated(
                job.algo, "reduced", seed=job.seed, max_iterations=job.cap,
                target_makespan=self.targets.get(job.instance))
            if tracer is not None:
                tracer.begin_run(job.algo)
            t0 = time.perf_counter()
            try:
                record = flexshop.metaheuristics.run(
                    self.instances[job.instance], cfg)
                results.append(Result(job, record))
            except Exception as exc:  # one failed run must not end the round
                results.append(Result(job, None, f"{type(exc).__name__}: {exc}"))
            seconds.append(time.perf_counter() - t0)
            samples.append(hostspeed.sample())
        factors = hostspeed.factors(samples)
        for res, f in zip(results, factors):
            res.factor = f
        return Round(sum(seconds),
                     sum(t * f for t, f in zip(seconds, factors)), results)

    def _batch_round(self) -> "Round":
        """The runs happen in pool workers, which inherit (by fork) a
        wrapper of ``flexshop.harness.run`` that brackets each run with
        host-speed samples taken in the worker itself. The samples'
        seconds, spread over the workers, are taken out of the round's
        time, so the calibration does not count as the program's time."""
        harness = flexshop.harness
        run = harness.run
        harness.run = _speed_sampled(run)
        before = [hostspeed.sample() for _ in range(3)]
        t0 = time.perf_counter()
        try:
            paths = sorted((self.out_dir / "instances").glob("*.fjs"))
            records = harness.run_benchmark(
                paths, self.configs(), runs=self.plan.batch_runs,
                seed_base=self.seed, fmt="classical",
                learning_rate=instances.ALPHA, workers=self.workers)
            harness.emit_results(records, fmt="csv",
                                 path=self.out_dir / "results.csv")
        finally:
            harness.run = run
        seconds = time.perf_counter() - t0
        calibration = sum(getattr(rec, "sample_s", 0.0)
                          for rec in records) / self.workers
        seconds -= calibration
        # workers made without fork (another start method) lack the samples
        fallback = hostspeed.scale(before + [hostspeed.sample()
                                             for _ in range(3)])
        results = [Result(None, rec, factor=getattr(rec, "host_factor",
                                                    fallback))
                   for rec in records]
        runtime = sum(rec.total_runtime for rec in records)
        scaled = sum(r.record.total_runtime * r.factor for r in results)
        return Round(seconds, seconds * scaled / runtime if runtime else
                     seconds * fallback, results, calibration)

    # -- correctness ----------------------------------------------------

    def check(self, results) -> list:
        """Errors per result (same order), outside the timed region."""
        by_name = {g.name: (g, inst)
                   for g, inst in zip(self.generated, self.instances)}
        out = []
        for res in results:
            rec = res.record
            if rec is None:
                out.append([res.error])
                continue
            if res.job is None:
                g, inst = by_name[rec.instance_id]
                expected_stop = "iteration-cap"
            else:
                g = self.generated[res.job.instance]
                inst = self.instances[res.job.instance]
                expected_stop = ("target" if res.job.to_target
                                 else "iteration-cap")
            errors = []
            if rec.stop_reason != expected_stop:
                errors.append(f"{g.name} {rec.algorithm}: stopped on "
                              f"{rec.stop_reason!r}, expected {expected_stop!r}")
            errors.extend(verify.schedule_errors(g, inst, rec.schedule,
                                                 rec.best_makespan))
            out.append(errors)
        if self.name == "batch-chain" and all(r.record for r in results):
            self._check_csv(results, out)
        return out

    def _check_csv(self, results, out) -> None:
        rows = flexshop.harness.read_results_csv(self.out_dir / "results.csv")
        written = {(r.instance_id, r.algorithm, r.seed): r.best_makespan
                   for r in rows}
        for res, errors in zip(results, out):
            rec = res.record
            key = (rec.instance_id, rec.algorithm, rec.seed)
            if written.get(key) != rec.best_makespan:
                errors.append(f"{key}: results.csv holds "
                              f"{written.get(key)}, run returned "
                              f"{rec.best_makespan}")
        if len(rows) != len(results):
            out[0].append(f"results.csv has {len(rows)} rows for "
                          f"{len(results)} runs")

    # -- end-to-end figures of one round ---------------------------------

    def ttt_results(self, results) -> list:
        """Runs whose time to best makes up ``ttt_s``: the target-stopped
        ILS runs on scan-dag (time to target); elsewhere the SA runs, whose
        best under these caps is their constructive start (time to start).
        Descent-based runs would be steadier only with many more inputs."""
        done = [r for r in results if r.record is not None]
        if self.name == "scan-dag":
            return [r for r in done if r.job.to_target]
        return [r for r in done if r.record.algorithm.startswith("sa")]
