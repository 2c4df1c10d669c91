"""The three benchmark workloads: seeded input generators, one timed pass
each, and the output checks.

Inputs come from the benchmark's own generators, never from
``openevt.harness``, so a change to the program cannot change a workload.
They are generated and written before any timing starts. A pass always
runs the same inputs from the same starting state, so every pass of a run
must produce byte-identical outputs.

Each workload calls openevt only through module attributes looked up at
call time (``gevc_mod.fit``, ``harness.run_oletter``), so the traced run's
wrappers see every call.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
import spans

BENCH_DIR = Path(__file__).resolve().parent

# Sizes per scale. "full" is what the benchmark measures; "smoke" only
# proves the harness end to end in a few seconds.
SIZES = {
    "full": {
        "letter16": {"train": 6000, "score": 2000, "checked": 200},
        "stream2": {"fit": 4000, "updates": 1100, "queries_per_update": 10,
                    "checked": 200},
        "oletter30": {"train_per_class": 150, "test_per_class": 50,
                      "reps": 2, "jobs": 2},
    },
    "smoke": {
        "letter16": {"train": 600, "score": 100, "checked": 50},
        "stream2": {"fit": 500, "updates": 150, "queries_per_update": 4,
                    "checked": 50},
        "oletter30": {"train_per_class": 45, "test_per_class": 15,
                      "reps": 2, "jobs": 2},
    },
}


def rng_for(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(name.encode())]))


def layout_rng(name: str) -> np.random.Generator:
    """The class layout of a workload is fixed, as a real dataset's would
    be; the seed draws the rows. This keeps the cost of a pass from
    depending on how far apart one seed happened to put the classes."""
    return rng_for(0, f"{name}-layout")


@dataclass
class Pass:
    """One timed pass: its wall time, per-metric samples, operation
    counts, a digest of every output, and exact work counts measured
    without wrappers."""

    wall: float = 0.0
    samples: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    digest: str = ""
    model_bytes: int = 0


@dataclass
class Context:
    workdir: Path
    env: dict
    seed: int


class Workload:
    """A workload generates its inputs on construction. ``run_pass(rec,
    before_op)`` runs one pass, recording spans into ``rec`` when traced and
    calling ``before_op`` (outside its timing) before each group of
    operations; ``check()`` compares the last pass's outputs with the
    oracles."""

    name = ""
    jobs = 1


@contextmanager
def op_span(rec, name):
    """An end-to-end operation span, or nothing when untraced."""
    if rec is None:
        yield None
        return
    span = rec.open(name)
    try:
        yield span
    finally:
        rec.close(span)


# ---------------------------------------------------------------------------
# letter16: the CLI at letter-like p = 16


class Letter16(Workload):
    """``openevt fit`` for gpdc and gevc on a letter-like training CSV, then
    ``openevt score`` per model, each command in its own process."""

    name = "letter16"
    P, CLASSES, KNOWN = 16, 26, 22

    def __init__(self, ctx: Context, size: dict):
        self.ctx = ctx
        layout = layout_rng(self.name)
        protos = layout.uniform(3.0, 12.0, size=(self.CLASSES, self.P))
        spread = layout.uniform(1.0, 2.5, size=(self.CLASSES, self.P))
        rng = rng_for(ctx.seed, self.name)

        def draw(ids):
            noise = rng.standard_normal((ids.shape[0], self.P))
            return np.clip(np.rint(protos[ids] + spread[ids] * noise), 0, 15)

        n = size["train"]
        ids = rng.integers(0, self.KNOWN, size=n)
        train = draw(ids)
        dup = rng.choice(n, size=n // 100, replace=False)
        src = rng.choice(n, size=dup.shape[0])
        train[dup], ids[dup] = train[src], ids[src]
        m = size["score"]
        unknown = m // 5
        score_ids = rng.permutation(np.concatenate([
            rng.integers(0, self.KNOWN, size=m - unknown),
            rng.integers(self.KNOWN, self.CLASSES, size=unknown)]))
        self.train, self.queries = train, draw(score_ids)
        self.checked = np.sort(rng.choice(m, size=size["checked"], replace=False))
        letters = [chr(ord("A") + j) for j in range(self.CLASSES)]
        with open(ctx.workdir / "train.csv", "w") as fh:
            for row, j in zip(train.astype(int), ids):
                fh.write(",".join(map(str, row)) + f",{letters[j]}\n")
        with open(ctx.workdir / "score.csv", "w") as fh:
            for row in self.queries.astype(int):
                fh.write(",".join(map(str, row)) + "\n")
        self.commands = [
            ("fit_gpdc_s", ["fit", "--method", "gpdc", "--train", "train.csv",
                            "--out", "gpdc.model"]),
            ("fit_gevc_s", ["fit", "--method", "gevc", "--train", "train.csv",
                            "--out", "gevc.model"]),
            ("score_gpdc_rows_per_s", ["score", "--model", "gpdc.model",
                                       "--test", "score.csv",
                                       "--out", "gpdc_scores.csv"]),
            ("score_gevc_rows_per_s", ["score", "--model", "gevc.model",
                                       "--test", "score.csv",
                                       "--out", "gevc_scores.csv"]),
        ]
        self.outputs = ["gpdc.model", "gevc.model", "gpdc_scores.csv",
                        "gevc_scores.csv"]

    def _cli(self, args, rec, name) -> tuple:
        if rec is None:
            cmd = [sys.executable, "-m", "openevt.cli", *args]
        else:
            span_file = self.ctx.workdir / "cli_spans.jsonl"
            cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"),
                   str(span_file), *args]
        with op_span(rec, f"op.{name}") as span:
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=self.ctx.workdir, env=self.ctx.env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            elapsed = time.perf_counter() - start
        if rec is not None and proc.returncode == 0:
            rec.absorb(spans.load_spans(span_file), parent=span.id)
        return elapsed, proc

    def run_pass(self, rec=None, before_op=None) -> Pass:
        out = Pass()
        for name, args in self.commands:
            if before_op is not None:
                before_op()
            elapsed, proc = self._cli(args, rec, name)
            out.wall += elapsed
            out.attempted += 1
            if proc.returncode != 0:
                out.failed += 1
                out.errors.append(f"{' '.join(args[:3])}: exit {proc.returncode}: "
                                  f"{proc.stderr.strip()[-500:]}")
                continue
            if name.startswith("score"):
                out.samples[name] = self.queries.shape[0] / elapsed
            else:
                out.samples[name] = elapsed
        if out.failed == 0:
            out.digest = hashlib.sha256("".join(
                oracles.sha256_file(self.ctx.workdir / f) for f in self.outputs
            ).encode()).hexdigest()
            out.model_bytes = sum(os.path.getsize(self.ctx.workdir / f)
                                  for f in self.outputs[:2])
        return out

    def check(self) -> list:
        bad = []
        rows = {}
        for kind in ("gpdc", "gevc"):
            all_rows = oracles.read_score_csv(self.ctx.workdir / f"{kind}_scores.csv")
            if len(all_rows) != self.queries.shape[0]:
                bad.append(f"{kind}: {len(all_rows)} scored rows, "
                           f"expected {self.queries.shape[0]}")
                continue
            rows[kind] = [all_rows[i] for i in self.checked]
            with open(self.ctx.workdir / f"{kind}.model") as fh:
                payload = json.load(fh)["payload"]
            checker = (oracles.check_gpdc_rows if kind == "gpdc"
                       else oracles.check_gevc_rows)
            bad += checker(self.train, self.queries[self.checked], rows[kind],
                           payload)
        return bad


# ---------------------------------------------------------------------------
# stream2: one library client interleaving updates and queries at p = 2

# The toy protocol's three known classes (unit covariance), restated here
# so that the workload does not depend on openevt.harness.
TOY_MEANS = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, -14.0]])


class Stream2(Workload):
    """``gevc.fit`` on a three-Gaussian mixture, then a closed loop with one
    client: each single-point ``update`` is followed by several ``score``
    calls, half from the mixture and half uniform over its bounding box."""

    name = "stream2"

    def __init__(self, ctx: Context, size: dict):
        from openevt import LabeledDataset

        self.ctx, self.size = ctx, size
        rng = rng_for(ctx.seed, self.name)

        def mixture(count):
            ids = rng.integers(0, 3, size=count)
            return TOY_MEANS[ids] + rng.standard_normal((count, 2)), ids

        initial, ids = mixture(size["fit"])
        self.train = LabeledDataset(initial, [f"c{j}" for j in ids])
        self.inserts, insert_ids = mixture(size["updates"])
        self.insert_labels = [f"c{j}" for j in insert_ids]
        lo, hi = initial.min(axis=0), initial.max(axis=0)

        def queries(count):
            known, _ = mixture(count - count // 2)
            uniform = rng.uniform(lo, hi, size=(count // 2, 2))
            return rng.permutation(np.vstack([known, uniform]))

        self.queries = queries(size["updates"] * size["queries_per_update"])
        self.stored = np.vstack([initial, self.inserts])
        self.checked = np.sort(rng.choice(self.stored.shape[0],
                                          size=size["checked"], replace=False))
        self.check_queries = queries(size["checked"])
        self.model = None

    def run_pass(self, rec=None, before_op=None) -> Pass:
        from openevt import gevc as gevc_mod

        if before_op is not None:
            before_op()
        out = Pass()
        per = self.size["queries_per_update"]
        latency = np.empty(self.queries.shape[0])
        results = np.empty((self.queries.shape[0], 2))
        update_time = 0.0
        clock = time.perf_counter
        start = clock()
        with op_span(rec, "op.fit"):
            model = gevc_mod.fit(self.train)
        out.samples["fit_gevc_s"] = clock() - start
        for u in range(self.inserts.shape[0]):
            with op_span(rec, "op.update"):
                t0 = clock()
                model.update([(self.inserts[u], self.insert_labels[u])])
                update_time += clock() - t0
            for q in range(u * per, (u + 1) * per):
                with op_span(rec, "op.query"):
                    t0 = clock()
                    verdict, d0 = model.score(self.queries[q])
                    latency[q] = clock() - t0
                results[q] = (verdict.score, d0)
        out.wall = clock() - start
        out.attempted = 1 + self.inserts.shape[0] + self.queries.shape[0]
        out.samples["update_rows_per_s"] = self.inserts.shape[0] / update_time
        out.samples["query_latency_s"] = latency
        out.digest = hashlib.sha256(results.tobytes()).hexdigest()
        self.model = model
        return out

    def check(self) -> list:
        bad = oracles.check_dmin(self.stored, self.checked, self.model.dmin)
        got = [self.model.score(q)[1] for q in self.check_queries]
        return bad + oracles.check_nearest(self.stored, self.check_queries, got)


# ---------------------------------------------------------------------------
# oletter30: the openness protocol at p = 30


class Oletter30(Workload):
    """``harness.run_oletter`` fitting gpdc, gevc and evm over Gaussian
    classes at p = 30, above the kd-tree's dimension limit."""

    name = "oletter30"
    P, CLASSES, KNOWN = 30, 26, 15
    METHODS = {"gpdc": {"k": 22}, "gevc": {}, "evm": {"k": 40}}

    def __init__(self, ctx: Context, size: dict):
        from openevt import LabeledDataset

        self.ctx, self.size = ctx, size
        self.jobs = size["jobs"]
        means = layout_rng(self.name).normal(0.0, 1.5, size=(self.CLASSES, self.P))
        rng = rng_for(ctx.seed, self.name)
        blocks, labels = [], []
        for split in ("train_per_class", "test_per_class"):
            for j in range(self.CLASSES):
                blocks.append(means[j] + rng.standard_normal((size[split], self.P)))
                labels += [f"class{j:02d}"] * size[split]
        self.data = LabeledDataset(np.vstack(blocks), labels)
        self.train_count = self.CLASSES * size["train_per_class"]
        self.protocol_seed = int(rng.integers(0, 2**31))
        self.steps = None

    def run_pass(self, rec=None, before_op=None) -> Pass:
        from openevt import harness

        if before_op is not None:
            before_op()
        out = Pass()
        start = time.perf_counter()
        with op_span(rec, "op.protocol"):
            steps = harness.run_oletter(
                self.data, methods=self.METHODS, reps=self.size["reps"],
                seed=self.protocol_seed, train_count=self.train_count,
                jobs=self.jobs)
        out.wall = time.perf_counter() - start
        out.attempted = self.size["reps"]
        out.samples["protocol_s"] = out.wall
        flat = [(s.rep, s.n_unknown_classes, m, thr, f)
                for s in steps for m, curve in sorted(s.f_measures.items())
                for thr, f in curve]
        out.digest = hashlib.sha256(repr(flat).encode()).hexdigest()
        self.steps = steps
        return out

    def check(self) -> list:
        per_rep = self.CLASSES - self.KNOWN + 1
        return oracles.check_protocol(self.steps, self.size["reps"] * per_rep)


WORKLOADS = {w.name: w for w in (Letter16, Stream2, Oletter30)}
