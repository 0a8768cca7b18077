"""The two workloads: offline fit, and online routing checked against batch
routing.

Both run closed loop, one client, in this process. Each reports every
end-to-end metric: a workload that does not measure a quantity in its main
pass measures it on the step that does that job for it (see README.md).

Every timing of an untraced run is taken at a reference CPU speed (see
``speed.py``): on the shared 2-core host the benchmark was written on, the
speed of the same code drifted by up to 2x for stretches of seconds to
minutes. A metric is the median of such timings over a fixed number of
passes, so a faster or slower program does not change how many samples it
is taken over.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import os
import shutil
import statistics
import time
import warnings

import numpy as np

from lppgate import cli, gateway, pipeline, policy, schema, trainer

import inputs
import oracles
from speed import SpeedMeter
from tracer import TRACED, Tracer

#: Items per corpus: small enough that a run holds several passes to take a
#: median over.
ITEMS = 1000
#: Set-ups per untraced run, as (before the passes, spread between them);
#: their median is ``setup_s``. fit-direct's set-up takes about 0.1 s and is
#: spread over the run. route-online-cot's set-up takes seconds, and one
#: between passes would add its inputs to the peak RSS (about 380 MB instead
#: of 200 MB), so its set-ups all come first.
SETUPS = {"fit-direct": (1, 8), "route-online-cot": (3, 0)}
#: Nominal seconds per pass, sized from runs of the unchanged program on a
#: 2-core host. A run makes ``round(seconds / PASS_S)`` passes, at least one.
PASS_S = {"fit-direct": 8.0, "route-online-cot": 6.7}
#: Safety cap: no pass starts after this many times ``--seconds``, so a much
#: slower program still ends in time (the runs of a campaign share a time
#: limit). A capped run says so in its record.
CAP_FACTOR = 1.5
WARMUP_ITEMS = 50
GATE_REFITS = 40
FIT_ROUTES = 2
#: 5 % of the corpus, as 150 of 3000 items in the openai-mod profile.
TEST_NEGATIVES = 50
STAGES = ("extract", "split", "train", "sweep", "evaluate", "sensitivity")

_ROUTE_LAYERS = (
    "schema.read_traces_jsonl",
    "schema.trace_from_dict",
    "pipeline.extract_table",
    "features.assemble_feature_vector",
    "features.compute_sequence_features",
    "features.renormalize_topk",
    "trainer.predict_score",
    "policy.decisions_at",
)
#: Functions that must record calls in a traced run of each workload.
EXPECTED_CALLS = {
    "fit-direct": tuple(n for n in TRACED if n.split(".")[0] in ("trainer", "dataset"))
    + (
        "pipeline.build_examples",
        "pipeline.load_features",
        "pipeline.save_features",
        "manifest.sha256_file",
        "policy.sweep_threshold",
        "evaluation.run_baseline",
        "synth.generate_corpus",
    ),
    "route-online-cot": (
        "gateway.run_inference",
        "gateway.dispatch",
        "gateway.segment_spans",
        "schema.parse_structured_response",
        "schema.locate_structured_fields",
        "synth.generate_corpus",
    )
    + _ROUTE_LAYERS,
}


class Run:
    """One benchmark run: seed, measuring window, scratch directory, and the
    tracer when the run is traced or the speed meter when it is not.
    Collects problems and counters."""

    def __init__(self, workload: str, seed: int, seconds: float, work_dir: str, traced: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.tracer = Tracer() if traced else None
        self.meter = None if traced else SpeedMeter()
        self.tracing = False
        self.attempted = 0
        self.problems: list[str] = []
        self.undetected: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.info: dict = {}
        self.model_path: str | None = None
        self.setup_spans: list[tuple[float, float]] = []
        self._build = None
        self.cpus = sorted(os.sched_getaffinity(0))
        self._turn = 0
        self.counters = {"platt_fallbacks": 0, "rows_in": 0, "rows_out": 0, "accepted": 0}
        self._configs: set = set()
        if traced:
            self._install_hooks()

    # -- tracing -------------------------------------------------------

    def _install_hooks(self) -> None:
        c = self.counters

        def cross_fit(args, kwargs, result):
            X, z, cfg = np.ascontiguousarray(args[0], dtype=float), np.asarray(args[1], dtype=np.int64), args[2]
            digest = hashlib.sha1(X.tobytes() + z.tobytes()).hexdigest()
            self._configs.add((cfg.alpha, cfg.class_weight, cfg.calibration, digest))

        def rows_in(args, kwargs, result):
            c["rows_in"] += len(args[0])

        def rows_out(args, kwargs, result):
            c["rows_out"] += len(result)

        def accepted(args, kwargs, result):
            c["accepted"] += len(result.traces)

        self.tracer.on_call("trainer.cross_fit_calibrated", cross_fit)
        self.tracer.on_call("dataset.tomek_links", rows_in)
        self.tracer.on_call("dataset.random_undersample", rows_out)
        self.tracer.on_call("gateway.run_inference", accepted)

    @contextlib.contextmanager
    def traced(self, request: str):
        """Trace the block when this run is traced; otherwise run it plainly."""
        if self.tracer is None:
            yield
            return
        restore = self.tracer.install()
        self.tracer.request = request
        self.tracing = True
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                yield
            finally:
                self.tracing = False
                restore()
        self.counters["platt_fallbacks"] += sum(
            str(w.message).startswith("Platt calibration fell back") for w in caught
        )

    def span(self, name: str, request: str):
        self.request(request)
        return self.tracer.span(name) if self.tracing else contextlib.nullcontext()

    def request(self, request_id: str) -> None:
        if self.tracing:
            self.tracer.request = request_id

    # -- phases --------------------------------------------------------

    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.work_dir, name)
        os.makedirs(path)
        return path

    def setup(self, build):
        """Build the inputs with ``build(dir)``, timed: once, traced, in a
        traced run, and ``SETUPS[workload][0]`` times in an untraced one,
        keeping the last result. ``measure`` times the set-ups between
        passes."""
        self._build = build
        for _ in range(1 if self.tracer else SETUPS[self.workload][0]):
            result = None  # frees the previous set-up's inputs first
            result, _ = self._timed_setup()
        # The benchmark's own inputs stay alive for the whole run; keep the
        # collector from rescanning them inside the measured passes.
        gc.collect()
        gc.freeze()
        return result

    def next_cpu(self) -> None:
        """Untraced: move this thread to the next allowed CPU in turn. On the
        shared host the benchmark was written on, one CPU was at times slower
        than the other for minutes, so a run that stayed on one CPU could be
        slow throughout. Alternating lets every run sample each CPU."""
        if self.tracer is None:
            os.sched_setaffinity(0, {self.cpus[self._turn % len(self.cpus)]})
            self._turn += 1

    def _timed_setup(self):
        self.next_cpu()
        path = self.fresh_dir(f"setup{len(self.setup_spans)}")
        gc.collect()
        with self.traced("setup"):
            start = time.perf_counter()
            result = self._build(path)
            self.setup_spans.append((start, time.perf_counter()))
        return result, path

    def durations(self, starts, ends) -> np.ndarray:
        """Untraced: the intervals in seconds at the reference CPU speed.
        Traced: their wall times."""
        if self.meter is None:
            return np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
        return self.meter.reference_s(starts, ends)

    def span_durations(self, spans) -> np.ndarray:
        return self.durations([s for s, _ in spans], [e for _, e in spans])

    def setup_s(self) -> float:
        return statistics.median(self.span_durations(self.setup_spans))

    def measure(self, one_pass) -> list[dict]:
        """Untraced: a fixed number of passes, unless the safety cap stops the
        run early. Traced: one plain pass, then one traced pass; the
        difference of their wall times is the tracing overhead."""
        if self.tracer is None:
            planned = max(1, round(self.seconds / PASS_S[self.workload]))
            before, between = SETUPS[self.workload]
            results, start = [], time.perf_counter()
            while len(results) < planned and (
                not results or time.perf_counter() - start < CAP_FACTOR * self.seconds
            ):
                self.next_cpu()
                results.append(one_pass(len(results)))
                while len(self.setup_spans) < before + math.ceil(len(results) * between / planned):
                    _, path = self._timed_setup()
                    shutil.rmtree(path)
            self.info["passes"] = len(results)
            self.info["passes_planned"] = planned
            self.info["capped"] = len(results) < planned
            self.info["setup_wall_s"] = [e - s for s, e in self.setup_spans]
            self.info["setup_s"] = list(self.span_durations(self.setup_spans))
            self.info["cpus"] = self.cpus
            return results
        plain = one_pass(0)
        with self.traced("pass"):
            traced = one_pass(1)
        self.info["trace_overhead_s"] = traced["wall_s"] - plain["wall_s"]
        return [traced]

    def check(self, problems: list[str]) -> None:
        self.problems += problems

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        summary = self.tracer.summary()
        out: dict[str, tuple[float, str]] = {}
        for name in TRACED:
            entry = summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            out[f"{name}.calls"] = (entry["calls"], "count")
            out[f"{name}.s"] = (entry["s"], "s")
            out[f"{name}.self_s"] = (entry["self_s"], "s")
        for stage in STAGES:
            out[f"cli.{stage}.s"] = (summary.get(f"cli.{stage}", {}).get("s", 0.0), "s")
        c = self.counters
        cross_fits = summary.get("trainer.cross_fit_calibrated", {}).get("calls", 0)
        dispatches = summary.get("gateway.dispatch", {}).get("calls", 0)
        out["trainer.distinct_configs"] = (len(self._configs), "count")
        out["trainer.distinct_config_share"] = (len(self._configs) / cross_fits if cross_fits else 0.0, "ratio")
        out["trainer.platt_fallbacks"] = (c["platt_fallbacks"], "count")
        out["dataset.resample_rows_in"] = (c["rows_in"], "count")
        out["dataset.resample_keep_share"] = (c["rows_out"] / c["rows_in"] if c["rows_in"] else 0.0, "ratio")
        out["gateway.accepted"] = (c["accepted"], "count")
        out["gateway.accept_share"] = (c["accepted"] / dispatches if dispatches else 0.0, "ratio")
        out["trace.overhead_s"] = (self.info["trace_overhead_s"], "s")
        out["trace.spans"] = (len(self.tracer.spans), "count")
        missing = [n for n in EXPECTED_CALLS[self.workload] if summary.get(n, {}).get("calls", 0) == 0]
        self.check([f"{n} recorded zero calls" for n in missing])
        return out


# ---------------------------------------------------------------------------
# shared steps
# ---------------------------------------------------------------------------


def batch_route(path: str, gate) -> dict:
    """Route a trace file as one batch: read, extract, score, decide."""
    start = time.perf_counter()
    traces = schema.read_traces_jsonl(path)
    table = pipeline.extract_table(traces)
    scores = trainer.predict_score(gate, table.names, table.matrix)
    trust = policy.decisions_at(scores, gate.tau_star)
    end = time.perf_counter()
    return {
        "span": (start, end),
        "wall_s": end - start,
        "ids": list(table.item_ids),
        "names": list(table.names),
        "X": table.matrix,
        "scores": np.asarray(scores, dtype=float),
        "decisions": np.asarray(trust, dtype=bool),
        "invalid": list(table.invalid_ids),
    }


def routing_cost(labels, ids, decisions) -> float:
    """Absolute cost of routing decisions against the generator's labels."""
    z = {r.item_id: oracles.correctness(r.ground_truth, r.llm_outcome) for r in labels}
    return oracles.test_cost(oracles.confusion(decisions, [z[i] for i in ids]))


def batch_checks(run: Run, result: dict, expected_ids: list[str]) -> None:
    if result["ids"] != expected_ids or result["invalid"]:
        run.check([f"batch routed {len(result['ids'])} of {len(expected_ids)} items ({len(result['invalid'])} invalid)"])
        return
    model = oracles.read_model(run.model_path)
    args = (model, result["names"], result["X"], result["scores"], result["decisions"])
    run.check(oracles.decision_problems(*args))
    run.undetected += oracles.self_test_batch(*args)


# ---------------------------------------------------------------------------
# fit-direct
# ---------------------------------------------------------------------------


def _stage_argv(stage: str, out: str, paths: dict, seed: int, test_negatives: int) -> list[str]:
    j = lambda name: os.path.join(out, name)  # noqa: E731
    common = [
        "--features", j("features.csv"), "--features-sidecar", j("features.families.json"),
        "--labels", paths["labels"], "--seed", str(seed),
        "--cost-ratio", str(oracles.C_REV / oracles.C_MIS), "--cost-mis", str(oracles.C_MIS),
    ]
    return {
        "extract": ["extract", "--out", out, "--traces", paths["traces"], "--seed", str(seed)],
        "split": ["split", "--out", out, *common, "--test-negatives", str(test_negatives)],
        "train": ["train", "--out", out, *common, "--train-ids", j("train_ids.txt")],
        "sweep": ["sweep", "--out", out, *common, "--model", j("model.json"), "--validation-ids", j("validation_ids.txt")],
        "evaluate": [
            "evaluate", "--out", out, *common, "--model", j("model.json"),
            "--validation-ids", j("validation_ids.txt"), "--test-ids", j("test_ids.txt"),
        ],
        "sensitivity": ["sensitivity", "--out", out, *common, "--model", j("model.json"), "--test-ids", j("test_ids.txt")],
    }[stage]


def fit_direct(run: Run) -> None:
    """The experimenter's CLI chain on direct-answer traces, full grid; the
    fitted gate then routes the corpus as one batch, a few times, since one
    batch takes only a fraction of a second."""
    data = run.setup(lambda d: inputs.write_fit_inputs(d, ITEMS, run.seed))
    paths = data["paths"]
    expected_ids = sorted(r.item_id for r in data["labels"])

    # Each pass checks its outputs and keeps only timings, so memory does not
    # grow with the number of passes.
    def one_pass(k: int) -> dict:
        out = run.fresh_dir(f"fit{k}")
        start = time.perf_counter()
        for stage in STAGES:
            run.attempted += 1
            with run.span(f"cli.{stage}", stage):
                code = cli.main(_stage_argv(stage, out, paths, run.seed, TEST_NEGATIVES))
            if code != 0:
                run.check([f"lppgate {stage} exited {code}"])
                return {"span": (start, time.perf_counter()), "wall_s": time.perf_counter() - start, "out": out, "routes": None}
        end = time.perf_counter()
        run.request("route")
        run.model_path = os.path.join(out, "model.json")
        gate = trainer.load_gate(run.model_path)
        routes = []
        for _ in range(FIT_ROUTES):
            route = batch_route(paths["traces"], gate)
            run.attempted += len(route["ids"])
            batch_checks(run, route, expected_ids)
            routes.append(route["span"])
        return {"span": (start, end), "wall_s": end - start, "out": out, "routes": routes}

    passes = run.measure(one_pass)
    if any(p["routes"] is None for p in passes):
        return
    for p in passes:
        docs = oracles.read_fit_outputs(p["out"], paths["labels"])
        run.check(oracles.fit_problems(docs))
    run.undetected += oracles.self_test_fit(docs)

    fit_s = run.span_durations([p["span"] for p in passes])
    route_spans = [r for p in passes for r in p["routes"]]
    route_s = run.span_durations(route_spans)
    run.metric("setup_s", run.setup_s(), "s")
    run.metric("fit_s", np.median(fit_s), "s")
    run.metric("fit_test_cost", oracles.test_cost(docs["evaluation"]["methods"]["meta_model"]["metrics"]["counts"]), "c_mis")
    # Batch items are decided together: every item waits for the whole batch,
    # so both latency percentiles are the batch's time.
    batch_s = float(np.median(route_s))
    run.metric("route_batch_items_per_s", len(expected_ids) / batch_s, "items/s")
    run.metric("online_p50_ms", 1000.0 * batch_s, "ms")
    run.metric("online_p99_ms", 1000.0 * batch_s, "ms")
    run.info["pass_wall_s"] = [p["wall_s"] for p in passes]
    run.info["fit_s"] = list(fit_s)
    run.info["route_wall_s"] = [e - s for s, e in route_spans]
    run.info["route_s"] = list(route_s)
    run.info["inputs"] = inputs.input_properties(data["labels"])


# ---------------------------------------------------------------------------
# route-online-cot
# ---------------------------------------------------------------------------


def _online_pass(run: Run, items, fixtures, template, gate) -> dict:
    provider = gateway.StubProvider(fixtures)
    ids, rows, decisions, starts, ends = [], [], [], [], []
    retried = 0
    start = time.perf_counter()
    for item in items:
        run.request(item["item_id"])
        starts.append(time.perf_counter())
        try:
            result = gateway.run_inference([item], template, provider, pool_width=1)
            table = pipeline.extract_table(result.traces)
            trust = policy.decisions_at(trainer.predict_score(gate, table.names, table.matrix), gate.tau_star)
        except Exception as exc:  # noqa: BLE001 - one failed item must not stop the loop
            ends.append(time.perf_counter())
            run.check([f"item {item['item_id']}: {type(exc).__name__}: {exc}"])
            continue
        ends.append(time.perf_counter())
        ids.append(table.item_ids[0])
        rows.append(table.matrix[0])
        decisions.append(bool(trust[0]))
        retried += result.traces[0].attempt > 1
    return {
        "wall_s": time.perf_counter() - start,
        "starts": np.array(starts),
        "ends": np.array(ends),
        "ids": ids,
        "X": np.array(rows),
        "decisions": np.array(decisions, dtype=bool),
        "retried": retried,
    }


def route_online(run: Run) -> None:
    """CoT items sent one at a time through the stub gateway. Each pass is
    followed by the batch path over the same trace file, whose decisions and
    features the online pass must reproduce, and by a timed block of refits of
    the routing gate, sampled at several moments of the run."""
    data = run.setup(lambda d: inputs.write_route_inputs(d, ITEMS, run.seed))
    run.model_path = data["paths"]["model"]
    template = gateway.load_template("text-cot")
    gate = data["gate"]
    items = data["items"]
    # Lazy imports and first-call paths finish before timing starts.
    _online_pass(run, items[:WARMUP_ITEMS], data["fixtures"], template, gate)

    expected_ids = sorted(i["item_id"] for i in items)
    scripted = len(data["retried"])
    last: dict = {}

    # Each pass checks its outputs and keeps only timings; the last pass's
    # outputs stay for the self-test and the cost.
    def one_pass(k: int) -> dict:
        last.clear()
        online = _online_pass(run, items, data["fixtures"], template, gate)
        run.request("batch")
        batch = batch_route(data["paths"]["traces"], gate)
        run.attempted += len(items) + len(batch["ids"])
        batch_checks(run, batch, expected_ids)
        run.check(oracles.online_problems(batch, online, scripted))
        run.request("refit")
        # One refit takes milliseconds, so the block of refits is timed as one.
        start = time.perf_counter()
        for _ in range(GATE_REFITS):
            inputs.fit_gate(data["gate_corpus"])
        refits = (start, time.perf_counter())
        last.update(online=online, batch=batch)
        return {"wall_s": online["wall_s"], "latency": (online["starts"], online["ends"]), "batch": batch["span"], "refits": refits}

    passes = run.measure(one_pass)
    run.undetected += oracles.self_test_online(
        oracles.read_model(run.model_path), last["batch"], last["online"], scripted
    )

    # Percentiles of all passes' item latencies together: 1000 items per
    # pass leave 10 above the p99 in each pass.
    latency_ms = [1000.0 * run.durations(*p["latency"]) for p in passes]
    pooled_ms = np.concatenate(latency_ms)
    run.info["latency_samples"] = len(pooled_ms)
    batch_s = run.span_durations([p["batch"] for p in passes])
    refit_s = run.span_durations([p["refits"] for p in passes]) / GATE_REFITS
    run.metric("setup_s", run.setup_s(), "s")
    run.metric("fit_s", np.median(refit_s), "s")
    run.metric("fit_test_cost", routing_cost(data["labels"], last["online"]["ids"], last["online"]["decisions"]), "c_mis")
    run.metric("route_batch_items_per_s", len(items) / np.median(batch_s), "items/s")
    run.metric("online_p50_ms", np.percentile(pooled_ms, 50), "ms")
    run.metric("online_p99_ms", np.percentile(pooled_ms, 99), "ms")
    run.info["pass_wall_s"] = [p["wall_s"] for p in passes]
    run.info["pass_wall_p50_ms"] = [1000.0 * float(np.percentile(np.subtract(*p["latency"][::-1]), 50)) for p in passes]
    run.info["pass_p50_ms"] = [float(np.percentile(ms, 50)) for ms in latency_ms]
    run.info["pass_p99_ms"] = [float(np.percentile(ms, 99)) for ms in latency_ms]
    run.info["batch_wall_s"] = [e - s for s, e in (p["batch"] for p in passes)]
    run.info["batch_s"] = list(batch_s)
    run.info["refit_s"] = list(refit_s)
    run.info["inputs"] = inputs.input_properties(data["labels"], data["dicts"], data["retried"])

WORKLOADS = {
    "fit-direct": fit_direct,
    "route-online-cot": route_online,
}
