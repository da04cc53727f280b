"""The traced pass of the perf ledger: outside-in layer attribution.

The layers are measured from outside, by timing calls into their public
functions.  The first :data:`REPLAY_CALLS` calls of the workload's round are
replayed at every depth of a *ladder* of public entry points, each replay in
a benchmark-owned span::

    ServeClient.query            (served only: HTTP over loopback)
      SimilarityService.handle   (served only: in-process, cli defaults)
        Query.top_k / select / rank / run_many
          fitted_predicate().<op>    (Predicate / ShardedPredicate /
                                      DeclarativePredicate)
            leaves: tokenizer.tokenize, shards[i].<op>, SQLBackend proxy

A layer's self time is its span minus the span one depth in *for the same
input*.  The inner span comes from a replay of the same call, not from the
same execution -- except the SQL backend proxy, which runs inside the
predicate call it is subtracted from.  The depths of one call are replayed
back to back (after one untimed replay that warms the caches for that
input), so drift of the machine cancels in the paired differences; the
price is that every span of the ladder is a warm-cache span, a few percent
shorter than the same call inside a round.  Reported self times are medians
of the paired differences; ``trace.ladder_residual_share`` says how far
those medians are from summing to the top span's median (they sum exactly
per call).  Counts come from public stats only: ``engine.metrics``,
``pruning_stats``, ``shard_stats``, blocker stats, ``GET /metrics``.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SQLiteBackend
from repro.cli import build_parser
from repro.dbengine.parser import parse_statement
from repro.eval import time_preprocessing
from repro.obs import Tracer, perf_clock
from repro.serve import SimilarityService, parse_query_request
from repro.serve.protocol import result_envelope

from catalog import PER_LAYER
from measure import Calibrator, Round, SpanLog, ladder_summary, median, summarize_rounds
from programs import LibraryProgram, ServedProgram, TimingBackend, make_program
from rounds import Tally, build_references, check_round, lanes_for, run_round
from workloads import Call, Workload

__all__ = ["REPLAY_CALLS", "run"]

REPLAY_CALLS = 200

#: Span name of the user-visible library call, the top of every ladder but
#: the served one.
QUERY_OP = "engine.Query.op"


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _predicate_op(predicate, call: Call) -> Callable[[], object]:
    """``call`` against a fitted predicate (direct, sharded or declarative)."""
    if call.op == "run_many":
        texts = list(call.texts)
        batched = getattr(predicate, "run_many", None)
        if batched is not None:
            return lambda: batched(
                texts, op=call.batch_op, k=call.k,
                threshold=call.threshold, limit=call.limit,
            )
        single = _predicate_single(predicate, call.batch_op, call)
        return lambda: [single(text) for text in texts]
    single = _predicate_single(predicate, call.op, call)
    text = call.texts[0]
    return lambda: single(text)


def _predicate_single(predicate, op: str, call: Call) -> Callable[[str], object]:
    if op == "top_k":
        return lambda text: predicate.top_k(text, call.k)
    if op == "rank":
        return lambda text: predicate.rank(text, limit=call.limit)
    return lambda text: predicate.select(text, call.threshold)


def _tokenize_op(predicate, call: Call) -> Callable[[], object]:
    tokenizer, texts = predicate.tokenizer, call.texts
    return lambda: [tokenizer.tokenize(text) for text in texts]


def _num_results(call: Call, raw) -> int:
    return sum(len(batch) for batch in raw) if call.op == "run_many" else len(raw)


@dataclass
class Depth:
    """One rung of the ladder: a span name and one callable per call.

    ``fns[i]`` is ``None`` where the rung does not apply to call ``i`` (its
    duration then reads 0).  ``after`` runs right after the span closes, to
    read the counters the call left behind.
    """

    name: str
    parent: Optional[str]
    fns: Sequence[Optional[Callable[[], object]]]
    after: Optional[Callable[[int, object], None]] = None
    #: Time with bare clock reads and record no span (the no-tracing twin).
    untraced: bool = False
    #: A variant of the user-visible call.  The variants lead the ladder and
    #: take turns going first, call by call: a replay runs a few percent
    #: faster the later it comes after the warm-up, and the comparison
    #: between variants must not inherit that.
    variant: bool = False


class _Pass:
    """State shared by the per-workload traced passes."""

    def __init__(self, workload: Workload, log: SpanLog):
        self.workload = workload
        self.log = log
        self.calls = workload.round_calls[:REPLAY_CALLS]
        self.out: Dict[str, float] = {m.name: 0.0 for m in PER_LAYER}
        self.tally = Tally()
        self._calibrator = Calibrator()
        self.slowdowns: List[float] = []

    def read_speed(self) -> None:
        """Note how slow the machine is now (the ladder's times stay raw)."""
        self.slowdowns.append(self._calibrator.slowdown())

    def replay(
        self, depths: Sequence[Depth], warm: Sequence[Callable[[], object]]
    ) -> Dict[str, List[float]]:
        """Replay every call at every depth, the depths of one call back to
        back after one untimed ``warm`` replay of it."""
        self.read_speed()
        durations: Dict[str, List[float]] = {depth.name: [] for depth in depths}
        variants = [depth for depth in depths if depth.variant]
        rest = [depth for depth in depths if not depth.variant]
        for call_id in range(len(self.calls)):
            warm[call_id]()
            shift = call_id % len(variants)
            for depth in variants[shift:] + variants[:shift] + rest:
                fn = depth.fns[call_id]
                if fn is None:
                    durations[depth.name].append(0.0)
                    continue
                if depth.untraced:
                    began = perf_clock()
                    raw = fn()
                    seconds = perf_clock() - began
                else:
                    raw, seconds = self.log.timed(depth.name, depth.parent, call_id, fn)
                durations[depth.name].append(seconds)
                if depth.after is not None:
                    depth.after(call_id, raw)
        return durations

    def top(self, program, references, name: str) -> List[Depth]:
        """The user-visible call twice -- bare, then in a span (its answers
        checked): the ladder's top and the measure of the ledger's own cost."""
        fns = [program.compile(call) for call in self.calls]

        def check(call_id: int, raw) -> None:
            call = self.calls[call_id]
            answers = program.answers(call, raw)
            self.tally.record(references.failures(self.workload, call, answers))

        return [
            Depth(name + "[untraced]", None, fns, untraced=True, variant=True),
            Depth(name, None, fns, after=check, variant=True),
        ]

    def ladder(
        self, names: Sequence[str], durations: Sequence[Sequence[float]]
    ) -> Dict[str, float]:
        """Median self time per rung; records how far they are from summing."""
        summary = ladder_summary(names, durations)
        self.out["trace.ladder_residual_share"] = summary["residual_share"]
        return summary["self"]

    def overhead(self, durations: Dict[str, List[float]], name: str) -> None:
        bare = median(durations[name + "[untraced]"])
        self.out["trace.overhead_share"] = (median(durations[name]) - bare) / bare

    def median_where(self, values: Sequence[float], keep: Callable[[Call], bool]) -> float:
        kept = [v for v, call in zip(values, self.calls) if keep(call)]
        return median(kept) if kept else 0.0


def _fit_phases(workload: Workload, out: Dict[str, float]) -> None:
    """Tokenize / weight phase seconds of every distinct direct predicate."""
    seen = set()
    for target in workload.targets.values():
        key = (target.corpus, target.predicate)
        if target.realization != "direct" or key in seen:
            continue
        seen.add(key)
        timing = time_preprocessing(target.predicate, workload.corpora[target.corpus])
        out["text.tokenize.fit_s"] += timing.tokenization_seconds
        out["core.fit.weight_phase_s"] += timing.weights_seconds


def _untraced_round(p: _Pass, program, references) -> None:
    """One untraced round at the workload's client count: ``call_p99_ms``
    (and, served, the traffic ``GET /metrics`` then reports on)."""
    workload = p.workload
    p.read_speed()
    call_lanes, fn_lanes = lanes_for(workload, program, workload.round_calls)
    run_round([lane[:8] for lane in fn_lanes])  # connections and caches warm
    wall, outs = run_round(fn_lanes)
    good = check_round(workload, program, references, call_lanes, outs, p.tally)
    if good:
        summary = summarize_rounds([Round(wall, good, workload.queries_per_round)])
        p.out["call_p99_ms"] = summary["call_p99_ms"]


def _counters(program: LibraryProgram) -> dict:
    return dict(program.engine.metrics.to_dict()["counters"])


def _engine_counters(p: _Pass, before: dict, after: dict) -> None:
    """Engine-level counts of the replay, from ``engine.metrics`` deltas."""
    def delta(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    hits, fits = delta("cache_hits"), delta("fits_total")
    p.out["engine.cache_hit_share"] = _share(hits, hits + fits)
    numpy_ops = delta("kernel_ops.numpy")
    all_ops = numpy_ops + delta("kernel_ops.python") + delta("kernel_ops.python_fallback")
    p.out["core.kernels.numpy_op_share"] = _share(numpy_ops, all_ops)
    p.out["core.kernels.python_fallbacks"] = delta("kernel_ops.python_fallback")
    p.out["resilience.retries_total"] = after.get("resilience.task_retries", 0)
    p.out["resilience.serial_fallbacks"] = after.get("resilience.serial_fallbacks", 0)


def _fitted(program: LibraryProgram, calls: Sequence[Call]) -> dict:
    """Target name -> its fitted predicate (blocker attached where planned)."""
    return {
        name: program.queries[name].fitted_predicate(
            next(c.threshold for c in calls if c.target == name)
        )
        for name in {c.target for c in calls}
    }


# -- direct library workloads (lib-topk, lib-scan) ----------------------------------


def _trace_direct(p: _Pass, program: LibraryProgram, references) -> None:
    workload, calls, out = p.workload, p.calls, p.out
    _fit_phases(workload, out)
    _untraced_round(p, program, references)

    blocked = [t for t in workload.targets.values() if t.blocker is not None]
    for target in blocked:
        # Detach (a blocker-less query on the same predicate), then time the
        # re-attach: set_blocker() refits the blocker on the relation.
        plain = program.engine.from_strings(workload.corpora[target.corpus])
        plain.predicate(target.predicate).fitted_predicate()
        call = next(c for c in calls if c.target == target.name)
        _, seconds = p.log.timed(
            "blocking.Blocker.fit", None, -1,
            lambda q=program.queries[target.name], c=call: q.fitted_predicate(c.threshold),
        )
        out["blocking.fit_s"] += seconds

    predicates = _fitted(program, calls)
    block_before = {
        t.name: (predicates[t.name].blocker.stats.candidates_in,
                 predicates[t.name].blocker.stats.candidates_out)
        for t in blocked
    }
    scored = results = skipped = opened = 0

    def after(call_id: int, raw) -> None:
        nonlocal scored, results, skipped, opened
        call = calls[call_id]
        if call.op == "run_many":
            return  # a batch leaves no per-query candidate count behind
        predicate = predicates[call.target]
        results += len(raw)
        scored += predicate.last_num_candidates or 0
        pruning = predicate.pruning_stats if call.op == "top_k" else None
        if pruning is not None:
            skipped += pruning.postings_skipped
            opened += pruning.postings_opened

    depths = p.top(program, references, QUERY_OP)
    top_fns = depths[0].fns
    if workload.name == "lib-topk":
        tracer = Tracer()
        activate = program.engine.obs.activate

        def traced(fn: Callable) -> Callable:
            def run():
                with activate(tracer):
                    return fn()
            return run

        depths.append(
            Depth(QUERY_OP + "[tracer on]", None, [traced(fn) for fn in top_fns],
                  untraced=True, variant=True)
        )
    depths += [
        Depth("core.Predicate.op", QUERY_OP,
              [_predicate_op(predicates[c.target], c) for c in calls], after=after),
        Depth("text.Tokenizer.tokenize", "core.Predicate.op",
              [_tokenize_op(predicates[c.target], c) for c in calls]),
    ]
    before = _counters(program)
    took = p.replay(depths, warm=top_fns)
    _engine_counters(p, before, _counters(program))

    p.overhead(took, QUERY_OP)
    selfs = p.ladder(
        ("engine", "core", "text"),
        (took[QUERY_OP], took["core.Predicate.op"], took["text.Tokenizer.tokenize"]),
    )
    out["engine.self_ms"] = _ms(selfs["engine"])
    out["text.tokenize.query_us"] = selfs["text"] * 1e6
    busy = "core.topk.busy_ms" if workload.name == "lib-topk" else "core.scan.busy_ms"
    out[busy] = _ms(median(took["core.Predicate.op"]))
    out["core.topk.postings_skipped_share"] = _share(skipped, skipped + opened)
    out["core.candidates_per_result"] = _share(scored, results)
    for name, (cin, cout) in block_before.items():
        stats = predicates[name].blocker.stats
        out["blocking.reduction_share"] = 1.0 - _share(
            stats.candidates_out - cout, stats.candidates_in - cin
        )
    if workload.name == "lib-topk":
        bare = median(took[QUERY_OP + "[untraced]"])
        out["obs.tracer_on.overhead_share"] = (
            median(took[QUERY_OP + "[tracer on]"]) - bare
        ) / bare


# -- sql-declarative ---------------------------------------------------------------


def _trace_declarative(p: _Pass, program: LibraryProgram, references) -> None:
    workload, calls, out = p.workload, p.calls, p.out
    proxies: Dict[str, TimingBackend] = program.backends
    seen, _ = proxies["sqlite"].drain()
    for name, (began, ended) in program.fit_spans.items():
        p.log.add("declarative.Predicate.preprocess", None, -1, began, ended)
        out["declarative.preprocess_s"] += ended - began
        if workload.targets[name].backend == "sqlite":
            out["backends.sqlite.load_s"] += sum(
                end - start for start, end in seen if began <= start and end <= ended
            )
    _untraced_round(p, program, references)

    predicates = _fitted(program, calls)
    busy: List[float] = []
    parse: List[float] = []
    statements = rows = results = 0

    def drain_all(_call_id: int = 0, _raw: object = None) -> None:
        for proxy in proxies.values():
            proxy.drain()

    def after(call_id: int, raw) -> None:
        nonlocal statements, rows, results
        call = calls[call_id]
        proxy = proxies[workload.targets[call.target].backend]
        intervals, issued = proxy.drain()
        for start, end in intervals:
            p.log.add(f"backends.{proxy.name}.call", "declarative.Predicate.op",
                      call_id, start, end)
        busy.append(sum(end - start for start, end in intervals))
        statements += len(intervals)
        results += _num_results(call, raw)
        stats = predicates[call.target].last_sql_stats
        rows += stats.rows_scored if stats is not None else 0
        if proxy.name != "memory":
            parse.append(0.0)
            return
        began = perf_clock()
        for sql, params in issued:
            parse_statement(sql, tuple(params) if params else None)
        ended = perf_clock()
        p.log.add("dbengine.parser.parse_statement", "backends.memory.call",
                  call_id, began, ended)
        parse.append(ended - began)

    depths = p.top(program, references, QUERY_OP)
    check = depths[1].after

    def check_and_drain(call_id: int, raw) -> None:
        check(call_id, raw)
        drain_all()

    # Whichever variant runs last leaves the proxies empty for the next rung.
    depths[0].after, depths[1].after = drain_all, check_and_drain
    depths.append(
        Depth("declarative.Predicate.op", QUERY_OP,
              [_predicate_op(predicates[c.target], c) for c in calls], after=after)
    )
    before = _counters(program)
    took = p.replay(depths, warm=depths[0].fns)
    _engine_counters(p, before, _counters(program))

    p.overhead(took, QUERY_OP)
    selfs = p.ladder(
        ("engine", "declarative", "backends"),
        (took[QUERY_OP], took["declarative.Predicate.op"], busy),
    )
    out["engine.self_ms"] = _ms(selfs["engine"])
    out["declarative.self_ms"] = _ms(selfs["declarative"])

    def on(backend: str) -> Callable[[Call], bool]:
        return lambda call: workload.targets[call.target].backend == backend

    out["backends.sqlite.busy_ms"] = _ms(p.median_where(busy, on("sqlite")))
    out["dbengine.busy_ms"] = _ms(p.median_where(busy, on("memory")))
    out["dbengine.parse_ms"] = _ms(p.median_where(parse, on("memory")))
    queries = sum(c.num_queries for c in calls)
    out["declarative.statements_per_query"] = _share(statements, queries)
    out["declarative.rows_scored_per_result"] = _share(rows, results)


# -- sharded-topk ------------------------------------------------------------------


def _trace_sharded(p: _Pass, program: LibraryProgram, references) -> None:
    workload, calls, out = p.workload, p.calls, p.out
    _fit_phases(workload, out)
    for began, ended in program.fit_spans.values():
        p.log.add("shard.ShardedPredicate.fit", None, -1, began, ended)
        out["shard.fit_s"] += ended - began
    _untraced_round(p, program, references)

    predicates = _fitted(program, calls)
    # The same plan on the serial executor: what the process pool adds.
    serial = {}
    for target in workload.targets.values():
        if target.executor == "process":
            query = program.engine.from_strings(workload.corpora[target.corpus])
            serial[target.name] = (
                query.predicate(target.predicate)
                .shards(target.shards, executor="serial")
                .fitted_predicate()
            )
    ran = skipped = tasks = tasks_before = 0
    registry = program.engine.metrics

    def after(call_id: int, _raw) -> None:
        nonlocal ran, skipped, tasks
        tasks += registry.value("shard_tasks") - tasks_before
        stats = predicates[calls[call_id].target].shard_stats
        if stats is not None:
            ran += stats.shards_run
            skipped += stats.shards_skipped

    depths = p.top(program, references, QUERY_OP)
    check = depths[1].after

    def mark(_call_id: int = 0, _raw: object = None) -> None:
        nonlocal tasks_before
        tasks_before = registry.value("shard_tasks")

    def check_and_mark(call_id: int, raw) -> None:
        check(call_id, raw)
        mark()

    depths[0].after, depths[1].after = mark, check_and_mark
    depths.append(
        Depth("shard.ShardedPredicate.op", QUERY_OP,
              [_predicate_op(predicates[c.target], c) for c in calls], after=after)
    )
    num_shards = max(len(predicate.shards) for predicate in predicates.values())
    for index in range(num_shards):
        depths.append(
            Depth(f"core.Predicate.op[shard {index}]", "shard.ShardedPredicate.op",
                  [_predicate_op(predicates[c.target].shards[index], c)
                   if index < len(predicates[c.target].shards) else None
                   for c in calls])
        )
    depths.append(
        Depth("shard.ShardedPredicate.op[serial]", QUERY_OP,
              [_predicate_op(serial[c.target], c) if c.target in serial else None
               for c in calls])
    )
    before = _counters(program)
    took = p.replay(depths, warm=depths[0].fns)
    _engine_counters(p, before, _counters(program))

    p.overhead(took, QUERY_OP)
    slowest = [
        max(took[f"core.Predicate.op[shard {index}]"][i] for index in range(num_shards))
        for i in range(len(calls))
    ]
    selfs = p.ladder(
        ("engine", "shard", "core"),
        (took[QUERY_OP], took["shard.ShardedPredicate.op"], slowest),
    )
    out["engine.self_ms"] = _ms(selfs["engine"])
    out["shard.self_ms"] = _ms(selfs["shard"])
    out["core.topk.busy_ms"] = _ms(selfs["core"])
    out["shard.skipped_share"] = _share(skipped, ran + skipped)
    out["shard.tasks_per_query"] = _share(tasks, sum(c.num_queries for c in calls))
    roundtrip = [
        pooled - inline
        for pooled, inline, call in zip(
            took["shard.ShardedPredicate.op"],
            took["shard.ShardedPredicate.op[serial]"], calls,
        )
        if call.target in serial
    ]
    out["shard.process.roundtrip_ms"] = _ms(median(roundtrip)) if roundtrip else 0.0


# -- served-topk -------------------------------------------------------------------


def _service_from_cli_defaults() -> SimilarityService:
    """The service ``repro.cli serve`` builds when given no flags."""
    args = build_parser().parse_args(["serve"])
    return SimilarityService(
        max_concurrency=args.max_concurrency,
        max_queue=args.max_queue,
        default_timeout=args.timeout,
        batch_window=args.batch_window,
        batch_max=args.batch_max,
        max_corpora=args.max_corpora,
        breaker_threshold=args.breaker_threshold,
        breaker_reset=args.breaker_reset,
        drain_timeout=args.drain_timeout,
    )


def _served_counters(p: _Pass, served: dict) -> None:
    """What ``GET /metrics`` says after a round of two-client traffic."""
    out = p.out
    counters, gauges, histograms = (
        served["counters"], served["gauges"], served["histograms"]
    )
    out["serve.batcher.mean_batch_size"] = _share(
        counters.get("serve.batched_queries_total", 0),
        counters.get("serve.batches_total", 0),
    )
    wait = histograms.get("latency.serve.admission_wait", {})
    out["serve.admission.wait_mean_ms"] = _ms(
        _share(wait.get("sum", 0.0), wait.get("count", 0))
    )
    out["serve.queue_depth_high_water"] = gauges.get("serve.queue_depth", {}).get(
        "high_water", 0
    )
    out["serve.errors_total"] = counters.get("serve.errors_total", 0)
    out["resilience.retries_total"] = counters.get("resilience.task_retries", 0)
    out["resilience.serial_fallbacks"] = counters.get("resilience.serial_fallbacks", 0)
    hits, fits = counters.get("cache_hits", 0), counters.get("fits_total", 0)
    out["engine.cache_hit_share"] = _share(hits, hits + fits)
    out["engine.fits_total"] = fits


def _trace_served(p: _Pass, program: ServedProgram, references) -> None:
    workload, calls, out = p.workload, p.calls, p.out
    _untraced_round(p, program, references)
    _served_counters(p, program.metrics())

    # The same pipeline in-process, built from the CLI's defaults, on a
    # loop of its own so that handle() can be awaited one call at a time.
    (strings,) = workload.corpora.values()
    service = _service_from_cli_defaults()
    loop = asyncio.new_event_loop()
    try:
        corpus_id, _, _ = service.register_corpus(strings)
        payloads = [
            {"corpus_id": corpus_id, "text": c.texts[0], **program.options(c)} for c in calls
        ]
        entry = service.corpus(corpus_id)
        queries = {
            name: entry.engine.from_strings(entry.strings).predicate(target.predicate)
            for name, target in workload.targets.items()
        }
        predicates = {
            name: queries[name].fitted_predicate(
                next(c.threshold for c in calls if c.target == name)
            )
            for name in queries
        }
        timeout = service.default_timeout
        requests = [parse_query_request(payload, timeout) for payload in payloads]
        matches: Dict[int, object] = {}

        def handled(_call_id: int, envelope: dict) -> None:
            p.tally.record(int(envelope["status"] != 200))

        run_many = [
            (lambda q=queries[c.target], c=c: q.run_many(
                [c.texts[0]], op=c.op, k=c.k, threshold=c.threshold, limit=c.limit))
            for c in calls
        ]
        http = "serve.ServeClient.query"
        handle = "serve.SimilarityService.handle"
        depths = p.top(program, references, http)
        depths += [
            Depth(handle, http,
                  [(lambda payload=payload: loop.run_until_complete(service.handle(payload)))
                   for payload in payloads], after=handled),
            Depth("engine.Query.run_many", handle, run_many,
                  after=lambda call_id, raw: matches.__setitem__(call_id, raw[0])),
            Depth("core.Predicate.op", "engine.Query.run_many",
                  [_predicate_op(predicates[c.target], c) for c in calls]),
            Depth("text.Tokenizer.tokenize", "core.Predicate.op",
                  [_tokenize_op(predicates[c.target], c) for c in calls]),
            Depth("serve.protocol.parse_query_request", handle,
                  [(lambda payload=payload: parse_query_request(payload, timeout))
                   for payload in payloads]),
            Depth("serve.protocol.result_envelope+json.dumps", handle,
                  [(lambda i=i: json.dumps(
                      result_envelope(requests[i], matches[i], 1, 0.0), sort_keys=True))
                   for i in range(len(calls))]),
        ]
        top_fns = depths[0].fns
        took = p.replay(
            depths,
            warm=[(lambda a=a, b=b: (a(), b())) for a, b in zip(top_fns, run_many)],
        )
    finally:
        service.close()
        loop.close()

    p.overhead(took, http)
    selfs = p.ladder(
        ("http", "pipeline", "engine", "core", "text"),
        (took[http], took[handle], took["engine.Query.run_many"],
         took["core.Predicate.op"], took["text.Tokenizer.tokenize"]),
    )
    out["serve.http.self_ms"] = _ms(selfs["http"])
    out["serve.pipeline.self_ms"] = _ms(selfs["pipeline"])
    out["engine.self_ms"] = _ms(selfs["engine"])
    out["text.tokenize.query_us"] = selfs["text"] * 1e6
    core = took["core.Predicate.op"]
    out["core.topk.busy_ms"] = _ms(p.median_where(core, lambda c: c.op == "top_k"))
    out["core.scan.busy_ms"] = _ms(p.median_where(core, lambda c: c.op != "top_k"))
    out["serve.protocol.parse_us"] = (
        median(took["serve.protocol.parse_query_request"]) * 1e6
    )
    out["serve.protocol.encode_us"] = (
        median(took["serve.protocol.result_envelope+json.dumps"]) * 1e6
    )


# -- entry point -------------------------------------------------------------------

_TRACERS = {
    "lib-topk": _trace_direct,
    "lib-scan": _trace_direct,
    "sql-declarative": _trace_declarative,
    "sharded-topk": _trace_sharded,
    "served-topk": _trace_served,
}


def run(workload: Workload, log: SpanLog):
    """Per-layer metrics of one workload; returns ``(metrics, tally)``."""
    backends = None
    if workload.name == "sql-declarative":
        backends = {
            "sqlite": TimingBackend(SQLiteBackend()),
            "memory": TimingBackend(MemoryBackend()),
        }
    program = make_program(workload, backends)
    p = _Pass(workload, log)
    try:
        first = program.start()
        if isinstance(program, LibraryProgram):
            p.out["engine.fits_total"] = program.engine.metrics.value("fits_total")
        references = build_references(workload, program)
        for call, answers in first:
            p.tally.record(references.failures(workload, call, answers))
        _TRACERS[workload.name](p, program, references)
    finally:
        program.close()
    p.out["failed_share"] = p.tally.failed_share
    p.out["bench.machine_slowdown"] = median(p.slowdowns)
    return p.out, p.tally
