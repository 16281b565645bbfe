"""Workload ``serve_classroom``: a served classroom, in three phases.

A separate ``repro serve --port 0 --cache-dir ...`` process (threads,
no pool) is driven by closed-loop clients from this process.  Each
round runs three phases, so hit latency never waits on the GIL behind
misses:

- *cold*: new ``/run`` requests over two connections, a mix of the
  class's flags and scenarios;
- *warm*: the same requests again, three times over one connection,
  every one a cache hit (with two, a hit's latency depended on whether
  it waited for the interpreter lock behind the other connection's
  hit, and moved by a quarter between runs);
- *stream*: new streamed runs over one connection, each a ``POST /run
  {stream: true}`` followed by ``GET /stream`` up to the terminal frame.

A served ``/run`` is one trial (``n_trials=1``), so seeding plays no
part here, and warm requests skip the engine entirely.

Checks: each cold payload is byte-identical to an in-process
``run_trial`` of the same task; each warm reply is ``cached`` and
equal to its cold reply; each feed reassembles without a gap and its
text equals the in-process trial's trace.

The traced run reads the server's own ``/metrics`` for batching,
server-side latency and stream counters, and replays the same request
sequence through an in-process ``BackgroundServer`` under the layer
wrappers for the per-layer self times.
"""

from __future__ import annotations

import contextlib
import json
import re
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from harness import SETUP_STARTS, Context, Ledger, dir_bytes, median, \
    peak_rss_mb, percentile, start_child, stop_child, timed_rounds
from layers import LayerTracer, per
import targets

#: (flag, scenario) shapes the class asks for, in turn.
MENU = (("poland", 3), ("mauritius", 4), ("france", 1), ("germany", 2),
        ("italy", 3), ("japan", 4))
COLD_REQUESTS = 120
WARM_PASSES = 3
STREAMS = 12
COLD_CONNECTIONS = 2
REPLAYED_ROUNDS = 2  # rounds the in-process replay runs, per side

_READY = re.compile(r"serving on http://([\d.]+):(\d+)")
_SAMPLE = re.compile(r"^([A-Za-z_:][\w:]*)(\{[^}]*\})?\s+(\S+)$")


def _sizes(ctx: Context) -> Tuple[int, int]:
    return (6, 2) if ctx.tiny else (COLD_REQUESTS, STREAMS)


def _bodies(ctx: Context, r: int) -> Tuple[List[Dict], List[Dict]]:
    """Round ``r``'s cold request bodies and streamed bodies.

    Seeds are distinct across the whole run, so every cold and
    streamed request is new to the server's cache.
    """
    n_cold, n_stream = _sizes(ctx)
    base = int(ctx.rng(1).integers(0, 2**30)) + r * (n_cold + n_stream)
    cold = [{"flag": MENU[i % len(MENU)][0],
             "scenario": MENU[i % len(MENU)][1], "seed": base + i}
            for i in range(n_cold)]
    streamed = [{"flag": MENU[i % len(MENU)][0],
                 "scenario": MENU[i % len(MENU)][1],
                 "seed": base + n_cold + i, "stream": True}
                for i in range(n_stream)]
    return cold, streamed


def parse_metrics(text: str) -> Dict[Tuple[str, str], float]:
    """Prometheus exposition text -> {(name, labels): value}."""
    out: Dict[Tuple[str, str], float] = {}
    for line in text.splitlines():
        m = _SAMPLE.match(line.strip())
        if m and not line.startswith("#"):
            out[(m.group(1), m.group(2) or "")] = float(m.group(3))
    return out


def _delta(after: Dict, before: Dict, name: str, labels: str = "") -> float:
    return after.get((name, labels), 0.0) - before.get((name, labels), 0.0)


def _histogram_p50(after: Dict, before: Dict, name: str,
                   endpoint: str) -> float:
    """Median of one histogram series between two snapshots.

    Linear interpolation inside the crossing bucket, the estimate
    Prometheus's ``histogram_quantile`` makes.
    """
    buckets = []
    for (metric, labels), _ in after.items():
        if metric == name + "_bucket" and f'endpoint="{endpoint}"' in labels:
            le = re.search(r'le="([^"]+)"', labels).group(1)
            if le != "+Inf":
                buckets.append((float(le), _delta(after, before, metric,
                                                  labels)))
    buckets.sort()
    total = _delta(after, before, name + "_count",
                   f'{{endpoint="{endpoint}"}}')
    if not total:
        return 0.0
    rank, lo, prev = total / 2, 0.0, 0.0
    for le, count in buckets:
        if count >= rank:
            width = count - prev
            return lo + (le - lo) * ((rank - prev) / width if width else 0)
        lo, prev = le, count
    return buckets[-1][0]


class _Phases:
    """Drives one server through rounds of cold, warm and stream phases."""

    def __init__(self, ctx: Context, ledger: Ledger,
                 client_factory) -> None:
        self.ctx = ctx
        self.ledger = ledger
        self.client = client_factory
        self.paused = contextlib.nullcontext
        self.cold_rates: List[float] = []
        self.warm_rates: List[float] = []
        self.cold_ms: List[float] = []
        self.warm_ms: List[float] = []
        self.first_ms: List[float] = []
        self.feed_ms: List[float] = []
        self.round_s: List[float] = []
        self.computed = 0
        self.feeds = 0
        self.snapshots: List[Dict[str, Dict]] = []

    def _closed_loop(self, bodies: List[Dict], connections: int
                     ) -> Tuple[float, List, List]:
        """Send ``bodies`` over ``connections`` closed-loop clients."""
        from repro.serve.protocol import PROTOCOL_VERSION

        replies: List[Optional[Dict]] = [None] * len(bodies)
        latencies: List[float] = [0.0] * len(bodies)
        cursor = iter(range(len(bodies)))
        lock = threading.Lock()

        def client() -> None:
            handle = self.client()
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                t0 = time.perf_counter()
                try:
                    # Raw bytes: the reply is parsed after the phase, so
                    # client-side JSON work never holds this process's
                    # GIL while the other connection's reply arrives.
                    replies[i] = handle.request(
                        "POST", "/run",
                        {**bodies[i], "protocol": PROTOCOL_VERSION})
                except OSError:
                    pass  # no reply: the checks count it as failed
                latencies[i] = time.perf_counter() - t0

        threads = [threading.Thread(target=client, daemon=True,
                                    name=f"client-{c}")
                   for c in range(connections)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        wall = time.perf_counter() - t0
        if any(t.is_alive() for t in threads):
            raise RuntimeError("a closed-loop client did not finish")
        decoded = [json.loads(reply[2]) if reply and reply[0] == 200
                   else None for reply in replies]
        return wall, decoded, latencies

    def _stream(self, body: Dict) -> Tuple[float, float, List, Dict]:
        handle = self.client()
        t0 = time.perf_counter()
        started = handle.run(**body)
        events = []
        first = 0.0
        for event in handle.stream(started["stream"]):
            if not events:
                first = time.perf_counter() - t0
            events.append(event)
        return first, time.perf_counter() - t0, events, started

    def snapshot(self) -> Dict:
        return parse_metrics(self.client().metrics())

    def round(self, r: int, *, server_metrics: bool = False) -> float:
        cold_bodies, stream_bodies = _bodies(self.ctx, r)
        warm_passes = 1 if self.ctx.tiny else WARM_PASSES
        self.ledger.attempt((1 + warm_passes) * len(cold_bodies)
                            + len(stream_bodies))
        snaps = {"start": self.snapshot()} if server_metrics else {}
        cold_s, cold, cold_lat = self._closed_loop(cold_bodies,
                                                   COLD_CONNECTIONS)
        if server_metrics:
            snaps["cold"] = self.snapshot()
        warm = []
        warm_s = 0.0
        for _ in range(warm_passes):
            pass_s, replies, warm_lat = self._closed_loop(cold_bodies, 1)
            warm_s += pass_s
            warm.append(replies)
            self.warm_rates.append(len(cold_bodies) / pass_s)
            self.warm_ms += [x * 1e3 for x in warm_lat]
        if server_metrics:
            snaps["warm"] = self.snapshot()
        t0 = time.perf_counter()
        feeds = [self._stream(body) for body in stream_bodies]
        stream_s = time.perf_counter() - t0
        if server_metrics:
            snaps["stream"] = self.snapshot()
            self.snapshots.append(snaps)
        self.cold_rates.append(len(cold_bodies) / cold_s)
        self.cold_ms += [x * 1e3 for x in cold_lat]
        self.first_ms += [f[0] * 1e3 for f in feeds]
        self.feed_ms += [f[1] * 1e3 for f in feeds]
        self.computed += len(cold_bodies) + len(stream_bodies)
        self.feeds += len(feeds)
        measured = cold_s + warm_s + stream_s
        self.round_s.append(measured)
        with self.paused():
            self.check(r, cold_bodies, cold, warm, stream_bodies, feeds)
        return measured

    def check(self, r: int, cold_bodies, cold, warm, stream_bodies,
              feeds) -> None:
        from repro.serve.protocol import RunRequest, dumps
        from repro.stream import StreamProtocolError, reassemble_feed
        from repro.sweep import run_trial

        check = self.ledger.check
        if self.ctx.plant == "uncached_hit" and warm[0][0] is not None:
            warm[0][0] = {**warm[0][0], "cached": False}
        if self.ctx.plant == "drop_frame":
            events = feeds[0][2]
            del events[len(events) // 2]
        for i, body in enumerate(cold_bodies):
            op = (r, "cold", i)
            reply = cold[i]
            if not check(reply is not None, op, "request failed"):
                continue
            local = run_trial(RunRequest.from_body(dict(body)).task())
            check(reply["cached"] is False, op, "cold reply came cached")
            check(dumps(reply["trial"]) == dumps(local), op,
                  f"served payload != in-process run_trial ({body})")
            for w, replies in enumerate(warm):
                op = (r, "warm", w, i)
                hit = replies[i]
                if not check(hit is not None, op, "request failed"):
                    continue
                check(hit["cached"] is True, op,
                      "warm reply not from cache")
                check(hit["trial"] == reply["trial"], op,
                      "warm reply differs from the cold one")
        for k, (body, (_, _, events, started)) in enumerate(
                zip(stream_bodies, feeds)):
            op = (r, "stream", k)
            local = run_trial(RunRequest.from_body(
                {**body, "stream": False}).task())
            try:
                texts = reassemble_feed(events)
            except StreamProtocolError as exc:
                check(False, op, f"feed did not reassemble: {exc}")
                continue
            check(bool(events) and events[-1].kind == "end"
                  and events[-1].data.get("status") == "ok"
                  and started["cached"] is False, op,
                  "feed did not end cleanly on a fresh run")
            want = {label: run["trace"]
                    for label, run in local["runs"].items()}
            check(texts == want, op,
                  "streamed event log != in-process trace")


def _start_servers(ctx: Context, cache_dir) -> Tuple[float, Any, Tuple]:
    """Time fresh server starts; keep the last one running."""
    starts = 2 if ctx.tiny else SETUP_STARTS
    samples = []
    proc = None
    for k in range(starts):
        if proc is not None:
            stop_child(proc)
        target = cache_dir if k == starts - 1 else ctx.subdir(f"boot-{k}")
        proc, elapsed, line = start_child(
            ctx, ["-m", "repro", "serve", "--port", "0",
                  "--cache-dir", str(target)], "serving on")
        samples.append(elapsed)
    m = _READY.search(line)
    return median(samples), proc, (m.group(1), int(m.group(2)))


def _served(ctx: Context, ledger: Ledger, seconds: float, *,
            server_metrics: bool):
    """Run the phases against a ``repro serve`` process."""
    from repro.serve import ServeClient

    cache_dir = ctx.subdir("serve-cache")
    setup_s, proc, (host, port) = _start_servers(ctx, cache_dir)
    try:
        phases = _Phases(ctx, ledger,
                         lambda: ServeClient(host, port, timeout_s=60))
        budget = Context(**{**ctx.__dict__, "seconds": seconds})
        timed_rounds(budget, lambda r: phases.round(
            r, server_metrics=server_metrics))
        rss = peak_rss_mb(proc.pid)
        kb_per_trial = dir_bytes(cache_dir) / 1024 / phases.computed
    finally:
        code = stop_child(proc)
    if code != 0:
        raise RuntimeError(f"repro serve exited {code} on SIGTERM")
    return phases, setup_s, rss, kb_per_trial


def measure(ctx: Context, ledger: Ledger) -> Dict[str, float]:
    """Untraced run: every end-to-end metric."""
    phases, setup_s, rss, kb_per_trial = _served(ctx, ledger, ctx.seconds,
                                                 server_metrics=False)
    return {
        "setup_s": setup_s,
        "trials_per_s": median(phases.cold_rates),
        "warm_trials_per_s": median(phases.warm_rates),
        "run_p50_ms": median(phases.cold_ms),
        "hit_p50_ms": median(phases.warm_ms),
        "peak_rss_mb": rss,
        "cache_kb_per_trial": kb_per_trial,
    }


def _install_serve(tracer: LayerTracer) -> None:
    """Wrap the serve and stream layers (the trial path comes from
    :data:`targets.REFERENCE`)."""
    submitted: Dict[int, float] = {}

    def submit(orig):
        async def wrapper(self, task):
            if tracer.active:
                submitted[id(task)] = time.perf_counter()
            return await orig(self, task)
        return wrapper

    def run_batch(orig):
        def wrapper(tasks):
            now = time.perf_counter()
            for task in tasks:
                queued = submitted.pop(id(task), None)
                if queued is not None:
                    tracer.record("serve.batcher:wait", queued, now)
            return orig(tasks)
        return wrapper

    def run_trial(orig):
        served = tracer.timed(orig, "serve.engine:run_trial")
        streamed = tracer.timed(orig, "stream.engine:run_trial")

        def wrapper(task, observer_factory=None):
            if observer_factory is None:
                return served(task)
            return streamed(task, observer_factory=observer_factory)
        return wrapper

    tracer.patch("repro.serve.batcher:MicroBatcher.submit", submit)
    tracer.patch("repro.serve.batcher:run_batch", run_batch)
    tracer.patch("repro.sweep.executor:run_trial", run_trial)
    tracer.wrap("repro.serve.protocol:RunRequest.from_body",
                "serve.protocol:RunRequest.from_body")
    tracer.wrap("repro.serve.handlers:run_response",
                "serve.encode:run_response")
    tracer.wrap("repro.serve.server:_response_bytes",
                "serve.encode:_response_bytes")
    tracer.wrap("repro.serve.handlers:run_streamed_trial",
                "stream.runner:run_streamed_trial")
    tracer.wrap("repro.stream.bus:RunStream.publish",
                "stream.bus:RunStream.publish")
    tracer.wrap("repro.serve.server:encode_sse",
                "stream.protocol:encode_sse")


def _replay(ctx: Context, ledger: Ledger, rounds: int,
            tracer: Optional[LayerTracer]) -> _Phases:
    """The served sequence through an in-process ``BackgroundServer``."""
    from repro.serve import BackgroundServer, ServeConfig

    tag = "traced" if tracer else "plain"
    config = ServeConfig(cache_dir=str(ctx.subdir(f"replay-{tag}")))
    with BackgroundServer(config) as server:
        phases = _Phases(ctx, ledger, server.client)
        if tracer is not None:
            phases.paused = tracer.paused
        for r in range(rounds):
            phases.round(r)
    return phases


def breakdown(ctx: Context, ledger: Ledger, chrome_path) -> Dict[str, float]:
    """Traced run: server counters, then in-process layer self times."""
    served, _, _, kb_per_trial = _served(ctx, ledger, ctx.seconds / 2,
                                         server_metrics=True)
    batch_sum = batch_n = frames = server_s = server_n = 0.0
    hits = lookups = 0.0
    for snaps in served.snapshots:
        start, cold, stream = snaps["start"], snaps["cold"], snaps["stream"]
        batch_sum += _delta(cold, start, "serve_batch_size_sum")
        batch_n += _delta(cold, start, "serve_batch_size_count")
        server_s += _delta(cold, start, "serve_request_latency_seconds_sum",
                           '{endpoint="/run"}')
        server_n += _delta(cold, start,
                           "serve_request_latency_seconds_count",
                           '{endpoint="/run"}')
        frames += _delta(stream, snaps["warm"],
                         "stream_frames_published_total")
        hit = _delta(stream, start, "serve_cache_hits_total")
        hits += hit
        lookups += hit + _delta(stream, start, "serve_cache_misses_total")
    server_p50 = 1e3 * median([
        _histogram_p50(s["cold"], s["start"],
                       "serve_request_latency_seconds", "/run")
        for s in served.snapshots])
    last = served.snapshots[-1]["stream"]
    dropped = last.get(("stream_dropped_frames_total", ""), 0.0)

    rounds = 1 if ctx.tiny else REPLAYED_ROUNDS
    plain = _replay(ctx, ledger, rounds, None)
    with LayerTracer() as tracer:
        targets.install(tracer, targets.REFERENCE)
        _install_serve(tracer)
        traced = _replay(ctx, ledger, rounds, tracer)
        tracer.write_chrome(chrome_path, process_name="serve_classroom")
    figures = targets.trial_layers(tracer, trials=traced.computed,
                                   cells=0)
    responses = tracer.n_calls("serve.encode:_response_bytes")
    figures.update({
        "sweep.cache.bytes_per_trial": kb_per_trial * 1024,
        "serve.batch_size_mean": per(batch_sum, batch_n),
        "serve.server_p50_ms": server_p50,
        "serve.client_overhead_ms": (sum(served.cold_ms)
                                     / len(served.cold_ms)
                                     - 1e3 * per(server_s, server_n)),
        "serve.run_p90_ms": percentile(served.cold_ms, 0.9),
        "serve.cache_hits_per_lookup": per(hits, lookups),
        "stream.first_frame_p50_ms": median(served.first_ms),
        "stream.feed_p50_ms": median(served.feed_ms),
        "stream.frames_per_feed": per(frames, served.feeds),
        "stream.dropped_frames": dropped,
        "serve.protocol.decode_ms": per(
            tracer.self_ms("serve.protocol:RunRequest.from_body"),
            tracer.n_calls("serve.protocol:RunRequest.from_body")),
        "serve.batcher.wait_ms": per(
            tracer.self_ms("serve.batcher:wait"),
            tracer.n_calls("serve.batcher:wait")),
        "serve.engine.ms_per_request": per(
            tracer.total_ms("serve.engine:run_trial"),
            tracer.n_calls("serve.engine:run_trial")),
        "serve.encode_ms_per_request": per(
            tracer.self_ms("serve.encode:run_response",
                           "serve.encode:_response_bytes"), responses),
        "stream.runner.ms_per_feed": per(
            tracer.total_ms("stream.runner:run_streamed_trial"),
            tracer.n_calls("stream.runner:run_streamed_trial")),
        "stream.publish_us_per_frame": 1e3 * per(
            tracer.self_ms("stream.bus:RunStream.publish"),
            tracer.n_calls("stream.bus:RunStream.publish")),
        "stream.encode_us_per_frame": 1e3 * per(
            tracer.self_ms("stream.protocol:encode_sse"),
            tracer.n_calls("stream.protocol:encode_sse")),
        "trace.overhead_pct": 100.0 * (
            median(traced.round_s) / median(plain.round_s) - 1.0),
    })
    return figures
