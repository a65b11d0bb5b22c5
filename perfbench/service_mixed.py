"""``service-mixed``: the front door, open loop over a Unix socket.

A ``freqywm serve --socket --vault DIR --secret F`` process is spawned
during set-up. Requests arrive at a seeded Poisson rate, fixed at
reference machine speed and below the knee, and each is timed from its
scheduled send time, so a stall shows in the requests queued behind it.
The mix by count:

* 85 % ``detect`` by fingerprint of ``F`` (paper-scale counts);
* 10 % ``attribute`` of a leaked copy against a 256-buyer vault;
* 2 % ``embed`` (histogram-only, 100k samples, explicit secret);
* 2 % ``register`` of a new buyer;
* 1 % oversize ``detect`` (5,000 distinct tokens, ~80 KB line), each on
  a connection of its own. The server drops these today (its 64 KiB
  line limit), so they are probes counted apart as
  ``server.oversize_dropped``, not ops of the timed mix.

Request lines are encoded before the run. One sender and one receiver
thread share at most two connections. Service, wire, detector cache
and coalescing are crossed, with embed beside detect and register
beside attribute. Every answer is checked against its in-process
verdict. The end-to-end latencies come from a replay of half the
schedule, one request at a time, through an in-process
``SyncDetectionService`` (see :func:`library_phase`).
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import selectors
import shutil
import socket
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import (
    Outcome,
    Recorder,
    Speed,
    check,
    distinct_secrets,
    median_self_ms,
    p50,
    p95,
    peak_rss_mb,
    seeded,
    spawn_cli,
    steal_seconds,
    stop,
    unattributed_pct,
    write_trace,
)
from fixtures import (
    PAPER_SAMPLES,
    SMALL_SAMPLES,
    LinearAttribution,
    StagedAttribution,
    build_vault,
    sample_histograms,
    scheduler_counters,
)
from repro.core.batch import detect_many
from repro.core.config import DetectionConfig, GenerationConfig
from repro.core.detector import WatermarkDetector
from repro.core.generator import WatermarkGenerator
from repro.core.histogram import TokenHistogram
from repro.core.secrets import WatermarkSecret
from repro.dispute.vault import SecretVault
from repro.service.service import ServiceConfig, SyncDetectionService
from repro.service.wire import (
    AttributeRequest,
    DetectRequest,
    EmbedRequest,
    RegisterRequest,
    StatsRequest,
    decode_request,
    decode_response,
    encode_line,
)

RATE = 100.0  # requests per second at reference speed
MIX = (("detect", 0.85), ("attribute", 0.10), ("embed", 0.02), ("register", 0.02), ("oversize", 0.01))
VAULT_SIZE = 256
#: Thresholds the server applies to fingerprint detects (CLI defaults).
DETECTION = DetectionConfig()
SUSPECTS = 16
EMBED_INPUTS = 16
OVERSIZE_TOKENS = 5000
SETUP_ROUNDS = 3
TRACED_SECONDS = 10
#: The server's coalescing window (``--max-delay-ms``), passed explicitly.
COALESCING_WINDOW_S = 0.002
#: Open-loop rounds; the server idles between them while the gauge runs.
ROUNDS = 30
GAUGE_SAMPLES = 12
PRE_GAUGE_SAMPLES = 60
#: A generator this late (95th percentile, ms) invalidates the run.
MAX_SEND_LAG_MS = 100.0


class Fixture:
    """Owner secret, suspects, vault and the encoded request schedule."""

    def __init__(self, seed: int, work: Path, seconds: int) -> None:
        rng = seeded(seed, "service-mixed")
        owner_data = sample_histograms(seed, "service-owner", 1, PAPER_SAMPLES)[0]
        owner = WatermarkGenerator(GenerationConfig(), rng=rng.getrandbits(63)).generate(
            owner_data, secret_value=rng.getrandbits(256)
        )
        self.secret = owner.secret
        self.secret_path = work / "owner.json"
        self.secret.save(self.secret_path)
        self.fingerprint = self.secret.fingerprint()
        # Half the suspects are the watermarked data with noise on tokens
        # outside the secret's pairs, half are fresh samples.
        protected = {token for pair in self.secret.pairs for token in (pair.first, pair.second)}
        noise = np.random.default_rng(rng.getrandbits(63))
        self.suspects: List[Dict[str, int]] = []
        fresh = sample_histograms(seed, "service-fresh", SUSPECTS // 2, PAPER_SAMPLES)
        for index in range(SUSPECTS // 2):
            counts = owner.watermarked_histogram.as_dict()
            for token in counts:
                if token not in protected:
                    counts[token] += int(noise.integers(0, 3))
            self.suspects.append(counts)
            self.suspects.append(fresh[index].as_dict())
        self.embed_inputs = [
            h.as_dict() for h in sample_histograms(seed, "service-embed", EMBED_INPUTS, SMALL_SAMPLES)
        ]
        self.oversize = {f"big-{i:05d}": int(noise.integers(1, 1000)) for i in range(OVERSIZE_TOKENS)}
        kinds = stratified_kinds(rng, int(RATE * seconds))
        self.vault = build_vault(seed, work / "vault", newcomers=kinds.count("register"), size=VAULT_SIZE)
        self.live_vault = work / "vault-live"
        shutil.copytree(self.vault.directory, self.live_vault)
        offset = 0.0
        values = iter(distinct_secrets(rng, kinds.count("embed")))
        registered = 0
        self.schedule: List[Tuple[float, str, str, object]] = []
        for index, kind in enumerate(kinds):
            offset += rng.expovariate(RATE)
            request_id = f"{kind[0]}{index}"
            if kind in ("detect", "oversize"):
                subject = rng.randrange(SUSPECTS) if kind == "detect" else -1
                counts = self.suspects[subject] if kind == "detect" else self.oversize
                request = DetectRequest(request_id, counts=counts, secret_fingerprint=self.fingerprint)
            elif kind == "attribute":
                subject = rng.randrange(len(self.vault.leaks))
                request = AttributeRequest(request_id, counts=self.vault.leaks[subject].as_dict())
            elif kind == "embed":
                subject = (rng.randrange(EMBED_INPUTS), next(values), rng.getrandbits(31))
                request = EmbedRequest(
                    request_id,
                    counts=self.embed_inputs[subject[0]],
                    seed=subject[2],
                    secret_value=subject[1],
                )
            else:
                subject = registered
                buyer_id, secret = self.vault.newcomers[registered]
                request = RegisterRequest(request_id, buyer_id=buyer_id, secret=secret.to_dict())
                registered += 1
            line = (encode_line(request) + "\n").encode("utf-8")
            self.schedule.append((offset, kind, request_id, (subject, line)))


def stratified_kinds(rng: random.Random, count: int) -> List[str]:
    """Request classes in arrival order, each rarer class spread evenly.

    Arrivals stay Poisson; only the class sequence is stratified: the
    ``i``-th request of a class with ``c`` requests lands at a random
    slot of the ``i``-th of ``c`` equal stretches. A plain shuffle lets
    the few heavy requests (embeds) bunch up in one run and spread out
    in the next, which moves the detect tail from seed to seed.
    """
    kinds = ["detect"] * count
    for kind, share in MIX[1:]:
        total = max(1, round(share * count))
        for index in range(total):
            slot = int((index + rng.random()) * count / total)
            while kinds[slot % count] != "detect":
                slot += 1
            kinds[slot % count] = kind
    return kinds


def connect(address: str, timeout: float = 30.0) -> socket.socket:
    """Connect to the server's socket, retrying until it listens."""
    deadline = time.monotonic() + timeout
    while True:
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            client.connect(address)
            return client
        except OSError:
            client.close()
            if time.monotonic() > deadline:
                raise
            time.sleep(0.005)


def ask(client: socket.socket, line: bytes) -> dict:
    """Closed-loop request: send one line, read one response line."""
    client.sendall(line)
    buffer = b""
    while not buffer.endswith(b"\n"):
        chunk = client.recv(1 << 16)
        if not chunk:
            raise RuntimeError("server closed the connection")
        buffer += chunk
    return json.loads(buffer)


class Server:
    """One spawned ``freqywm serve`` and the time it took to answer."""

    def __init__(self, fixture: Fixture, work: Path, round_index: int) -> None:
        socket_path = (work / f"serve{round_index}.sock").relative_to(Path.cwd())
        self.address = str(socket_path)
        start = time.perf_counter()
        self.process = spawn_cli(
            [
                "serve",
                "--socket",
                self.address,
                "--vault",
                str(fixture.live_vault.relative_to(Path.cwd())),
                "--secret",
                str(fixture.secret_path.relative_to(Path.cwd())),
                "--max-delay-ms",
                str(1000 * COALESCING_WINDOW_S),
            ],
            work / f"serve{round_index}.log",
        )
        try:
            client = connect(self.address)
            first = DetectRequest("first", counts=fixture.suspects[0], secret_fingerprint=fixture.fingerprint)
            answer = ask(client, (encode_line(first) + "\n").encode())
            self.setup_seconds = time.perf_counter() - start
            client.close()
            check(answer.get("ok") is True, f"first request failed: {answer}")
        except BaseException:
            stop(self.process)
            raise

    def stats(self) -> dict:
        client = connect(self.address)
        try:
            return ask(client, (encode_line(StatsRequest("stats")) + "\n").encode())
        finally:
            client.close()

    def close(self) -> None:
        stop(self.process)


class OpenLoop:
    """Send a schedule at its due times and collect every response.

    The sender thread writes each line when it is due (oversize lines on
    a fresh connection); the receiver thread reads responses and the
    oversize connections' outcomes. Each request is timed from its due
    time.
    """

    def __init__(self, address: str, schedule: List[Tuple[float, str, str, object]]) -> None:
        self.address = address
        self.schedule = schedule
        self.sent: Dict[str, float] = {}
        self.received: Dict[str, Tuple[float, dict]] = {}
        self.dropped: List[str] = []
        self._selector = selectors.DefaultSelector()
        self._lock = threading.Lock()
        self._pending_oversize = 0

    def run(self, timeout: float = 20.0) -> float:
        """Run the schedule; return the origin (due time of offset 0)."""
        main = connect(self.address)
        wake_read, wake_write = socket.socketpair()
        self._selector.register(main, selectors.EVENT_READ, ("main", b""))
        self._selector.register(wake_read, selectors.EVENT_READ, ("wake", None))
        expected = sum(1 for _o, kind, _i, _s in self.schedule if kind != "oversize")
        origin = time.perf_counter() + 0.05
        done = threading.Event()

        def send() -> None:
            for offset, kind, request_id, (_subject, line) in self.schedule:
                delay = origin + offset - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self.sent[request_id] = time.perf_counter()
                if kind == "oversize":
                    extra = connect(self.address)
                    try:
                        extra.sendall(line)
                    except OSError:
                        pass
                    with self._lock:
                        self._pending_oversize += 1
                        self._selector.register(extra, selectors.EVENT_READ, (request_id, b""))
                    wake_write.send(b"x")
                else:
                    main.sendall(line)
            done.set()
            wake_write.send(b"x")

        def receive() -> None:
            buffers: Dict[socket.socket, bytes] = {main: b""}
            # Until the sender is done, an oversize probe may still be on
            # its way to the selector.
            while not done.is_set() or len(self.received) < expected or self._pending_oversize:
                for key, _events in self._selector.select(timeout=0.5):
                    owner = key.fileobj
                    name = key.data[0]
                    if name == "wake":
                        owner.recv(4096)
                        continue
                    try:
                        chunk = owner.recv(1 << 18)
                    except OSError:
                        chunk = b""
                    now = time.perf_counter()
                    if name != "main":
                        buffers[owner] = buffers.get(owner, b"") + chunk
                        if chunk and not buffers[owner].endswith(b"\n"):
                            continue
                        with self._lock:
                            self._selector.unregister(owner)
                            self._pending_oversize -= 1
                        owner.close()
                        if buffers[owner]:
                            self.received[name] = (now, json.loads(buffers.pop(owner)))
                        else:
                            buffers.pop(owner)
                            self.dropped.append(name)
                        continue
                    if not chunk:
                        raise RuntimeError("server closed the main connection")
                    buffers[main] += chunk
                    *lines, buffers[main] = buffers[main].split(b"\n")
                    for line in lines:
                        payload = json.loads(line)
                        self.received[payload["id"]] = (now, payload)
                if time.perf_counter() > deadline:
                    return

        sender = threading.Thread(target=send)
        receiver = threading.Thread(target=receive)
        deadline = origin + self.schedule[-1][0] + timeout
        receiver.start()
        sender.start()
        sender.join()
        receiver.join()
        self._selector.close()
        main.close()
        wake_read.close()
        wake_write.close()
        return origin


class Expected:
    """In-process verdicts for every request of the schedule."""

    def __init__(self, fixture: Fixture) -> None:
        self.fixture = fixture
        detector = WatermarkDetector(fixture.secret, DETECTION)
        self.detect = [
            detector.detect(TokenHistogram.from_counts(counts), collect_evidence=False)
            for counts in fixture.suspects
        ]
        self._embeds: Dict[Tuple[int, int, int], Tuple[str, Dict[str, int]]] = {}
        self.attribution = LinearAttribution(fixture.vault)

    def embed(self, subject: Tuple[int, int, int]) -> Tuple[str, Dict[str, int]]:
        if subject not in self._embeds:
            source, value, seed = subject
            result = WatermarkGenerator(GenerationConfig(), rng=seed).generate(
                TokenHistogram.from_counts(self.fixture.embed_inputs[source]), secret_value=value
            )
            self._embeds[subject] = (result.secret.fingerprint(), result.watermarked_histogram.as_dict())
        return self._embeds[subject]


def verify(fixture: Fixture, expected: Expected, kind: str, subject: object, payload: dict) -> None:
    """Check one response against the in-process verdict."""
    response = decode_response(json.dumps(payload))
    if kind == "oversize" and not response.ok:
        return  # a typed refusal is a fine answer to an over-limit line
    check(response.ok, f"{kind} request {response.request_id} failed: {response.error}")
    if kind in ("detect", "oversize"):
        if kind == "detect":
            reference = expected.detect[subject]
        else:
            reference = WatermarkDetector(fixture.secret, DETECTION).detect(
                TokenHistogram.from_counts(fixture.oversize), collect_evidence=False
            )
        check(
            (response.accepted, response.accepted_pairs, response.required_pairs, response.total_pairs)
            == (reference.accepted, reference.accepted_pairs, reference.required_pairs, reference.total_pairs),
            f"detect {response.request_id} differs from the in-process verdict",
        )
    elif kind == "attribute":
        registered = response.active_secrets - len(fixture.vault.buyers)
        check(
            [(str(buyer), float(share)) for buyer, share in response.matches]
            == expected.attribution.matches(subject, registered),
            f"attribute {response.request_id} differs from a linear scan",
        )
    elif kind == "embed":
        fingerprint, counts = expected.embed(subject)
        check(
            WatermarkSecret.from_dict(response.secret).fingerprint() == fingerprint
            and response.counts == counts,
            f"embed {response.request_id} differs from in-process generate",
        )
    else:
        _buyer, secret = fixture.vault.newcomers[subject]
        check(
            response.fingerprint == secret.fingerprint()
            and response.vault_size == len(fixture.vault.buyers) + subject + 1,
            f"register {response.request_id} differs from the expected entry",
        )


def set_up(fixture: Fixture, work: Path, speed: Speed) -> Tuple[Server, List[float]]:
    """Spawn the server ``SETUP_ROUNDS`` times; keep the last.

    Returns the server and each round's set-up time scaled to reference
    speed (the gauge is sampled while the fresh server idles).
    """
    rounds: List[Tuple[float, float]] = []
    server: Optional[Server] = None
    for round_index in range(SETUP_ROUNDS):
        if server is not None:
            server.close()
        server = Server(fixture, work, round_index)
        rounds.append((time.perf_counter(), server.setup_seconds))
        speed.sample(5)
    return server, speed.scaled(rounds)


def warm_up(fixture: Fixture, server: Server) -> None:
    """Untimed closed-loop requests of every read verb."""
    client = connect(server.address)
    try:
        for offset, kind, _id, (_subject, line) in fixture.schedule[:200]:
            if kind in ("detect", "attribute", "embed"):
                ask(client, line.replace(b'"id":"', b'"id":"warm-'))
    finally:
        client.close()


def socket_phase(fixture: Fixture, server: Server, speed: Speed, expected: Expected) -> Dict[str, object]:
    """Run the schedule open loop in rounds; check every answer.

    The server idles between rounds while the gauge samples the machine.
    Arrivals are spaced by the samples taken before the first round, and
    every latency is scaled by all samples of the phase. One gauge
    reading a few rounds long is noisier than the machine's drift over a
    run: spacing a round by it would load the server more in rounds the
    gauge reads as fast, and queueing would amplify the gauge's noise.
    Latencies are returned both raw and scaled.
    """
    raw: Dict[str, List[float]] = {kind: [] for kind, _share in MIX}
    scaled: Dict[str, List[float]] = {kind: [] for kind, _share in MIX}
    lags = []
    failed = 0
    dropped = 0
    accused = []
    size = math.ceil(len(fixture.schedule) / ROUNDS)
    first_sample = len(speed.samples)
    phase_start, stolen = time.perf_counter(), steal_seconds()
    speed.sample(PRE_GAUGE_SAMPLES)
    # Arrivals keep the reference clock: on a slower machine the rounds
    # are stretched, so the server is as busy as at reference speed and
    # queueing does not amplify the slowdown beyond the scaling.
    stretch = 1.0 / speed.factor(samples=speed.samples[first_sample:])
    answered = []
    for first in range(0, len(fixture.schedule), size):
        part = fixture.schedule[first : first + size]
        base = part[0][0]
        loop = OpenLoop(server.address, [((o - base) * stretch, *rest) for o, *rest in part])
        answered.append((loop, loop.run()))
        speed.sample(GAUGE_SAMPLES)
    factor = speed.factor(samples=speed.samples[first_sample:])
    cores = os.cpu_count() or 1
    steal_share = (steal_seconds() - stolen) / (cores * (time.perf_counter() - phase_start))
    for loop, origin in answered:
        dropped += len(loop.dropped)
        for offset, kind, request_id, (subject, _line) in loop.schedule:
            due = origin + offset
            lags.append(loop.sent[request_id] - due)
            if request_id in loop.received:
                received, payload = loop.received[request_id]
                verify(fixture, expected, kind, subject, payload)
                latency = received - due
                raw[kind].append(latency)
                # A detect waits out the coalescing window, which is a
                # timer, not work: only the rest scales with speed.
                window = COALESCING_WINDOW_S if kind == "detect" else 0.0
                scaled[kind].append(window + factor * max(0.0, latency - window))
                if kind == "attribute" and fixture.vault.leak_is_clean[subject]:
                    accused.append(bool(payload["matches"]))
            elif kind != "oversize":
                failed += 1
    stats = server.stats()
    kinds = [kind for _o, kind, _i, _s in fixture.schedule]
    return {
        "raw": raw,
        "latencies": scaled,
        "steal_share": steal_share,
        "lag_p95_ms": 1000 * p95(lags),
        "failed": failed,
        "attempted": len(kinds) - kinds.count("oversize"),
        "oversize": kinds.count("oversize"),
        "dropped": dropped,
        "false_accuse_share": sum(accused) / len(accused) if accused else 0.0,
        "views": stats["metrics"]["views"],
    }


def library_phase(fixture: Fixture, work: Path, expected: Expected) -> Dict[str, List[float]]:
    """Replay half the schedule closed loop through an in-process service.

    Each request line goes ``decode_request`` →
    ``SyncDetectionService.submit`` → ``encode_line`` on a service over a
    fresh copy of the vault, one request at a time, with the speed gauge
    sampled between requests; every answer is checked. Returns each
    class's latencies scaled to reference speed.

    These carry the end-to-end latencies. Over the socket, a request
    waits whenever the hypervisor lends one of the two cores to another
    tenant (steal: from under 1 % to over 20 % of a run on a 2-core
    shared host), and that wait, multiplied by queueing, set the socket
    response times: their medians spread by up to 0.71 over ten seeds.
    Here one request runs at a time on one core, and the gauge beside it
    loses the same share of that core.
    """
    vault = SecretVault(shutil.copytree(fixture.vault.directory, work / "vault-library"))
    config = ServiceConfig(max_delay=COALESCING_WINDOW_S)
    service = SyncDetectionService(config, registry=vault).start()
    speed = Speed()
    times: Dict[str, List[Tuple[float, float]]] = {kind: [] for kind, _share in MIX[:4]}
    try:
        service.register_secret(fixture.secret, DETECTION)
        schedule = fixture.schedule[: len(fixture.schedule) // 2]
        for _offset, kind, _id, (_subject, line) in fixture.schedule[:200]:
            if kind in ("detect", "attribute", "embed"):
                service.submit(decode_request(line.decode("utf-8")))
        speed.sample(GAUGE_SAMPLES)
        for _offset, kind, _id, (subject, line) in schedule:
            if kind == "oversize":
                continue  # a probe of the socket's line limit
            start = time.perf_counter()
            answer = encode_line(service.submit(decode_request(line.decode("utf-8"))))
            times[kind].append((start, time.perf_counter() - start))
            speed.sample(1)
            verify(fixture, expected, kind, subject, json.loads(answer))
    finally:
        service.close()
        speed.close()
    # As over the socket, only a detect's time beyond the coalescing
    # window scales with speed.
    window = {"detect": COALESCING_WINDOW_S}
    return {
        kind: [
            window.get(kind, 0.0) + speed.factor(when) * max(0.0, raw - window.get(kind, 0.0))
            for when, raw in values
        ]
        for kind, values in times.items()
    }


def run(seed: int, seconds: int, trace: bool, work: Path, trace_path: Path) -> Outcome:
    fixture = Fixture(seed, work, TRACED_SECONDS if trace else seconds)
    # The server and this client share both cores. The gauge is read
    # while the server idles, between rounds of the open loop; the load
    # itself would slow it.
    speed = Speed(cores=2)
    try:
        server, rounds = set_up(fixture, work, speed)
        try:
            warm_up(fixture, server)
            gc.collect()
            gc.freeze()
            expected = Expected(fixture)
            phase = socket_phase(fixture, server, speed, expected)
            rss = peak_rss_mb(server.process.pid)
        finally:
            server.close()
    finally:
        speed.close()
    # Oversize probes count here: the share of requests not served.
    sent = phase["attempted"] + phase["oversize"]
    failed_share = (phase["failed"] + phase["dropped"]) / sent
    if trace:
        return traced(fixture, work, phase, failed_share, trace_path)
    library = library_phase(fixture, work, expected)
    outcome = Outcome(
        attempted=phase["attempted"] + sum(map(len, library.values())), failed=phase["failed"]
    )
    latencies = phase["latencies"]
    service_view = phase["views"].get("service", {})
    cache_view = phase["views"].get("detector_cache", {})
    check(phase["lag_p95_ms"] <= MAX_SEND_LAG_MS, f"load generator ran late: {phase['lag_p95_ms']} ms")
    check(all(latencies[kind] and library[kind] for kind, _share in MIX[:4]), "a request class never ran")
    outcome.put("setup_s", p50(rounds), "s")
    outcome.put("peak_rss_mb", rss, "MB")
    outcome.put("heavy_ms", 1000 * p50(library["embed"]), "ms")
    outcome.put("mid_ms", 1000 * p50(library["attribute"]), "ms")
    outcome.put("light_ms", 1000 * p50(library["detect"]), "ms")
    outcome.report.update(
        {
            "speed_factor": speed.factor(),
            "steal_share": phase["steal_share"],
            "raw_p50_ms": {k: 1000 * p50(v) for k, v in phase["raw"].items() if v},
            "detect_rt_p50_ms": 1000 * p50(latencies["detect"]),
            "detect_rt_p95_ms": 1000 * p95(latencies["detect"]),
            "attribute_rt_p50_ms": 1000 * p50(latencies["attribute"]),
            "attribute_rt_p95_ms": 1000 * p95(latencies["attribute"]),
            "embed_rt_p50_ms": 1000 * p50(latencies["embed"]),
            "register_rt_p50_ms": 1000 * p50(latencies["register"]),
            "library_p50_ms": {kind: 1000 * p50(values) for kind, values in library.items()},
            "client_send_lag_ms_p95": phase["lag_p95_ms"],
            "oversize_sent": phase["oversize"],
            "oversize_dropped": phase["dropped"],
            "failed_share": failed_share,
            "false_accuse_share": phase["false_accuse_share"],
            "service_batch_size_mean": service_view.get("mean_batch_size"),
            "detector_cache_hit_rate": cache_view.get("hit_rate"),
            "requests": {kind: len(values) for kind, values in latencies.items()},
        }
    )
    return outcome


def traced(
    fixture: Fixture, work: Path, phase: Dict[str, object], failed_share: float, trace_path: Path
) -> Outcome:
    """Replay the schedule in-process with spans around each layer call.

    Each line goes ``decode_request`` → ``SyncDetectionService.submit`` →
    ``encode_line`` on two services started side by side, each over its
    own copy of the vault: one untraced, one traced, alternating which
    goes first so drift between the two cancels. Socket figures come
    from the open-loop phase just run.
    """
    outcome = Outcome(attempted=phase["attempted"], failed=phase["failed"])
    before = scheduler_counters()
    replay = {kind: Recorder(True, f"replay-{kind}") for kind, _share in MIX}
    probes = Recorder(True, "probes")
    plain = Recorder(False)
    opens = []
    vaults: Dict[str, SecretVault] = {}
    services: Dict[str, SyncDetectionService] = {}
    walls = {"plain": 0.0, "spanned": 0.0}
    candidates = 0
    matches = 0
    try:
        for label in walls:
            copy = work / f"vault-{label}"
            shutil.copytree(fixture.vault.directory, copy)
            start = time.perf_counter()
            vaults[label] = SecretVault(copy)
            opens.append(time.perf_counter() - start)
            services[label] = SyncDetectionService(registry=vaults[label])
            services[label].start()
            services[label].register_secret(fixture.secret, DETECTION)
        for index, (_offset, kind, _request_id, (_subject, line)) in enumerate(fixture.schedule):
            runs = [("plain", plain), ("spanned", replay[kind])]
            if index % 2:
                runs.reverse()
            for label, recorder in runs:
                start = time.perf_counter()
                with recorder.span(f"op:{kind}"):
                    with recorder.span("wire.decode"):
                        request = decode_request(line.decode("utf-8"))
                    with recorder.span("service.submit"):
                        response = services[label].submit(request)
                    with recorder.span("wire.encode"):
                        encode_line(response)
                walls[label] += time.perf_counter() - start
                check(response.ok, f"in-process {kind} failed: {response.error}")
            if kind == "attribute":
                candidates += vaults["spanned"].last_attribution.candidates
                matches += vaults["spanned"].last_attribution.matches
    finally:
        for service in services.values():
            service.close()
    staged = StagedAttribution(fixture.vault.buyers)
    for histogram in fixture.vault.leaks:
        staged(plain, histogram)  # fills the detector cache once
    for histogram in fixture.vault.leaks:
        staged(probes, histogram)
    detector = None
    for counts in fixture.suspects:
        with probes.span("histogram.from_counts"):
            histogram = TokenHistogram.from_counts(counts)
        if detector is None:
            with probes.span("detector.build"):
                detector = WatermarkDetector(fixture.secret, DETECTION)
        with probes.span("detector.detect"):
            detector.detect(histogram, collect_evidence=False)
    histograms = [TokenHistogram.from_counts(counts) for counts in fixture.suspects]
    with probes.span("batch.detect_many"):
        detect_many(histograms, detector=detector)

    # The service never dispatches to a scheduler; the counters show it.
    after = scheduler_counters()
    for name, key in (("scheduler.tasks", "tasks"), ("blobs.bytes_sent", "bytes_sent")):
        outcome.put(name, after[key] - before[key], "bytes" if key == "bytes_sent" else "count")
    decode = median_self_ms(replay["detect"], "wire.decode")
    encode = median_self_ms(replay["detect"], "wire.encode")
    submit = median_self_ms(replay["detect"], "service.submit")
    detect_rt = 1000 * p50(phase["raw"]["detect"])
    recorders = [*replay.values(), probes]
    views = phase["views"]
    outcome.put("vault.open_ms", 1000 * p50(opens), "ms")
    outcome.put("histogram.from_counts_ms", median_self_ms(probes, "histogram.from_counts"), "ms")
    outcome.put("wire.decode_us", 1000 * decode, "us")
    outcome.put("wire.encode_us", 1000 * encode, "us")
    outcome.put("service.submit_ms", submit, "ms")
    outcome.put("server.transport_ms", detect_rt - submit - decode - encode, "ms")
    outcome.put("service.batch_size_mean", views.get("service", {}).get("mean_batch_size", 0.0), "count")
    outcome.put("detector_cache.hit_rate", views.get("detector_cache", {}).get("hit_rate", 0.0), "share")
    outcome.put("detector.build_ms", median_self_ms(probes, "detector.build"), "ms")
    outcome.put("detector.detect_ms", median_self_ms(probes, "detector.detect"), "ms")
    outcome.put(
        "batch.detect_many_us_per_suspect",
        1000 * median_self_ms(probes, "batch.detect_many") / len(histograms),
        "us",
    )
    outcome.put("index.screen_ms", median_self_ms(probes, "index.screen"), "ms")
    outcome.put("batch.detect_many_secrets_ms", median_self_ms(probes, "batch.detect_many_secrets"), "ms")
    outcome.put("index.candidates", candidates, "count")
    outcome.put("index.useful_ratio", matches / candidates if candidates else 0.0, "ratio")
    outcome.put("client.send_lag_ms_p95", phase["lag_p95_ms"], "ms")
    outcome.put("server.oversize_dropped", phase["dropped"], "count")
    outcome.put("ops.failed_share", failed_share, "share")
    outcome.put("trace.overhead_pct", 100.0 * (walls["spanned"] - walls["plain"]) / walls["plain"], "%")
    outcome.put("trace.unattributed_pct", unattributed_pct(list(replay.values())), "%")
    outcome.put("dispute.false_accuse_share", phase["false_accuse_share"], "share")
    outcome.report["layers"] = {r.label: r.layer_table() for r in recorders}
    write_trace(trace_path, recorders)
    return outcome
