"""Outside-in tracing: spans recorded around each layer's public functions.

Nothing here edits the program.  :class:`Instrumentation` replaces a
layer's public function at the binding its callers look up: the class
attribute for a method, the instance attribute for the crypto engine and
the transport, and, for a module-level function, every ``repro.*`` module
global that holds it (``core/addfriend`` reaches ``x25519.shared_secret``
through the module; a ``from ... import`` binding is a global of the
importing module, and is replaced too).  :meth:`Instrumentation.remove`
puts the originals back.

Spans carry parent ids from a per-thread stack (the real runtimes serve
RPCs on executor threads), are kept in memory, and are written out once at
the end.  A layer's self time is its duration minus the part of it that
child spans cover (:func:`stats.self_time`).
"""

from __future__ import annotations

import contextlib
import gzip
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

from bench import PROTOCOL_TAGS
from stats import self_time


class Span:
    __slots__ = ("span_id", "parent_id", "name", "layer", "thread", "start", "end",
                 "items", "nbytes", "fail", "error")

    def __init__(self, span_id: int, parent_id: int, name: str, layer: str, thread: int) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.layer = layer
        self.thread = thread
        self.start = time.perf_counter()
        self.end = self.start
        self.items = 1
        self.nbytes = 0
        self.fail = 0
        self.error = ""

    def to_dict(self) -> dict:
        return {
            "id": self.span_id, "parent": self.parent_id, "name": self.name,
            "layer": self.layer, "thread": self.thread, "start": self.start,
            "end": self.end, "items": self.items, "bytes": self.nbytes,
            "fail": self.fail, "error": self.error,
        }


class Tracer:
    """Spans with parent ids; one stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str) -> Span:
        stack = self.stack()
        parent = stack[-1].span_id if stack else 0
        span = Span(next(self._ids), parent, name, layer, threading.get_ident())
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self.stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counters[name] += value

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A span around a block of the benchmark's own code."""
        span = self.begin(name, layer)
        try:
            yield span
        finally:
            self.end(span)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


def spanned(tracer: Tracer, name, layer: str, func, measure=None, skip_under=()):
    """Wrap ``func`` in a span.

    ``name`` is a string or ``name(args) -> str``.  ``measure(span, args,
    result)`` fills counts after the call.  A call made while the innermost
    open span belongs to a layer in ``skip_under`` passes straight through
    (a batch op's per-item singles, the pure engine's own x25519 calls).
    """

    def wrapper(*args, **kwargs):
        stack = tracer.stack()
        if skip_under and stack and stack[-1].layer in skip_under:
            return func(*args, **kwargs)
        span = tracer.begin(name if isinstance(name, str) else name(args), layer)
        try:
            result = func(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            span.fail = 1
            raise
        finally:
            tracer.end(span)
        if measure is not None:
            measure(span, args, result)
        return result

    wrapper.__wrapped__ = func
    wrapper.__name__ = getattr(func, "__name__", "wrapped")
    return wrapper


class Instrumentation:
    """Installs wrappers at callers' bindings and takes them out again."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list = []

    def on_attr(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` (a class or an instance) with ``make(original)``."""
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own and isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original if had_own else None))

    def on_function(self, module, attr: str, make) -> None:
        """Replace a module-level function in every ``repro`` module holding it."""
        original = getattr(module, attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()


# --------------------------------------------------------------------------
# The layers
# --------------------------------------------------------------------------
CRYPTO_OPS = {
    "shared_secret": "shared_secret", "shared_secret_many": "shared_secret",
    "public_key": "public_key", "public_key_many": "public_key",
    "seal": "seal", "seal_many": "seal",
    "open_sealed": "open", "open_many": "open",
    "ed25519_sign": "sign", "ed25519_verify": "verify",
}
BATCH_OPS = {"shared_secret_many", "public_key_many", "seal_many", "open_many"}


def observed(func, after, on_error=None):
    """Wrap ``func`` to call ``after(args, result)`` (or ``on_error()`` when
    it raises) without recording a span: counts at a boundary."""

    def wrapper(*args, **kwargs):
        try:
            result = func(*args, **kwargs)
        except Exception:
            if on_error is not None:
                on_error()
            raise
        after(args, result)
        return result

    return wrapper


def install(inst: Instrumentation, engine) -> None:
    """Wrap every layer's public functions; ``engine`` is the crypto backend
    instance the deployment resolves (mix servers and the module-level
    aead/onion entry points all reach this one object)."""
    import asyncio

    from repro.cdn.cdn import Cdn
    from repro.core.client import Client
    from repro.core.coordinator import Deployment
    from repro.core.roundengine import AddFriendDriver, DialingDriver, RoundEngine
    from repro.crypto import x25519
    from repro.crypto.ibe.simulated import SimulatedIbe
    from repro.entry.server import EntryServer
    from repro.mixnet.server import MixServer
    from repro.net import rpc
    from repro.net.rpc import EntryStub
    from repro.obs.privacy import PrivacyLedgerMonitor
    from repro.pkg.server import PkgServer
    from repro.primitives.bloom import BloomFilter
    from repro.runtime import wire
    from repro.sim.scenario import Scenario
    from repro.api.session import SessionRegistry

    tracer = inst.tracer

    def engine_stage(stage):
        return lambda f: spanned(
            tracer, lambda a: f"stage.{stage}.{PROTOCOL_TAGS[a[0].driver.protocol]}", "stage", f)

    # core.roundengine stages: start_round is announce+submit; finish_round
    # is the mix stage around the scan-stage spans below (the protocol drivers' scan
    # waves and the session layer's per-round feed).
    inst.on_attr(RoundEngine, "start_round", engine_stage("submit"))
    inst.on_attr(RoundEngine, "finish_round", engine_stage("mix"))
    for driver, tag in ((AddFriendDriver, "addfriend"), (DialingDriver, "dialing")):
        for method in ("scan_many", "after_scan"):
            inst.on_attr(driver, method,
                         lambda f, tag=tag: spanned(tracer, "stage.scan." + tag, "stage", f))
    inst.on_attr(SessionRegistry, "round_finished", lambda f: spanned(
        tracer, lambda a: "stage.scan." + PROTOCOL_TAGS[a[1]], "stage", f))

    for method, op in CRYPTO_OPS.items():
        def make(f, op=op, batch=method in BATCH_OPS, method=method):
            def measure(span, args, result):
                if batch:
                    span.items = len(args[0])
                    if method == "open_many":
                        span.fail = sum(1 for r in result if r is None)
            return spanned(tracer, "crypto." + op, "crypto", f, measure, skip_under=("crypto",))
        inst.on_attr(engine, method, make)

    # crypto.x25519 called directly (the core/addfriend bypass); calls the
    # pure engine makes itself sit under a crypto span and are skipped.
    for fn in ("shared_secret", "public_key", "generate_keypair"):
        inst.on_function(x25519, fn, lambda f: spanned(
            tracer, "crypto.x25519_direct", "x25519", f, skip_under=("crypto", "x25519")))

    # crypto.ibe trial decrypts and PKG extraction.
    def ibe_measure(span, args, result):
        span.fail = int(result is None)  # a trial decrypt that was not for this client

    inst.on_attr(SimulatedIbe, "decrypt",
                 lambda f: spanned(tracer, "ibe.decrypt", "ibe", f, ibe_measure))
    inst.on_attr(PkgServer, "extract", lambda f: spanned(tracer, "pkg.extract", "pkg", f))

    # core.client scans (one call per mailbox).
    inst.on_attr(Client, "process_addfriend_mailbox",
                 lambda f: spanned(tracer, "client.scan_addfriend", "client", f))
    inst.on_attr(Client, "process_dialing_mailbox",
                 lambda f: spanned(tracer, "client.scan_dialing", "client", f))

    # primitives.bloom
    inst.on_attr(BloomFilter, "add", lambda f: spanned(tracer, "bloom.add", "bloom", f))
    inst.on_attr(BloomFilter, "__contains__",
                 lambda f: spanned(tracer, "bloom.check", "bloom", f))

    # mixnet: the server peel (in-process runtimes) and the chain result at
    # the entry's close_round boundary (every runtime).
    inst.on_attr(MixServer, "process_batch",
                 lambda f: spanned(tracer, "mixnet.process_batch", "mixnet", f))

    def chain_result(args, result):
        tracer.count("mixnet.envelopes_in", result.submitted)
        tracer.count("mixnet.noise_added", result.noise_added)
        tracer.count("mixnet.delivered_real", result.delivered_real)

    inst.on_attr(EntryStub, "close_round", lambda f: observed(f, chain_result))

    # net.rpc codecs: every encode_*/decode_* wherever it is bound.
    def codec(kind):
        def make(f):
            def measure(span, args, result):
                span.nbytes = len(result) if kind == "encode" else len(args[0])
            return spanned(tracer, "rpc." + kind, "rpc", f, measure, skip_under=("rpc",))
        return make

    for attr in sorted(vars(rpc)):
        if attr.startswith(("encode_", "decode_")) and callable(getattr(rpc, attr)):
            inst.on_function(rpc, attr, codec(attr.split("_", 1)[0]))

    # entry and cdn: counts at the server-side boundary.
    inst.on_attr(EntryServer, "submit", lambda f: observed(
        f, lambda args, result: tracer.count("entry.accepted"),
        on_error=lambda: tracer.count("entry.rejected")))

    def downloaded(args, blob):
        tracer.count("cdn.download.calls")
        tracer.count("cdn.download.bytes", len(blob) if blob is not None else 0)

    inst.on_attr(Cdn, "download_blob", lambda f: observed(f, downloaded))

    # obs.privacy ledger and setup (core.coordinator).
    inst.on_attr(PrivacyLedgerMonitor, "on_round",
                 lambda f: spanned(tracer, "privacy.ledger", "privacy", f))
    inst.on_attr(Scenario, "build", lambda f: spanned(tracer, "setup.build", "setup", f))
    inst.on_attr(Deployment, "create_client",
                 lambda f: spanned(tracer, "setup.create_client", "setup", f))

    # runtime wire codec and connection opens (real runtimes only).
    def pickled(f):
        def measure(span, args, result):
            flag, data = result
            span.nbytes = len(data) if flag == wire.OBJ_PICKLE else 0
        return spanned(tracer, "runtime.wire.encode_obj", "runtime.wire", f, measure)

    inst.on_function(wire, "encode_obj", pickled)

    def unpickled(f):
        def measure(span, args, result):
            message = args[0]
            span.nbytes = len(message.obj_data) if message.obj_flag == wire.OBJ_PICKLE else 0
        return spanned(tracer, "runtime.wire.decode_obj", "runtime.wire", f, measure)

    inst.on_function(wire, "decode_obj", unpickled)
    inst.on_function(wire, "encode_message", lambda f: spanned(
        tracer, "runtime.wire.encode", "runtime.wire", f))
    inst.on_function(wire, "decode_message", lambda f: spanned(
        tracer, "runtime.wire.decode", "runtime.wire", f))

    # Counted when the coroutine is created; the runtime awaits it at once.
    inst.on_attr(asyncio, "open_connection", lambda f: observed(
        f, lambda args, coroutine: tracer.count("runtime.connections_opened")))


def install_transport(inst: Instrumentation, transport, real_runtime: bool) -> None:
    """Wrap the built transport's ``call``/``call_batch`` (instance bindings)."""
    tracer = inst.tracer
    layer = "runtime" if real_runtime else "net"

    def batch_measure(span, args, result):
        span.items = len(args[0])
        span.fail = sum(1 for outcome in result if not outcome.ok)

    inst.on_attr(transport, "call", lambda f: spanned(tracer, "transport.call", layer, f))
    inst.on_attr(transport, "call_batch", lambda f: spanned(
        tracer, "transport.call_batch", layer, f, batch_measure))


# --------------------------------------------------------------------------
# From spans to per-layer metrics
# --------------------------------------------------------------------------
#: Reported in the result line: measured on every workload.  The layers
#: that run on only some workloads are printed (see ``report_lines``).
PER_LAYER = (
    [f"stage.{stage}_s.{tag}" for tag in ("addfriend", "dialing")
     for stage in ("submit", "mix", "scan")]
    + [f"crypto.{op}.{kind}" for op in ("shared_secret", "public_key", "seal", "open", "sign",
                                        "verify") for kind in ("items", "s")]
    + ["crypto.open.fail", "crypto.x25519_direct.calls", "crypto.x25519_direct.s",
       "ibe.decrypt.calls", "ibe.decrypt.s", "ibe.useful_ratio",
       "pkg.extract.calls", "pkg.extract.s",
       "client.scan_addfriend.mailboxes", "client.scan_addfriend.s",
       "client.scan_dialing.mailboxes", "client.scan_dialing.s",
       "bloom.check.items", "bloom.check.s",
       "mixnet.envelopes_in", "mixnet.noise_added", "mixnet.real_ratio",
       "rpc.encode.calls", "rpc.encode.s", "rpc.decode.calls", "rpc.decode.s", "rpc.bytes",
       "net.call_batch.calls", "net.call_batch.s", "net.frames",
       "entry.accepted", "entry.rejected", "cdn.download.calls", "cdn.download.bytes",
       "privacy_ledger_s",
       "setup.build_s", "setup.create_client.calls", "setup.create_client.s", "setup.warmup_s",
       "trace.client_rounds_per_s", "untraced.client_rounds_per_s", "trace.overhead_ratio"]
)

#: Printed where the layer runs in the parent process.
SIM_ONLY = ("bloom.add.items", "bloom.add.s", "mixnet.process_batch_s",
            "scheduler.events", "scheduler.heap_peak")
MP_ONLY = ("runtime.call_s", "runtime.wire.encode_s", "runtime.wire.decode_s",
           "runtime.pickled_bytes", "runtime.connections_opened", "runtime.rpc_failed",
           "setup.connections_opened")


def expected_spans(runtime: str) -> tuple[list[str], list[str]]:
    """Span and counter names the traced rounds must record on ``runtime``:
    one per wrapper whose layer runs in this process there."""
    spans = [f"stage.{stage}.{tag}" for stage in ("submit", "mix", "scan")
             for tag in ("addfriend", "dialing")]
    spans += [f"crypto.{op}" for op in sorted(set(CRYPTO_OPS.values()))]
    spans += ["crypto.x25519_direct", "ibe.decrypt", "pkg.extract", "client.scan_addfriend",
              "client.scan_dialing", "bloom.check", "rpc.encode", "rpc.decode",
              "transport.call", "transport.call_batch", "privacy.ledger"]
    counters = ["mixnet.envelopes_in", "mixnet.noise_added", "entry.accepted",
                "cdn.download.calls"]
    if runtime == "sim":
        spans += ["bloom.add", "mixnet.process_batch"]
    else:
        spans += ["runtime.wire.encode", "runtime.wire.decode", "runtime.wire.encode_obj",
                  "runtime.wire.decode_obj"]
    return spans, counters


def unfired(timed: Tracer, setup: Tracer, runtime: str) -> list[str]:
    """Wrappers that never fired where their layer runs."""
    spans, counters = expected_spans(runtime)
    seen = {span.name for span in timed.spans}
    missing = [name for name in spans if name not in seen]
    missing += [name for name in counters if not timed.counters.get(name)]
    setup_seen = {span.name for span in setup.spans}
    missing += [f"{name} (set-up)" for name in ("setup.build", "setup.create_client",
                                                  "setup.warmup") if name not in setup_seen]
    if runtime != "sim" and not setup.counters.get("runtime.connections_opened"):
        missing.append("runtime.connections_opened (set-up)")
    return missing


def program_counters(net) -> dict:
    """Counters the program keeps itself, read before and after a window."""
    scheduler = getattr(net, "scheduler", None)
    return {
        "frames": net.stats.messages_sent,
        "events": scheduler.events_processed if scheduler is not None else 0,
        "heap_peak": scheduler.max_heap_size if scheduler is not None else 0,
    }


def add_counters(total: dict, start: dict, end: dict) -> dict:
    """``total`` plus the growth from ``start`` to ``end`` (peaks: the max)."""
    return {
        "frames": total["frames"] + end["frames"] - start["frames"],
        "events": total["events"] + end["events"] - start["events"],
        "heap_peak": max(total["heap_peak"], end["heap_peak"]),
    }


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")) or "_s." in name:
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if "bytes" in name:
        return "B"
    return "count"


def aggregate(tracer: Tracer) -> dict:
    """Per span name: calls, items, busy seconds, self seconds, bytes, fails."""
    children: dict[int, list] = defaultdict(list)
    for span in tracer.spans:
        if span.parent_id:
            children[span.parent_id].append((span.start, span.end))
    rows: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "items": 0, "busy": 0.0, "self": 0.0, "bytes": 0, "fail": 0})
    for span in tracer.spans:
        row = rows[span.name]
        row["calls"] += 1
        row["items"] += span.items
        row["busy"] += span.end - span.start
        row["self"] += self_time(span.start, span.end, children.get(span.span_id, []))
        row["bytes"] += span.nbytes
        row["fail"] += span.fail
    return rows


def layer_metrics(timed: Tracer, setup: Tracer, counters: dict, runtime: str) -> dict:
    """Every per-layer metric: spans and counts of the traced rounds
    (``counters``: the program's own, summed over them) and of the set-up."""
    rows = aggregate(timed)
    empty = {"calls": 0, "items": 0, "busy": 0.0, "self": 0.0, "bytes": 0, "fail": 0}
    row = lambda name: rows.get(name, empty)  # noqa: E731
    values: dict[str, float] = {}
    for tag in ("addfriend", "dialing"):
        for stage in ("submit", "mix", "scan"):
            values[f"stage.{stage}_s.{tag}"] = row(f"stage.{stage}.{tag}")["self"]
    for op in ("shared_secret", "public_key", "seal", "open", "sign", "verify"):
        values[f"crypto.{op}.items"] = row(f"crypto.{op}")["items"]
        values[f"crypto.{op}.s"] = row(f"crypto.{op}")["busy"]
    values["crypto.open.fail"] = row("crypto.open")["fail"]
    values["crypto.x25519_direct.calls"] = row("crypto.x25519_direct")["calls"]
    values["crypto.x25519_direct.s"] = row("crypto.x25519_direct")["busy"]
    ibe = row("ibe.decrypt")
    values["ibe.decrypt.calls"] = ibe["calls"]
    values["ibe.decrypt.s"] = ibe["busy"]
    values["ibe.useful_ratio"] = 1 - ibe["fail"] / ibe["calls"] if ibe["calls"] else 0.0
    values["pkg.extract.calls"] = row("pkg.extract")["calls"]
    values["pkg.extract.s"] = row("pkg.extract")["busy"]
    for proto in ("addfriend", "dialing"):
        values[f"client.scan_{proto}.mailboxes"] = row(f"client.scan_{proto}")["calls"]
        values[f"client.scan_{proto}.s"] = row(f"client.scan_{proto}")["busy"]
    for op in ("add", "check"):
        values[f"bloom.{op}.items"] = row(f"bloom.{op}")["items"]
        values[f"bloom.{op}.s"] = row(f"bloom.{op}")["busy"]
    values["mixnet.process_batch_s"] = row("mixnet.process_batch")["busy"]
    counted = timed.counters
    values["mixnet.envelopes_in"] = counted["mixnet.envelopes_in"]
    values["mixnet.noise_added"] = counted["mixnet.noise_added"]
    delivered = counted["mixnet.delivered_real"] + counted["mixnet.noise_added"]
    values["mixnet.real_ratio"] = counted["mixnet.delivered_real"] / delivered if delivered else 0.0
    for kind in ("encode", "decode"):
        values[f"rpc.{kind}.calls"] = row(f"rpc.{kind}")["calls"]
        values[f"rpc.{kind}.s"] = row(f"rpc.{kind}")["busy"]
    values["rpc.bytes"] = row("rpc.encode")["bytes"]
    values["net.call_batch.calls"] = row("transport.call_batch")["calls"]
    values["net.call_batch.s"] = row("transport.call_batch")["busy"]
    values["net.frames"] = counters["frames"]
    values["scheduler.events"] = counters["events"]
    values["scheduler.heap_peak"] = counters["heap_peak"]
    for name in ("entry.accepted", "entry.rejected", "cdn.download.calls", "cdn.download.bytes"):
        values[name] = counted[name]
    values["privacy_ledger_s"] = row("privacy.ledger")["busy"]
    setup_rows = aggregate(setup)
    values["setup.build_s"] = setup_rows["setup.build"]["busy"]
    values["setup.create_client.calls"] = setup_rows["setup.create_client"]["calls"]
    values["setup.create_client.s"] = setup_rows["setup.create_client"]["busy"]
    values["setup.warmup_s"] = setup_rows["setup.warmup"]["busy"]
    values["setup.connections_opened"] = setup.counters["runtime.connections_opened"]
    # The benchmark's main thread waits on the runtime; handler threads' own calls
    # overlap those waits and are left out of runtime.call_s.
    main = threading.main_thread().ident
    values["runtime.call_s"] = sum(
        span.end - span.start for span in timed.spans
        if span.layer == "runtime" and span.thread == main
    )
    values["runtime.wire.encode_s"] = row("runtime.wire.encode")["busy"]
    values["runtime.wire.decode_s"] = row("runtime.wire.decode")["busy"]
    values["runtime.pickled_bytes"] = (row("runtime.wire.encode_obj")["bytes"]
                                       + row("runtime.wire.decode_obj")["bytes"])
    values["runtime.connections_opened"] = counted["runtime.connections_opened"]
    values["runtime.rpc_failed"] = (row("transport.call")["fail"]
                                    + row("transport.call_batch")["fail"]) if runtime != "sim" else 0
    return {name: {"value": value, "unit": _unit(name)} for name, value in values.items()}


def reported(layer: dict) -> dict:
    return {name: layer[name] for name in PER_LAYER}


def report_lines(layer: dict, runtime: str) -> list[str]:
    def line(name):
        metric = layer[name]
        return f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}"

    lines = [line(name) for name in PER_LAYER]
    if runtime == "sim":
        lines.append("  -- layers that run in this process on sim runtimes only:")
        lines += [line(name) for name in SIM_ONLY]
        lines.append("  -- repro.runtime is not on this workload's path (runtime.* not measured)")
    else:
        lines.append("  -- repro.runtime (real runtimes only):")
        lines += [line(name) for name in MP_ONLY]
        lines.append("  -- the mix servers run in the worker process: their peel, noise wrap "
                     "and Bloom builds (mixnet.process_batch_s, bloom.add.*, the mix half of "
                     "crypto.*) are visible here only as runtime.call_s; the simulator "
                     "(scheduler.*) is not on this workload's path")
    return lines
