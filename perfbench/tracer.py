"""Spans around the calls into each layer, and the per-layer split.

The traced run wraps every public function and method of the layer
modules below from outside the program: nothing under ``src/`` records
spans itself.  A span is ``(name, start, end, parent)`` held in flat
arrays per process, and every span of a process carries that process's
run id (0 for the benchmark's child, ``w + 1`` for parallel worker
``w``).  Spans stay in memory until the run ends and are then written
out with :meth:`Tracer.dump`.

Self time is a span's duration minus the part of it that its child
spans cover; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pickle
import pkgutil
import sys
import time
import types
from array import array
from collections import Counter

#: Module prefix -> layer, most specific first.
LAYER_PREFIXES = (
    ("repro.fleet.orchestrator", "fleet.orchestrator"),
    ("repro.fleet.vehicle", "fleet.orchestrator"),
    ("repro.fleet.policy", "fleet.policy"),
    ("repro.fleet.topology", "fleet.topology"),
    ("repro.fleet.stats", "fleet.stats"),
    ("repro.fleet.scenario", "fleet.scenario"),
    ("repro.fleet.parallel", "fleet.parallel"),
    ("repro.backend", "backend"),
    ("repro.ecdsa", "ecdsa"),
    ("repro.ecqv", "ecqv"),
    ("repro.ec", "ec"),
    ("repro.primitives", "primitives"),
    ("repro.protocols", "protocols"),
    ("repro.trace", "trace"),
    ("repro.hardware", "hardware"),
    ("repro.sim", "sim"),
    ("repro.obs", "obs"),
)

#: Private callables that are still layer entry points: the constructor
#: the benchmark calls, and the partition loop a parallel worker runs.
EXTRA_METHODS = {
    "repro.fleet.orchestrator:FleetOrchestrator": (
        "__init__",
        "_run_partition",
    ),
}

#: Root spans the benchmark opens around its two phases, and the root
#: span of each parallel worker.
SETUP_SPAN = "bench|setup"
RUN_SPAN = "bench|run"
WORKER_SPAN = "fleet.parallel|repro.fleet.parallel:_worker_run"
RUN_PARALLEL_SPAN = "fleet.parallel|repro.fleet.parallel:run_parallel"

_OTHER, _SETUP, _RUN = 0, 1, 2

#: Cost-trace event classes whose counts the wrappers must reproduce.
CHECKED_EVENTS = (
    "ec.mul_base",
    "ec.mul_point",
    "ec.mul_double",
    "sha2.block",
    "hmac.call",
    "aes.block",
)

#: Backend EC method -> the cost-trace event class one item of it is.
_EC_METHODS = {
    "ec_mul_base": "ec.mul_base",
    "ec_mul": "ec.mul_point",
    "ec_mul_double": "ec.mul_double",
    "ec_mul_base_batch": "ec.mul_base",
    "ec_mul_double_batch": "ec.mul_double",
}
_SYM_EVENTS = ("sha2.block", "hmac.call", "aes.block")

#: Span-name groups whose outermost calls are counted (a call made
#: inside another call of the same group is part of it).
GROUPS = {
    "ec|repro.ec.modular:sqrt_mod": "ec.sqrt_mod",
    "ec|repro.ec.modular:inverse_mod": "ec.inverse",
    "ec|repro.ec.modular:batch_inverse": "ec.inverse",
    "ec|repro.ec.modular:batch_inverse_untraced": "ec.inverse",
    "ec|repro.ec.point:inverse_mod_untraced": "ec.inverse",
    "ecdsa|repro.ecdsa.signature:verify": "ecdsa.verify",
    "ecdsa|repro.ecdsa.signature:verify_batch": "ecdsa.verify",
    "ecdsa|repro.ecdsa.signature:verify_strict": "ecdsa.verify",
    "ecdsa|repro.ecdsa.ecdh:shared_point": "ecdsa.ecdh",
    "ecdsa|repro.ecdsa.ecdh:shared_secret_bytes": "ecdsa.ecdh",
    "ecdsa|repro.ecdsa.ecdh:static_shared_secret": "ecdsa.ecdh",
    "ecdsa|repro.ecdsa.ecdh:ephemeral_shared_secret": "ecdsa.ecdh",
}

_HANDSHAKE_ROOTS = ("protocols|repro.protocols.base:run_protocol",)
_RECORD_SEND = (
    "protocols|repro.protocols.manager:SessionManager.send",
    "protocols|repro.protocols.session:SecureSession.encrypt",
)
_RECORD_RECEIVE = (
    "protocols|repro.protocols.manager:SessionManager.receive",
    "protocols|repro.protocols.session:SecureSession.decrypt",
    "protocols|repro.protocols.session:open_record_with_key",
)
_BACKEND_OTHER = (
    "get_backend",
    "set_backend",
    "available_backends",
    "register_backend",
    "unregister_backend",
    "describe",
)

_E2E = "host_ms_per_vehicle"
_REC = "host_records_per_s"
_CPU = "cpu_ms_per_vehicle"
_STORM = ((_E2E, ("storm",)),)
_CHURN = ((_E2E, ("churn",)),)
_RECORDS = ((_REC, ("records",)),)
_CRYPTO = ((_E2E, ("storm", "parallel")),)
_SESSIONS = ((_E2E, ("storm", "churn")),)
_PARALLEL = ((_E2E, ("parallel",)), (_CPU, ("parallel",)))
_TELEMETRY = ((_E2E, ("churn", "parallel")),)
_GLUE = ((_REC, ("records",)), (_E2E, ("storm",)))
_CNT, _PV, _MS = "count", "count/vehicle", "ms"

#: Every per-layer metric: (name, unit, better, moves), where ``moves``
#: names the end-to-end metric and the workloads it should move on.
PER_LAYER = (
    ("openssl.derive_per_vehicle", _PV, "lower", _CRYPTO),
    ("openssl.exchange_per_vehicle", _PV, "lower", _CRYPTO),
    ("openssl.self_ms", _MS, "lower", _CRYPTO),
    ("backend.ec_calls_per_vehicle", _PV, "lower", _STORM),
    ("backend.ec_self_ms", _MS, "lower", _STORM),
    ("backend.sym_calls_per_record", "count/record", "lower", _RECORDS),
    ("backend.sym_self_ms", _MS, "lower", _RECORDS),
    ("backend.get_backend_calls", _CNT, "lower", _GLUE),
    ("ec.sqrt_mod_calls_per_vehicle", _PV, "lower", _STORM),
    ("ec.inverse_calls_per_vehicle", _PV, "lower", _STORM),
    ("ec.self_ms", _MS, "lower", _STORM),
    ("ecdsa.verify_calls_per_vehicle", _PV, "lower", _SESSIONS),
    ("ecdsa.ecdh_calls_per_vehicle", _PV, "lower", _SESSIONS),
    ("ecdsa.self_ms", _MS, "lower", _SESSIONS),
    ("ecqv.certs_issued", _CNT, "lower", _CHURN),
    ("ecqv.batch_fill", "ratio", "higher", _CHURN),
    ("ecqv.rejected", _CNT, "higher", _CHURN),
    ("ecqv.self_ms", _MS, "lower", _CHURN),
    ("primitives.self_ms", _MS, "lower", _RECORDS),
    ("protocols.handshakes", _CNT, "lower", _SESSIONS),
    ("protocols.handshake_self_ms", _MS, "lower", _SESSIONS),
    ("protocols.record_self_us", "us/record", "lower", _RECORDS),
    ("protocols.records_rejected", _CNT, "higher", _RECORDS),
    ("protocols.pool_waste_frac", "ratio", "lower", _SESSIONS),
    ("trace.record_calls_per_vehicle", _PV, "lower", _GLUE),
    ("trace.self_ms", _MS, "lower", _GLUE),
    ("hardware.price_calls", _CNT, "lower", _RECORDS),
    ("hardware.self_ms", _MS, "lower", _RECORDS),
    ("sim.events", _CNT, "lower", _RECORDS),
    ("sim.host_us_per_event", "us", "lower", _RECORDS),
    ("sim.self_ms", _MS, "lower", _RECORDS),
    ("fleet.orchestrator.self_ms", _MS, "lower",
     ((_E2E, ("storm", "records", "churn", "parallel")),)),
    ("fleet.policy.decide_calls", _CNT, "lower", _CHURN),
    ("fleet.policy.hit_frac", "ratio", "higher", _CHURN),
    ("fleet.policy.self_ms", _MS, "lower", _CHURN),
    ("fleet.topology.self_ms", _MS, "lower", _CHURN),
    ("fleet.stats.self_ms", _MS, "lower", ((_E2E, ("storm", "parallel")),)),
    ("fleet.scenario.compile_ms", _MS, "lower", (("setup_s", ("churn",)),)),
    ("fleet.parallel.worker_busy_ms_max", _MS, "lower", _PARALLEL),
    ("fleet.parallel.imbalance", "ratio", "lower", _PARALLEL),
    ("fleet.parallel.barrier_overhead_ms", _MS, "lower", _PARALLEL),
    ("obs.hook_calls", _CNT, "lower", _TELEMETRY),
    ("obs.self_ms", _MS, "lower", _TELEMETRY),
    ("tracing.overhead", "ratio", "lower", ()),
)


def layer_of(module: str | None) -> str | None:
    """The layer a ``repro`` module belongs to (``None``: not traced)."""
    if not module:
        return None
    for prefix, layer in LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


class Tracer:
    """In-memory span recorder of one process."""

    def __init__(self, run_id: int = 0) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("I")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self.raised = bytearray()
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.cost: dict = {}
        self.run_id = run_id

    def reset(self, run_id: int) -> None:
        """Forget every span, in place (the wrappers hold the arrays)."""
        for column in (self.name_ids, self.starts, self.ends, self.parents):
            del column[:]
        del self.raised[:]
        del self.stack[1:]
        self.counters.clear()
        self.cost = {}
        self.run_id = run_id

    def name_id(self, name: str) -> int:
        """Interned id of a span name (``"<layer>|<module>:<qualname>"``)."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def parent_layer(self) -> str:
        """Layer of the innermost open span ("" outside every span)."""
        top = self.stack[-1]
        if top < 0:
            return ""
        return self.names[self.name_ids[top]].partition("|")[0]

    def inside(self, layer: str) -> bool:
        """Whether any open span belongs to ``layer``."""
        prefix = layer + "|"
        names, name_ids = self.names, self.name_ids
        return any(
            names[name_ids[i]].startswith(prefix) for i in self.stack[1:]
        )

    def _traced(self, fn, nid: int, hook=None):
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, raised, stack = self.parents, self.raised, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            raised.append(0)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def wrap(self, fn, name: str, hook=None):
        """``fn`` recording one span per call.

        ``hook(args, kwargs, result)`` runs after a call returned,
        outside its span, to count what the call did.
        """
        return functools.update_wrapper(
            self._traced(fn, self.name_id(name), hook), fn
        )

    def callback(self, callback):
        """A simulator callback that runs in a span of its defining layer.

        The event loop calls closures the orchestrator scheduled; without
        this their time would count as the simulator's own.
        """
        module = getattr(callback, "__module__", None)
        layer = layer_of(module)
        if layer is None:
            return callback
        name = f"{layer}|{module}:<callback>"
        return self._traced(callback, self.name_id(name))

    def dump(self, path) -> None:
        """Write out what :func:`process_tables` reads: this process's
        spans, hook counters and cost-trace counts."""
        snapshot = {
            "run_id": self.run_id,
            "names": list(self.names),
            "name_ids": self.name_ids,
            "starts": self.starts,
            "ends": self.ends,
            "parents": self.parents,
            "raised": bytes(self.raised),
            "counters": dict(self.counters),
            "cost": dict(self.cost),
        }
        with open(path, "wb") as handle:
            pickle.dump(snapshot, handle, protocol=pickle.HIGHEST_PROTOCOL)


# -- installing the wrappers -------------------------------------------------


def import_layers() -> None:
    """Import every layer module, so no callable escapes the wrapping."""
    for prefix, _ in LAYER_PREFIXES:
        module = importlib.import_module(prefix)
        for info in pkgutil.walk_packages(
            getattr(module, "__path__", ()), prefix + "."
        ):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)


def _wrappable(fn) -> bool:
    # Generators and context managers return before their body runs, so
    # a span around the call would measure nothing.
    target = inspect.unwrap(fn)
    return not (
        inspect.isgeneratorfunction(target)
        or inspect.iscoroutinefunction(target)
    )


def _hooks(tracer: Tracer) -> dict:
    """Span name -> hook counting what the call did."""
    counters = tracer.counters

    def record(args, kwargs, result):
        event = args[0]
        if event in _SYM_EVENTS and tracer.inside("backend"):
            counters[event] += args[1] if len(args) > 1 else kwargs.get("n", 1)

    def refill(args, kwargs, result):
        counters["pool.built"] += args[2] if len(args) > 2 else kwargs["size"]

    def take(args, kwargs, result):
        counters["pool.taken"] += 1

    def decide(args, kwargs, result):
        counters["policy.hits"] += result is not None

    def issue_batch(args, kwargs, result):
        counters["ecqv.batches"] += 1
        counters["ecqv.issued"] += len(result)

    return {
        "trace|repro.trace:record": record,
        "protocols|repro.protocols.pool:EphemeralPool.refill": refill,
        "protocols|repro.protocols.pool:EphemeralPool.take": take,
        "fleet.policy|repro.fleet.policy:PolicyEngine.decide": decide,
        "ecqv|repro.ecqv.ca:CertificateAuthority.issue_batch": issue_batch,
    }


def _backend_ec_hook(tracer: Tracer, method: str):
    """Count the cost-trace events a backend EC call stands for."""
    event = _EC_METHODS[method]
    counters = tracer.counters
    batch = method.endswith("_batch")

    def hook(args, kwargs, result):
        if tracer.parent_layer() == "backend":
            return  # a backend method calling another: counted once
        if batch:
            # Zero scalars and None terms are degenerate: no event.
            counters[event] += sum(1 for item in args[2] if item)
        else:
            counters[event] += 1

    return hook


class _OpensslEc:
    """Stands in for ``cryptography``'s ``ec`` module inside
    :mod:`repro.backend.ec_accelerated`, with a span per OpenSSL call."""

    def __init__(self, tracer: Tracer, real) -> None:
        self._real = real
        self._derive = tracer.wrap(
            real.derive_private_key, "openssl|cryptography:derive_private_key"
        )
        self._exchange = tracer.wrap(
            lambda key, algorithm, peer: key.exchange(algorithm, peer),
            "openssl|cryptography:ECPrivateKey.exchange",
        )
        self._public_key = tracer.wrap(
            lambda key: key.public_key(),
            "openssl|cryptography:ECPrivateKey.public_key",
        )
        self._public_numbers = tracer.wrap(
            lambda key: key.public_numbers(),
            "openssl|cryptography:ECPublicKey.public_numbers",
        )
        self._load_public = tracer.wrap(
            lambda numbers: numbers.public_key(),
            "openssl|cryptography:EllipticCurvePublicNumbers.public_key",
        )

    def __getattr__(self, name):
        return getattr(self._real, name)

    def derive_private_key(self, private_value, curve):
        return _PrivateKey(self, self._derive(private_value, curve))

    def EllipticCurvePublicNumbers(self, x, y, curve):  # noqa: N802
        numbers = self._real.EllipticCurvePublicNumbers(x, y, curve)
        return _PublicNumbers(self, numbers)


class _PrivateKey:
    __slots__ = ("_ops", "_key")

    def __init__(self, ops: _OpensslEc, key) -> None:
        self._ops, self._key = ops, key

    def exchange(self, algorithm, peer):
        return self._ops._exchange(self._key, algorithm, peer)

    def public_key(self):
        return _PublicKey(self._ops, self._ops._public_key(self._key))


class _PublicKey:
    __slots__ = ("_ops", "_key")

    def __init__(self, ops: _OpensslEc, key) -> None:
        self._ops, self._key = ops, key

    def public_numbers(self):
        return self._ops._public_numbers(self._key)


class _PublicNumbers:
    __slots__ = ("_ops", "_numbers")

    def __init__(self, ops: _OpensslEc, numbers) -> None:
        self._ops, self._numbers = ops, numbers

    def public_key(self):
        return self._ops._load_public(self._numbers)


def _traced_schedule_at(tracer: Tracer, schedule_at):
    def schedule_at_traced(self, time, callback):
        return schedule_at(self, time, tracer.callback(callback))

    return functools.update_wrapper(schedule_at_traced, schedule_at)


def _traced_worker(tracer: Tracer, worker_run, spans_dir: str):
    """The parallel worker entry, shipping the worker's spans back.

    Forked workers inherit the wrappers and the parent's spans; each
    starts afresh under its own run id and writes its spans and cost
    counts to ``spans_dir`` before returning its snapshot.
    """
    from repro import trace as cost_trace

    traced = tracer.wrap(worker_run, WORKER_SPAN)

    def _worker_run(payload):
        tracer.reset(run_id=payload[0] + 1)
        with cost_trace.trace() as cost:
            snapshot = traced(payload)
        tracer.cost = dict(cost.counts)
        tracer.dump(f"{spans_dir}/worker-{payload[0]}.pkl")
        return snapshot

    # Same name and module, so the pool pickles it by reference to the
    # module attribute it replaces.
    return functools.update_wrapper(_worker_run, worker_run)


def install(tracer: Tracer, spans_dir: str) -> list:
    """Wrap every layer's public callables; returns the undo list.

    Callers bind names with ``from x import y``, so each wrapped
    function replaces every ``repro.*`` module attribute holding it,
    not only the defining module's.  Methods are wrapped on their class.
    """
    import_layers()
    hooks = _hooks(tracer)
    undo: list = []
    functions: dict[int, tuple] = {}

    def wrap(fn, name):
        hook = hooks.get(name)
        if hook is None and name.startswith("backend|"):
            method = name.rpartition(".")[2]
            if method in _EC_METHODS:
                hook = _backend_ec_hook(tracer, method)
        if name == "sim|repro.sim.engine:Simulator.schedule_at":
            fn = _traced_schedule_at(tracer, fn)
        return tracer.wrap(fn, name, hook)

    for modname, module in sorted(sys.modules.items()):
        layer = layer_of(modname)
        if layer is None or module is None:
            continue
        for attr, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != modname:
                continue
            if isinstance(obj, types.FunctionType):
                if not attr.startswith("_") and _wrappable(obj):
                    name = f"{layer}|{modname}:{obj.__qualname__}"
                    functions[id(obj)] = (obj, wrap(obj, name))
            elif isinstance(obj, type) and not issubclass(obj, BaseException):
                extras = EXTRA_METHODS.get(f"{modname}:{obj.__qualname__}", ())
                for key, member in list(vars(obj).items()):
                    if key.startswith("_") and key not in extras:
                        continue
                    kind = type(member)
                    if kind in (staticmethod, classmethod):
                        fn = member.__func__
                    elif kind is types.FunctionType:
                        fn = member
                    else:
                        continue  # properties, constants, nested classes
                    if not _wrappable(fn):
                        continue
                    wrapped = wrap(fn, f"{layer}|{modname}:{fn.__qualname__}")
                    if kind is not types.FunctionType:
                        wrapped = kind(wrapped)
                    undo.append((obj, key, member))
                    setattr(obj, key, wrapped)
    for modname, module in list(sys.modules.items()):
        if module is None or not modname.startswith("repro"):
            continue
        for attr, obj in list(vars(module).items()):
            entry = functions.get(id(obj))
            if entry is not None and entry[0] is obj:
                undo.append((module, attr, obj))
                setattr(module, attr, entry[1])

    from repro.backend import ec_accelerated
    from repro.fleet import parallel

    if ec_accelerated.OPENSSL_EC:
        undo.append((ec_accelerated, "_x_ec", ec_accelerated._x_ec))
        ec_accelerated._x_ec = _OpensslEc(tracer, ec_accelerated._x_ec)
    undo.append((parallel, "_worker_run", parallel._worker_run))
    parallel._worker_run = _traced_worker(
        tracer, parallel._worker_run, spans_dir
    )
    return undo


def uninstall(undo: list) -> None:
    """Put back everything :func:`install` replaced."""
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# -- the per-layer split ----------------------------------------------------


def self_times(starts, ends, parents) -> array:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent; nested spans subtract only from
    their own parent, and overlapping or back-to-back children are not
    counted twice.
    """
    n = len(starts)
    order = range(n)
    if any(starts[i] > starts[i + 1] for i in range(n - 1)):
        order = sorted(order, key=starts.__getitem__)
    covered = array("q", bytes(8 * n))
    reach = array("q", starts)
    for i in order:
        p = parents[i]
        if p < 0:
            continue
        begin = max(starts[i], reach[p])
        end = min(ends[i], ends[p])
        if end > begin:
            covered[p] += end - begin
            reach[p] = end
    return array("q", (ends[i] - starts[i] - covered[i] for i in range(n)))


def process_tables(snap: dict) -> dict:
    """Per-name tables of one process's spans.

    Run-phase spans (the ``bench|run`` and worker trees) fill ``calls``,
    ``self``, ``entries`` (calls into a layer from outside it),
    ``failed`` (entries that raised), ``root_self`` (self time of the
    layer-entry span plus the same-layer spans under it) and ``groups``;
    setup-phase (``bench|setup`` tree) self time goes to ``setup_self``.
    Spans under any other root are the benchmark's own and ignored.
    """
    names, nids = snap["names"], snap["name_ids"]
    parents, raised = snap["parents"], snap["raised"]
    selfs = self_times(snap["starts"], snap["ends"], parents)
    layers: dict[str, int] = {}
    layer_id = [
        layers.setdefault(nm.partition("|")[0], len(layers)) for nm in names
    ]
    group = [GROUPS.get(nm) for nm in names]
    phase_of_root = {
        names.index(name): phase
        for name, phase in (
            (SETUP_SPAN, _SETUP),
            (RUN_SPAN, _RUN),
            (WORKER_SPAN, _RUN),
        )
        if name in names
    }
    k = len(names)
    calls, entries, failed = [0] * k, [0] * k, [0] * k
    self_ns, root_self, setup_self = [0] * k, [0] * k, [0] * k
    groups: Counter = Counter()
    n = len(nids)
    root = array("i", bytes(4 * n))
    phases = bytearray(n)
    for i in range(n):
        nid, p, own = nids[i], parents[i], selfs[i]
        if p < 0:
            r, phase = i, phase_of_root.get(nid, _OTHER)
        else:
            phase = phases[p]
            r = root[p] if layer_id[nids[p]] == layer_id[nid] else i
        root[i] = r
        phases[i] = phase
        if phase != _RUN:
            if phase == _SETUP:
                setup_self[nid] += own
            continue
        calls[nid] += 1
        self_ns[nid] += own
        root_self[nids[r]] += own
        if r == i:
            entries[nid] += 1
            failed[nid] += raised[i]
        g = group[nid]
        if g is not None and (p < 0 or group[nids[p]] != g):
            groups[g] += 1

    def named(column):
        return Counter({names[j]: v for j, v in enumerate(column) if v})

    starts, ends = snap["starts"], snap["ends"]
    durations: dict[str, list] = {WORKER_SPAN: [], RUN_PARALLEL_SPAN: []}
    for name in durations:
        if name in names:
            target = names.index(name)
            durations[name] = [
                ends[i] - starts[i] for i in range(n) if nids[i] == target
            ]
    return {
        "calls": named(calls),
        "entries": named(entries),
        "failed": named(failed),
        "self": named(self_ns),
        "root_self": named(root_self),
        "setup_self": named(setup_self),
        "groups": groups,
        "durations": durations,
        "counters": Counter(snap["counters"]),
        "cost": Counter(snap["cost"]),
    }


def merge_tables(tables: list) -> dict:
    """Sum the tables of every process of one run."""
    merged: dict = {}
    for table in tables:
        for key, value in table.items():
            if key == "durations":
                slot = merged.setdefault(key, {})
                for name, values in value.items():
                    slot.setdefault(name, []).extend(values)
            else:
                merged.setdefault(key, Counter()).update(value)
    return merged


def _layer(name: str) -> str:
    return name.partition("|")[0]


def _backend_kind(name: str) -> str:
    qualname = name.partition(":")[2]
    owner, _, method = qualname.rpartition(".")
    if method.startswith("ec_") or owner == "AcceleratedEc":
        return "ec"
    if method in _BACKEND_OTHER:
        return "other"
    return "sym"


def layer_metrics(t: dict, vehicles: int, records: int, ca_batch_limit: int,
                  wall_s: float, traced_wall_s: float) -> dict:
    """The per-layer metrics of one traced run (see :data:`PER_LAYER`).

    ``wall_s`` is the untraced ``run()`` wall time of the same workload
    and seed, ``traced_wall_s`` the traced one.
    """
    calls, entries, failed = t["calls"], t["entries"], t["failed"]
    root_self, groups, counters = t["root_self"], t["groups"], t["counters"]

    def total(table, layer, kind=None):
        return sum(
            v
            for nm, v in table.items()
            if _layer(nm) == layer
            and (kind is None or _backend_kind(nm) == kind)
        )

    def self_ms(layer):
        return total(t["self"], layer) / 1e6

    events = calls["sim|repro.sim.engine:Simulator.step"]
    decides = calls["fleet.policy|repro.fleet.policy:PolicyEngine.decide"]
    built = counters["pool.built"]
    busy = t["durations"][WORKER_SPAN]
    barrier = t["durations"][RUN_PARALLEL_SPAN]
    m = {
        "openssl.derive_per_vehicle":
            calls["openssl|cryptography:derive_private_key"] / vehicles,
        "openssl.exchange_per_vehicle":
            calls["openssl|cryptography:ECPrivateKey.exchange"] / vehicles,
        "openssl.self_ms": self_ms("openssl"),
        "backend.ec_calls_per_vehicle":
            total(entries, "backend", "ec") / vehicles,
        "backend.ec_self_ms": total(root_self, "backend", "ec") / 1e6,
        "backend.sym_calls_per_record":
            total(entries, "backend", "sym") / records,
        "backend.sym_self_ms": total(root_self, "backend", "sym") / 1e6,
        "backend.get_backend_calls":
            calls["backend|repro.backend:get_backend"],
        "ec.sqrt_mod_calls_per_vehicle": groups["ec.sqrt_mod"] / vehicles,
        "ec.inverse_calls_per_vehicle": groups["ec.inverse"] / vehicles,
        "ec.self_ms": self_ms("ec"),
        "ecdsa.verify_calls_per_vehicle": groups["ecdsa.verify"] / vehicles,
        "ecdsa.ecdh_calls_per_vehicle": groups["ecdsa.ecdh"] / vehicles,
        "ecdsa.self_ms": self_ms("ecdsa"),
        "ecqv.certs_issued": counters["ecqv.issued"],
        "ecqv.batch_fill": (
            counters["ecqv.issued"] / counters["ecqv.batches"] / ca_batch_limit
            if counters["ecqv.batches"]
            else 0.0
        ),
        "ecqv.rejected": total(failed, "ecqv"),
        "ecqv.self_ms": self_ms("ecqv"),
        "primitives.self_ms": self_ms("primitives"),
        "protocols.handshakes": sum(entries[nm] for nm in _HANDSHAKE_ROOTS),
        "protocols.handshake_self_ms":
            sum(root_self[nm] for nm in _HANDSHAKE_ROOTS) / 1e6,
        "protocols.record_self_us": sum(
            root_self[nm] for nm in _RECORD_SEND + _RECORD_RECEIVE
        ) / 1e3 / records,
        "protocols.records_rejected":
            sum(failed[nm] for nm in _RECORD_RECEIVE),
        "protocols.pool_waste_frac": (
            (built - counters["pool.taken"]) / built if built else 0.0
        ),
        "trace.record_calls_per_vehicle":
            calls["trace|repro.trace:record"] / vehicles,
        "trace.self_ms": self_ms("trace"),
        "hardware.price_calls": total(entries, "hardware"),
        "hardware.self_ms": self_ms("hardware"),
        "sim.events": events,
        "sim.host_us_per_event": wall_s * 1e6 / events if events else 0.0,
        "sim.self_ms": self_ms("sim"),
        "fleet.orchestrator.self_ms": self_ms("fleet.orchestrator"),
        "fleet.policy.decide_calls": decides,
        "fleet.policy.hit_frac":
            counters["policy.hits"] / decides if decides else 0.0,
        "fleet.policy.self_ms": self_ms("fleet.policy"),
        "fleet.topology.self_ms": self_ms("fleet.topology"),
        "fleet.stats.self_ms": self_ms("fleet.stats"),
        "fleet.scenario.compile_ms":
            total(t["setup_self"], "fleet.scenario") / 1e6,
        "fleet.parallel.worker_busy_ms_max": max(busy, default=0) / 1e6,
        "fleet.parallel.imbalance": (
            max(busy) * len(busy) / sum(busy) if busy else 0.0
        ),
        "fleet.parallel.barrier_overhead_ms": (
            (max(barrier) - max(busy)) / 1e6 if busy and barrier else 0.0
        ),
        "obs.hook_calls": total(entries, "obs"),
        "obs.self_ms": self_ms("obs"),
        "tracing.overhead": traced_wall_s / wall_s,
    }
    return m


def integrity(t: dict) -> list[str]:
    """Cost-trace classes whose wrapper counts disagree with the trace.

    Each backend EC call stands for one ``ec.*`` event per non-degenerate
    item, and every ``sha2.block``/``hmac.call``/``aes.block`` event must
    be recorded while a wrapped backend call is open; a mismatch means a
    binding site escaped the wrapping.
    """
    return [
        f"{event}: wrappers {t['counters'][event]} != trace {t['cost'][event]}"
        for event in CHECKED_EVENTS
        if t["counters"][event] != t["cost"][event]
    ]
