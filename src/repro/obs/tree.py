"""Hierarchical digest trees over the deterministic event stream.

The reproduction's headline guarantee — bit-identical stats digests
across backends, streaming modes and worker counts — is binary: two
digests either match or they do not.  This module turns the
deterministic event stream :mod:`repro.obs` records into a *localizable*
form: a Merkle-style hierarchy

    run ── shard:N ──────── span / metric leaves
        ├─ veh:XXxxxxxx ─── veh:XXXXxxxx ─ … ─ vehicle spans
        ├─ metrics ───────── unlabeled metric leaves
        ├─ heartbeats ────── beat:XXxxxxxx ─ … ─ beat leaves
        ├─ spans ─────────── run-level span leaves (v2v, injections)
        └─ meta

where every leaf digest is the SHA-256 of one event's canonical JSON
(with the non-deterministic ``wall`` annotations stripped) and every
internal node digest is the SHA-256 of its children's ``(name, digest)``
pairs in sorted order.  Two runs agree at the root iff they agree on
every event; when they do not, walking the two trees top-down finds the
first diverging leaf in a number of node comparisons bounded by
``fanout x depth`` — *independent of the number of events* — because
unbounded populations (vehicles, heartbeats, run-level spans) are
bucketed into a fixed-fanout radix trie on their zero-padded ids
(``veh:00xxxxxx -> veh:0012xxxx -> veh:001234xx -> veh:00123456``).

Three construction paths, one structure:

* **incrementally** — :class:`DigestTreeBuilder.add_event` accepts one
  event at a time (the observer hook sites feed it as events are
  produced);
* **from a run** — :meth:`DigestTree.from_observer` /
  :meth:`DigestTree.from_events` over
  :meth:`repro.obs.Observer.deterministic_events`;
* **offline** — :meth:`DigestTree.from_events` over a JSONL archive
  loaded with :func:`repro.obs.read_jsonl`.

Split/merge law, matching :meth:`repro.obs.MetricsRegistry.absorb`:
:meth:`DigestTree.merge` unions span/heartbeat leaves (which are
disjoint across a partition — span ids never collide) and *folds*
metric leaves with the metric merge laws (counters add, gauges max,
histograms merge exactly), then recomputes every digest bottom-up.
That makes ``merge ≡ recomputation`` a theorem the parallel
orchestrator can check: each :class:`~repro.fleet.parallel.WorkerSnapshot`
ships the metric-plane subtree root of its rendered ledger, and the
parent proves that folding the worker subtrees produces exactly the
tree of the merged ledger's rendering
(``tests/fleet/test_divergence_parallel.py``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from ..errors import ObsError
from .metrics import merge_metric_events

__all__ = [
    "DigestTree",
    "DigestTreeBuilder",
    "TREE_SECTIONS",
    "TreeNode",
    "event_tree_path",
]

#: Top-level tree sections, keyed by the event types they hold.  Pass a
#: subset as ``include=`` to build a plane-restricted tree (the CI
#: diff-parity step compares workers=2 vs workers=1 runs on the
#: ``metrics`` plane, which the parallel merge laws make bit-identical,
#: while spans and heartbeats stay worker-local by design).
TREE_SECTIONS = ("spans", "metrics", "heartbeats", "meta")

_SECTION_BY_TYPE = {
    "span": "spans",
    "counter": "metrics",
    "gauge": "metrics",
    "histogram": "metrics",
    "heartbeat": "heartbeats",
    "meta": "meta",
}

#: Radix-bucket geometry: ids are zero-padded to ``_ID_WIDTH`` digits
#: and grouped ``_ID_GROUP`` digits per trie level, so every bucket has
#: at most ``10 ** _ID_GROUP`` children regardless of population.
_ID_WIDTH = 8
_ID_GROUP = 2


def _strip_wall(event: dict) -> dict:
    """The event without its non-deterministic ``wall`` annotation."""
    if "wall" in event:
        return {key: value for key, value in event.items() if key != "wall"}
    return event


def _radix(prefix: str, number: int) -> tuple[str, ...]:
    """Radix-trie path for ``prefix``-kind id ``number``.

    Returns the bucket names (coarse to fine) followed by the leaf name;
    buckets share high-order digit prefixes, so ``_radix("veh", 1234)``
    is ``("veh:00xxxxxx", "veh:0000xxxx", "veh:000012xx",
    "veh:00001234")`` and every bucket has at most ``10 ** _ID_GROUP``
    children no matter how many ids the run produced.
    """
    digits = f"{int(number):0{_ID_WIDTH}d}"
    if len(digits) > _ID_WIDTH:
        # Ids beyond the padded width still bucket deterministically —
        # they all share the overflow buckets of their own length.
        digits = digits.zfill(len(digits))
    levels = []
    for cut in range(_ID_GROUP, len(digits), _ID_GROUP):
        levels.append(f"{prefix}:{digits[:cut]}{'x' * (len(digits) - cut)}")
    levels.append(f"{prefix}:{digits}")
    return tuple(levels)


def _label_text(labels: dict, skip: tuple = ()) -> str:
    parts = [
        f"{key}={labels[key]}"
        for key in sorted(labels)
        if key not in skip
    ]
    return ",".join(parts)


def _span_leaf(event: dict) -> str:
    return f"span:{event.get('cat', '?')}:{int(event['id']):0{_ID_WIDTH}d}"


def event_tree_path(event: dict, heartbeat_seq: int = 0) -> tuple:
    """The tree path (section-first) one deterministic event lives at.

    Placement rules, mirroring the fleet instrumentation's hierarchy:

    * spans with a ``vehicle`` attribute hang off that vehicle's radix
      node; with only a ``shard`` attribute off that shard's node;
      otherwise off the run-level ``spans`` trie (keyed by span id);
    * metric events with a ``shard`` label live under that shard's
      ``metrics`` child, everything else under the top-level
      ``metrics`` node;
    * heartbeats are keyed by stream order (``heartbeat_seq``), the
      only stable identity they have;
    * the ``meta`` event is a single leaf.

    Vehicles hang directly off the root rather than under a shard node:
    migration makes shard residency time-varying, so a vehicle has no
    unique home shard to nest under.
    """
    kind = event.get("type")
    section = _SECTION_BY_TYPE.get(kind)
    if section is None:
        raise ObsError(
            f"cannot place event of unknown type {kind!r} in the tree"
        )
    if kind == "span":
        attrs = event.get("attrs", {})
        if "vehicle" in attrs:
            return (*_radix("veh", attrs["vehicle"]), _span_leaf(event))
        if "shard" in attrs:
            return (f"shard:{int(attrs['shard'])}", _span_leaf(event))
        return ("spans", *_radix("span", event["id"]))
    if section == "metrics":
        labels = event.get("labels", {})
        leaf = f"{kind}:{event['name']}"
        text = _label_text(labels)
        if text:
            leaf = f"{leaf}|{text}"
        if "shard" in labels:
            return (f"shard:{int(labels['shard'])}", "metrics", leaf)
        return ("metrics", leaf)
    if kind == "heartbeat":
        return ("heartbeats", *_radix("beat", heartbeat_seq))
    return ("meta", "meta")


def _leaf_digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(b"leaf\0" + canonical.encode()).hexdigest()


def _node_digest(children: dict) -> str:
    material = "\n".join(
        f"{name}\t{children[name].digest}" for name in sorted(children)
    )
    return hashlib.sha256(b"node\0" + material.encode()).hexdigest()


@dataclass(frozen=True)
class TreeNode:
    """One node of a digest tree.

    Leaves carry the (wall-stripped) event ``payload`` and the 1-based
    archive ``lines`` it came from; internal nodes carry ``children``.
    ``leaf_count`` is the number of leaves in the subtree, so a walk can
    report how much evidence sits under any digest.
    """

    name: str
    digest: str
    children: dict = field(default_factory=dict)
    payload: dict | None = None
    lines: tuple = ()
    leaf_count: int = 1

    @property
    def is_leaf(self) -> bool:
        """True when this node carries an event payload (no children)."""
        return self.payload is not None

    def as_dict(self) -> dict:
        """JSON-ready recursive rendering (children in sorted order)."""
        out = {"name": self.name, "digest": self.digest,
               "leaves": self.leaf_count}
        if self.is_leaf:
            out["payload"] = self.payload
            if self.lines:
                out["lines"] = list(self.lines)
        else:
            out["children"] = [
                self.children[name].as_dict()
                for name in sorted(self.children)
            ]
        return out


class DigestTreeBuilder:
    """Incremental digest-tree construction, one event at a time.

    The builder is the single construction path — the batch classmethods
    on :class:`DigestTree` are loops over :meth:`add_event` — so the
    incremental and offline trees are structurally identical by
    construction.

    Args:
        include: optional subset of :data:`TREE_SECTIONS`; events whose
            section is excluded are counted (for line numbers) but not
            inserted.
    """

    def __init__(self, include=None) -> None:
        if include is not None:
            include = frozenset(include)
            unknown = include - frozenset(TREE_SECTIONS)
            if unknown:
                raise ObsError(
                    f"unknown tree sections {sorted(unknown)}"
                    f" (known: {list(TREE_SECTIONS)})"
                )
        self.include = include
        self._leaves: dict[tuple, dict] = {}
        self._lines: dict[tuple, tuple] = {}
        self._events = 0
        self._heartbeats = 0

    def add_event(self, event: dict, line: int | None = None) -> None:
        """Insert one deterministic event (``line`` is 1-based).

        Span/heartbeat/meta leaves must be unique; a duplicate path
        raises :class:`ObsError`.  Metric leaves *fold* under the metric
        merge laws (counters add, gauges max, histograms merge exactly),
        which is what makes :meth:`DigestTree.merge` agree with
        :meth:`repro.obs.MetricsRegistry.absorb`.
        """
        self._events += 1
        if line is None:
            line = self._events
        kind = event.get("type")
        section = _SECTION_BY_TYPE.get(kind)
        if section is None:
            raise ObsError(
                f"line {line}: cannot add event of unknown type {kind!r}"
            )
        seq = self._heartbeats
        if kind == "heartbeat":
            self._heartbeats += 1
        if self.include is not None and section not in self.include:
            return
        path = event_tree_path(event, heartbeat_seq=seq)
        payload = _strip_wall(event)
        if path in self._leaves:
            if section != "metrics":
                raise ObsError(
                    f"line {line}: duplicate tree leaf at"
                    f" {'/'.join(path)}"
                )
            payload = merge_metric_events(self._leaves[path], payload)
            self._lines[path] = (*self._lines[path], line)
        else:
            self._lines[path] = (line,)
        self._leaves[path] = payload

    def add_events(self, events) -> "DigestTreeBuilder":
        """Insert an iterable of events (lines numbered from 1)."""
        for event in events:
            self.add_event(event)
        return self

    def build(self) -> "DigestTree":
        """Freeze the accumulated leaves into a hashed tree."""
        return DigestTree(_assemble("run", self._leaves, self._lines))


def _assemble(name: str, leaves: dict, lines: dict) -> TreeNode:
    """Nest flat ``{path: payload}`` leaves into a hashed node tree."""
    groups: dict[str, dict] = {}
    group_lines: dict[str, dict] = {}
    for path, payload in leaves.items():
        head, rest = path[0], path[1:]
        if rest:
            groups.setdefault(head, {})[rest] = payload
            group_lines.setdefault(head, {})[rest] = lines[path]
        else:
            if head in groups and isinstance(
                next(iter(groups[head])), tuple
            ):  # pragma: no cover - paths are fixed-depth per section
                raise ObsError(f"leaf/branch collision at {head!r}")
            groups[head] = payload
            group_lines[head] = lines[path]
    children: dict[str, TreeNode] = {}
    for child_name, content in groups.items():
        if isinstance(content, dict) and content and all(
            isinstance(key, tuple) for key in content
        ):
            children[child_name] = _assemble(
                child_name, content, group_lines[child_name]
            )
        else:
            children[child_name] = TreeNode(
                name=child_name,
                digest=_leaf_digest(content),
                payload=content,
                lines=tuple(group_lines[child_name]),
            )
    return TreeNode(
        name=name,
        digest=_node_digest(children),
        children=children,
        leaf_count=sum(child.leaf_count for child in children.values()),
    )


class DigestTree:
    """A frozen, hashed hierarchy over one run's deterministic events."""

    def __init__(self, root: TreeNode) -> None:
        self.root = root

    @property
    def root_digest(self) -> str:
        """The run-level Merkle root; equal iff every leaf is equal."""
        return self.root.digest

    @property
    def leaf_count(self) -> int:
        """Number of event leaves in the whole tree."""
        return self.root.leaf_count

    # -- construction -------------------------------------------------------

    @classmethod
    def from_events(cls, events, include=None) -> "DigestTree":
        """Build from an event list (a loaded JSONL archive, usually)."""
        return DigestTreeBuilder(include=include).add_events(events).build()

    @classmethod
    def from_observer(cls, observer, include=None) -> "DigestTree":
        """Build from a live observer's deterministic event stream."""
        return cls.from_events(
            observer.deterministic_events(), include=include
        )

    @classmethod
    def from_metrics(cls, snapshot) -> "DigestTree":
        """The metric-plane tree of one :class:`MetricsSnapshot`.

        This is the subtree each parallel worker ships (of its rendered
        ledger): metric leaves only, so the parent's fold of worker
        subtrees must equal the tree of the merged ledger's rendering.
        """
        return cls.from_events(snapshot.events(), include=("metrics",))

    # -- navigation ---------------------------------------------------------

    def node(self, path) -> TreeNode:
        """The node at ``path`` (a tuple of child names from the root)."""
        node = self.root
        for name in path:
            if name not in node.children:
                raise ObsError(
                    f"no tree node at {'/'.join(path)}:"
                    f" {name!r} not under {node.name!r}"
                )
            node = node.children[name]
        return node

    def leaves(self) -> dict:
        """Flat ``{path: payload}`` view of every leaf."""
        out: dict[tuple, dict] = {}

        def walk(node: TreeNode, prefix: tuple) -> None:
            if node.is_leaf:
                out[prefix] = node.payload
                return
            for name in sorted(node.children):
                walk(node.children[name], (*prefix, name))

        walk(self.root, ())
        return out

    def as_dict(self) -> dict:
        """JSON-ready recursive rendering of the whole tree."""
        return self.root.as_dict()

    # -- algebra ------------------------------------------------------------

    def merge(self, *others: "DigestTree") -> "DigestTree":
        """Fold trees under the split/merge law; digests recomputed.

        Span, heartbeat and meta leaves must be disjoint across the
        operands (a collision means the operands were not a partition
        of one run and raises :class:`ObsError`); metric leaves fold
        with the metric merge laws.  The result is *recomputed* bottom
        up — ``merge(parts).root_digest == from_events(whole).root_digest``
        whenever the parts partition the whole, which is the law the
        property suite drives and the parallel orchestrator asserts.
        """
        leaves: dict[tuple, dict] = {}
        for tree in (self, *others):
            for path, payload in tree.leaves().items():
                if path not in leaves:
                    leaves[path] = payload
                elif payload.get("type") in ("counter", "gauge",
                                             "histogram"):
                    leaves[path] = merge_metric_events(
                        leaves[path], payload
                    )
                else:
                    raise ObsError(
                        "merge collision on non-metric leaf"
                        f" {'/'.join(path)} — operands are not a"
                        " partition of one run"
                    )
        lines = {path: () for path in leaves}
        return DigestTree(_assemble("run", leaves, lines))
