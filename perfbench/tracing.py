"""Spans around the calls into each adastrat layer, recorded from outside the package.

``campaign.py`` binds the functions of the other layers with ``from .x import
y``, so they are wrapped in ``adastrat.campaign``'s namespace; ``persist`` is
used through its module, so its functions are wrapped there, which also
catches persist's calls to its own helpers. Wrappers are installed only while
a traced campaign runs. Spans stay in memory and are written once, at the end.
"""
from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from adastrat import campaign as campaign_module
from adastrat import persist as persist_module

LAYERS = ("strata", "allocation", "surrogate", "conditional", "estimator", "evaluators", "persist", "campaign")
ROOT_SPAN = "campaign.campaign"


@dataclass
class Span:
    id: int
    parent: Optional[int]
    campaign: str
    name: str
    """``<layer>.<function>``."""
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class CountingGenerator:
    """A numpy Generator stand-in that counts the draws a layer takes from it.

    ``draws`` counts points (rows of each returned array), ``values`` counts
    every number drawn. The stream itself is the wrapped generator's, so the
    layer's results are unchanged.
    """

    def __init__(self, generator: np.random.Generator):
        self._generator = generator
        self.draws = 0
        self.values = 0

    def __getattr__(self, name):
        attr = getattr(self._generator, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            self.draws += np.shape(out)[0] if np.ndim(out) else 1
            self.values += int(np.size(out))
            return out

        return counted


def _targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) of every function the tracer wraps."""
    out = []
    for attr, fn in vars(campaign_module).items():
        if not inspect.isfunction(fn) or not fn.__module__.startswith("adastrat."):
            continue
        layer = fn.__module__.rpartition(".")[2]
        if layer == "campaign" and attr.startswith("_"):
            continue
        if layer in LAYERS and layer != "persist":
            out.append((campaign_module, attr, f"{layer}.{fn.__name__}"))
    for attr, fn in vars(persist_module).items():
        if (
            inspect.isfunction(fn)
            and fn.__module__ == persist_module.__name__
            and attr.startswith(("read_", "write_", "append_", "atomic_"))
        ):
            out.append((persist_module, attr, f"persist.{attr}"))
    return out


_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def _written_bytes(name: str, fn, args, kwargs) -> Optional[int]:
    """Bytes handed to the file system by persist's two writing primitives."""
    if name == "persist.atomic_write_text":
        return len(_signature(fn).bind(*args, **kwargs).arguments["text"].encode())
    if name == "persist.append_log":
        message = _signature(fn).bind(*args, **kwargs).arguments["message"]
        return len((message.rstrip("\n") + "\n").encode())
    return None


class Tracer:
    """Records spans of the calling thread; every wrapped function runs on it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._targets = _targets()
        self._stack: list[Span] = []
        self._campaign: Optional[str] = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self._campaign, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def campaign(self, campaign_id: str):
        """Trace one campaign: wrappers in place, everything under one root span."""
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in self._targets]
        for (owner, attr, fn), (_, _, name) in zip(originals, self._targets):
            setattr(owner, attr, self._wrap(fn, name))
        self._campaign = campaign_id
        try:
            with self.span(ROOT_SPAN):
                yield
        finally:
            self._campaign = None
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counters = []

            def count(value):
                if isinstance(value, np.random.Generator):
                    counters.append(CountingGenerator(value))
                    return counters[-1]
                return value

            args = tuple(count(a) for a in args)
            kwargs = {k: count(v) for k, v in kwargs.items()}
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if counters:
                span.attrs["draws"] = sum(c.draws for c in counters)
                span.attrs["values"] = sum(c.values for c in counters)
            written = _written_bytes(name, fn, args, kwargs)
            if written is not None:
                span.attrs["bytes"] = written
            if name == "allocation.select_candidates":
                span.attrs["kept"] = len(result)
            if name == "evaluators.evaluate_batch":
                span.attrs["requests"] = len(result.results) + len(result.failures)
                span.attrs["failed"] = len(result.failures)
                span.attrs["request_s"] = [r.wall_time for r in result.results]
            return result

        return traced

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


@dataclass
class CampaignTrace:
    """One traced campaign, reduced: wall time, time per function, self time per layer."""

    wall: float
    inclusive: dict[str, float]
    """Summed span time per function name, children included."""
    layer_self: dict[str, float]
    """Span time per layer minus the time of each span's direct children."""
    attrs: dict[str, list]
    """Per function name, the attrs dicts of its spans."""
    persist_top: dict[str, tuple[int, float]]
    """``read``/``write``: calls into persist from other layers, and their time."""


def reduce(spans: list[Span]) -> dict[str, CampaignTrace]:
    by_campaign: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_campaign[s.campaign].append(s)
    out = {}
    for cid, group in by_campaign.items():
        by_id = {s.id: s for s in group}
        child_time: dict[int, float] = defaultdict(float)
        for s in group:
            if s.parent is not None:
                child_time[s.parent] += s.seconds
        inclusive: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        attrs: dict[str, list] = defaultdict(list)
        persist_top = {"read": [0, 0.0], "write": [0, 0.0]}
        wall = 0.0
        for s in group:
            inclusive[s.name] += s.seconds
            layer_self[s.layer] += s.seconds - child_time[s.id]
            if s.attrs:
                attrs[s.name].append(s.attrs)
            if s.name == ROOT_SPAN:
                wall = s.seconds
            parent = by_id.get(s.parent)
            if s.layer == "persist" and (parent is None or parent.layer != "persist"):
                kind = "read" if s.name.startswith("persist.read") else "write"
                persist_top[kind][0] += 1
                persist_top[kind][1] += s.seconds
        out[cid] = CampaignTrace(
            wall=wall,
            inclusive=dict(inclusive),
            layer_self=layer_self,
            attrs=dict(attrs),
            persist_top={k: (v[0], v[1]) for k, v in persist_top.items()},
        )
    return out
