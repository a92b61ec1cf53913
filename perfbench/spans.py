"""In-memory spans around calls into the package, taken from outside it.

A Tracer replaces a function attribute (on a module or a class) with a
wrapper that opens a span around each call. Spans record name, start, end,
parent span and a few counts taken from the call's arguments; they stay in
memory until `write` is called. A wrapped name that the package no longer
has is recorded as absent instead of failing.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.note_errors: set[str] = set()
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), parent)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Trace calls to `owner.attr` as spans called `name`.

        `note(bound_arguments)` returns counts to attach to the span; it sees
        the call's arguments by parameter name, defaults applied.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(name)
            return
        signature = inspect.signature(original) if note else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                if note:
                    try:
                        bound = signature.bind(*args, **kwargs)
                        bound.apply_defaults()
                        record.counts.update(note(bound.arguments))
                    except (TypeError, AttributeError, KeyError) as exc:
                        self.note_errors.add(f"{name}: {exc}")
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- derived figures ---------------------------------------------------

    def total(self, *names: str) -> float:
        return sum(s.duration for s in self.spans if s.name in names)

    def calls(self, *names: str) -> int:
        return sum(1 for s in self.spans if s.name in names)

    def count(self, key: str, *names: str) -> float:
        return sum(s.counts.get(key, 0) for s in self.spans if s.name in names)

    def self_time(self, name: str, children: tuple[str, ...]) -> float:
        """Time in `name` spans not covered by their direct children among `children`."""
        own = {i for i, s in enumerate(self.spans) if s.name == name}
        covered = sum(
            s.duration for s in self.spans if s.parent in own and s.name in children
        )
        return sum(self.spans[i].duration for i in own) - covered

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, **s.counts}) + "\n")
        for name in self.absent:
            print(f"trace: {name} is absent from the package", file=sys.stderr)
        for err in sorted(self.note_errors):
            print(f"trace: could not read call arguments of {err}", file=sys.stderr)
