"""Span recording around calls into the codedpc modules.

Spans are recorded from the benchmark's side: while a ``Tracer`` is
installed, selected public functions are replaced, at every module attribute
through which the package or the benchmark calls them, by wrappers that
record one span per call.  The package itself is not modified; uninstalling
restores the original objects, so untraced passes run the plain code.

A span is (name, start, end, parent) with times from ``perf_counter``, plus
the process's system CPU time at both ends and a few attributes taken from
the call's result.  Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import json
import os
import time

LAYERS = ("cli", "icmodel", "optimizer", "coding", "constraint", "probability")


def _solve_attrs(result, error, args):
    """Iteration count and certificate gap of a solve, raised or returned."""
    if error is not None:
        result = getattr(error, "result", None)
        if result is None:
            return {"certified": False, "iterations": 0, "cert_gap": None}
        return {
            "certified": False,
            "iterations": result.iterations,
            "cert_gap": result.dual_bound - result.payoff,
        }
    return {
        "certified": True,
        "iterations": result.iterations,
        "cert_gap": result.dual_bound - result.payoff,
    }


def _run_attrs(result, error, args):
    if error is not None:
        return {}
    cfg = args[0]
    coded = [d for d in result.blocks if not d.payoff_only]
    return {
        "codebook_size": cfg.codebook_size,
        "coded_blocks": len(coded),
        "encoder_failures": result.encoder_failures,
        "decoder_errors": result.decoder_errors,
        "typical_candidates": sum(d.typical_candidates for d in coded),
    }


def _targets():
    """(owner, attribute, span name, attribute extractor) for every call site.

    A function imported by name into another module is a separate binding,
    so each binding the workloads reach is listed.
    """
    from codedpc import cli, coding, constraint, icmodel, optimizer, probability

    targets = [(cli, "main", "cli.main", None)]
    for fn in (
        "build_state_prior",
        "build_payoff_table",
        "identity_observation_channel",
        "fpc_distribution",
        "spc_distribution",
    ):
        targets.append((icmodel, fn, f"icmodel.{fn}", None))
    targets += [
        (optimizer, "solve", "optimizer.solve", _solve_attrs),
        (cli, "solve", "optimizer.solve", _solve_attrs),
        (coding.CodingConfig, "__post_init__", "coding.CodingConfig", None),
        (coding, "run", "coding.run", _run_attrs),
        (cli, "run_coding", "coding.run", _run_attrs),
        (constraint, "info_constraint_gap", "constraint.info_constraint_gap", None),
        (cli, "info_constraint_gap", "constraint.info_constraint_gap", None),
    ]
    for owner in (probability, coding, cli, constraint):
        targets.append((owner, "compose", "probability.compose", None))
    cmi = "conditional_mutual_information"
    for owner in (probability, coding, constraint):
        targets.append((owner, cmi, f"probability.{cmi}", None))
    return targets


class Tracer:
    """In-memory span recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name: str, attrs_fn=None):
        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                index = len(self.spans)
                parent = self._stack[-1] if self._stack else None
                record = {"name": name, "parent": parent}
                self.spans.append(record)
                self._stack.append(index)
                record["sys0"] = os.times().system
                record["start"] = time.perf_counter()
                error = None
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                except Exception as exc:
                    error = exc
                    record["error"] = type(exc).__name__
                    raise
                finally:
                    record["end"] = time.perf_counter()
                    record["sys1"] = os.times().system
                    self._stack.pop()
                    if attrs_fn is not None:
                        record.update(attrs_fn(result, error, args))

            return traced

        return wrap

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, attrs_fn in _targets():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.span(name, attrs_fn)(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def dump(self, path: str, header: dict) -> None:
        """Write the header and then one span per line (JSON lines)."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(header, sort_keys=True) + "\n")
            for i, span in enumerate(self.spans):
                out.write(json.dumps({"id": i, **span}, sort_keys=True) + "\n")


def self_times(spans: list[dict], durations: list[float]) -> list[float]:
    """Per-span self time: duration minus the duration of direct children.

    Spans from one thread nest strictly, so the children of a span cover
    disjoint parts of it.
    """
    own = list(durations)
    for s, d in zip(spans, durations):
        if s["parent"] is not None:
            own[s["parent"]] -= d
    return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
