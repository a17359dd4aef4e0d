"""Span recorder for the traced run.

The kernel carries no instrumentation of its own, so the recorder wraps the
public functions of each layer from the outside.  A wrapped name is rebound
on its owner and in every ``gclose`` module that imported it by name (for
example ``gclose.witness.von_neumann_radical`` and
``gclose.cli.smith_normal_form``), so calls made inside the kernel are seen
too.  Each span keeps its name, query id, parent span and start/end times in
flat arrays; they are written out once, when the run ends.  A layer's self
time is its span time minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

# spans kept for the dump; past this many, spans still count toward the
# per-layer totals but are not stored (bounds the traced run's memory)
MAX_STORED_SPANS = 1_000_000

# (module, class or None, function) wrapped in the traced run
TRACED = (
    ("circle", "SurdSum", "enclosure"),
    ("circle", "SurdSum", "floor"),
    ("circle", "SurdSum", "sign"),
    ("circle", "SurdSum", "norm_cmp"),
    ("circle", None, "cf_expand"),
    ("duality", None, "smith_normal_form"),
    ("duality", None, "row_hnf"),
    ("duality", None, "closure_in_dual"),
    ("duality", None, "annihilator"),
    ("duality", None, "von_neumann_radical"),
    ("torsion", None, "s_membership"),
    ("torsion", None, "rational_torsion_profile"),
    ("torsion", None, "null_sequence"),
    ("torsion", None, "recheck_null_certificate"),
    ("lattice", None, "lll_reduce"),
    ("lattice", None, "approximation_candidates"),
    ("witness", None, "find_witness"),
    ("witness", None, "check_witness"),
    ("witness", None, "g_membership_experiment"),
    ("witness", None, "bds_experiment"),
    ("cli", None, "main"),
)


def _span_name(module, cls, func):
    return ".".join(p for p in (module, cls, func) if p)


def _calls_and_self(name):
    return [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]


# every per-layer metric, in the order BENCHMARK.json lists them
PER_LAYER = (
    _calls_and_self("circle.SurdSum.enclosure")
    + _calls_and_self("circle.SurdSum.floor")
    + _calls_and_self("circle.SurdSum.sign")
    + [("circle.SurdSum.sign.multi_surd_calls", "count")]
    + _calls_and_self("circle.SurdSum.norm_cmp")
    + _calls_and_self("circle.cf_expand")
    + _calls_and_self("duality.smith_normal_form")
    + [("duality.smith_normal_form.entries", "count")]
    + _calls_and_self("duality.row_hnf")
    + _calls_and_self("duality.closure_in_dual")
    + _calls_and_self("duality.annihilator")
    + _calls_and_self("duality.von_neumann_radical")
    + _calls_and_self("torsion.s_membership")
    + [
        ("torsion.verdict.exact", "count"),
        ("torsion.verdict.certified", "count"),
        ("torsion.verdict.undecided", "count"),
        ("torsion.rational_torsion_profile.self_s", "s"),
    ]
    + _calls_and_self("torsion.null_sequence")
    + [
        ("torsion.null_sequence.found", "count"),
        ("torsion.recheck_null_certificate.self_s", "s"),
    ]
    + _calls_and_self("lattice.lll_reduce")
    + [("lattice.lll_reduce.dim_max", "count")]
    + _calls_and_self("lattice.approximation_candidates")
    + [("lattice.approximation_candidates.distinct_ratio", "ratio")]
    + _calls_and_self("witness.find_witness")
    + [
        ("witness.find_witness.found_ratio", "ratio"),
        ("witness.find_witness.candidates_tested", "count"),
    ]
    + _calls_and_self("witness.check_witness")
    + [
        ("witness.g_membership_experiment.self_s", "s"),
        ("witness.bds_experiment.self_s", "s"),
    ]
    + _calls_and_self("cli.main")
    + [
        ("cli.exit.0", "count"),
        ("cli.exit.1", "count"),
        ("cli.exit.2", "count"),
        ("trace.overhead_s", "s"),
    ]
)

# layers each workload is meant to exercise: the traced run's self-test
# fails when one of them records no calls
MAIN_LAYERS = {
    "witness-rational": (
        "lattice.lll_reduce",
        "lattice.approximation_candidates",
        "witness.find_witness",
        "witness.check_witness",
        "witness.g_membership_experiment",
        "duality.von_neumann_radical",
    ),
    "torsion-rational": (
        "torsion.s_membership",
        "torsion.rational_torsion_profile",
    ),
    "quadratic-surd": (
        "circle.SurdSum.enclosure",
        "circle.SurdSum.floor",
        "circle.SurdSum.sign",
        "circle.SurdSum.norm_cmp",
        "circle.cf_expand",
        "torsion.s_membership",
        "torsion.null_sequence",
        "torsion.recheck_null_certificate",
        "witness.find_witness",
        "witness.check_witness",
        "witness.bds_experiment",
    ),
    "cli-mix": (
        "cli.main",
        "duality.smith_normal_form",
        "duality.row_hnf",
        "duality.closure_in_dual",
        "duality.annihilator",
        "duality.von_neumann_radical",
    ),
}

# layers a workload must bypass entirely
IDLE_LAYERS = {
    "torsion-rational": ("lattice.lll_reduce", "lattice.approximation_candidates"),
}


class Recorder:
    """In-memory spans plus per-name call counts and self times."""

    def __init__(self):
        self.names: list[str] = []
        self.name_col = array("i")
        self.query_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self.query_id = -1
        self.active = False
        self._stack: list[list] = []  # [stored index or -1, start, child time]
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, nid: int) -> None:
        start = time.perf_counter()
        if len(self.start_col) < MAX_STORED_SPANS:
            idx = len(self.start_col)
            parent = self._stack[-1][0] if self._stack else -1
            self.name_col.append(nid)
            self.query_col.append(self.query_id)
            self.parent_col.append(parent)
            self.start_col.append(start)
            self.end_col.append(0.0)
        else:
            idx = -1
            self.dropped += 1
        self._stack.append([idx, start, 0.0])

    def _close(self, name: str) -> None:
        end = time.perf_counter()
        idx, start, child = self._stack.pop()
        if idx >= 0:
            self.end_col[idx] = end
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    # -- instrumentation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every name in TRACED and rebind it wherever it was imported."""
        observers = _observers()
        for module_name, cls_name, func_name in TRACED:
            name = _span_name(module_name, cls_name, func_name)
            module = sys.modules[f"gclose.{module_name}"]
            owner = getattr(module, cls_name) if cls_name else module
            original = owner.__dict__[func_name]
            wrapped = self._wrap(name, original, observers.get(name))
            self._rebind(owner, func_name, original, wrapped)
            if cls_name is None:
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or mod is owner:
                        continue
                    if mod_name != "gclose" and not mod_name.startswith("gclose."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, attr, original, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr, original, wrapped) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _wrap(self, name, original, observe):
        nid = len(self.names)
        self.names.append(name)
        rec = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not rec.active:
                return original(*args, **kwargs)
            rec._open(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                rec._close(name)
            if observe is not None:
                observe(rec, args, result)
            return result

        return traced

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_s."""
        out: dict[str, float] = {}
        for metric, _unit in PER_LAYER:
            if metric == "trace.overhead_s":
                continue
            span, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = self.calls.get(span, 0)
            elif stat == "self_s":
                out[metric] = self.self_s.get(span, 0.0)
            elif stat in ("distinct_ratio", "found_ratio"):
                calls = self.calls.get(span, 0)
                num = (
                    len(self.distinct[span])
                    if stat == "distinct_ratio"
                    else self.extra.get(metric, 0)
                )
                out[metric] = num / calls if calls else 0.0
            else:
                out[metric] = self.extra.get(metric, 0)
        return out

    def self_test(self, workload: str) -> list[str]:
        """Problems with the layer coverage this workload promises."""
        problems = []
        for span in MAIN_LAYERS[workload]:
            if not self.calls.get(span):
                problems.append(f"{span} recorded 0 calls on {workload}")
        for span in IDLE_LAYERS.get(workload, ()):
            if self.calls.get(span):
                problems.append(
                    f"{span} recorded {self.calls[span]} calls on {workload}, expected 0"
                )
        return problems

    def dump(self, stem: Path) -> None:
        """Write the spans: ``<stem>.json`` describes ``<stem>.bin``."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        columns = (
            ("name", self.name_col),
            ("query", self.query_col),
            ("parent", self.parent_col),
            ("start", self.start_col),
            ("end", self.end_col),
        )
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        header = {
            "names": self.names,
            "count": len(self.start_col),
            "dropped": self.dropped,
            "byteorder": sys.byteorder,
            "columns": [[label, col.typecode, col.itemsize] for label, col in columns],
            "layout": "column-major: each column's values, one column after another",
        }
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1))


def _observers():
    """Per-span hooks that turn call arguments and results into counters."""
    import gclose

    def multi_surd(rec, args, result):
        if len(args[0].terms) > 1:
            rec.extra["circle.SurdSum.sign.multi_surd_calls"] += 1

    def snf_entries(rec, args, result):
        m = args[0]
        rec.extra["duality.smith_normal_form.entries"] += m.rows * m.cols

    def verdict(rec, args, result):
        short = {"exact": "exact", "certified_up_to": "certified", "undecided": "undecided"}
        rec.extra[f"torsion.verdict.{short[result.status]}"] += 1

    def null_found(rec, args, result):
        if isinstance(result, gclose.NullSequenceResult):
            rec.extra["torsion.null_sequence.found"] += 1

    def lll_dim(rec, args, result):
        key = "lattice.lll_reduce.dim_max"
        rec.extra[key] = max(rec.extra[key], len(args[0]))

    def candidates_distinct(rec, args, result):
        rec.distinct["lattice.approximation_candidates"].add((args[0], args[1]))

    def witness_found(rec, args, result):
        if isinstance(result, gclose.Witness):
            rec.extra["witness.find_witness.found_ratio"] += 1
        else:
            rec.extra["witness.find_witness.candidates_tested"] += result.candidates_tested

    def exit_code(rec, args, result):
        rec.extra[f"cli.exit.{result}"] += 1

    return {
        "circle.SurdSum.sign": multi_surd,
        "duality.smith_normal_form": snf_entries,
        "torsion.s_membership": verdict,
        "torsion.null_sequence": null_found,
        "lattice.lll_reduce": lll_dim,
        "lattice.approximation_candidates": candidates_distinct,
        "witness.find_witness": witness_found,
        "cli.main": exit_code,
    }
