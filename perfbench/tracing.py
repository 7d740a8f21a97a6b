"""Span tracing of germlab from outside, and the per-layer metrics.

`Tracer.install` replaces every public function of every germlab module
namespace that holds it with a wrapper, so `from .x import y` aliases are
traced under the namespace that calls them: a span is named
`<calling module>.<function>` (`invariants.local_colength` is a call to
`standard_basis.local_colength` made from `invariants`).  Two public
methods are wrapped on their classes: `StandardBasis.contains` and the
`VarietyGerm.tangent_module` property that computes Theta_X.  `ring` and
`orders` run once per term and stay unwrapped; their cost lands in the
self time of the kernel spans.

Spans stay in memory.  Wrapper bookkeeping is timed and taken off the
span clock, so durations and self times exclude it; the whole tracing
overhead is measured separately against an untraced run.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

UNWRAPPED_MODULES = ("germlab.ring", "germlab.orders")


class Span:
    __slots__ = ("sid", "parent", "rid", "name", "fn", "start", "end", "attrs")

    def __init__(self, sid, parent, rid, name, fn):
        self.sid = sid
        self.parent = parent
        self.rid = rid
        self.name = name
        self.fn = fn
        self.start = self.end = 0.0
        self.attrs = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.sid, "parent": self.parent, "request": self.rid,
                "name": self.name, "fn": self.fn, "start": self.start,
                "end": self.end, **self.attrs}


def _coeff_bits(basis) -> int:
    bits = 0
    for element in basis.elements:
        for c in element.terms.values():
            bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return bits


class Tracer:
    """Records one span per call into a wrapped germlab function."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.rid = None
        self.overhead = 0.0
        # (k, f) of the derived_invariants call in progress: gives each
        # milnor_icis span its role from the chain it is called with.
        self.report = None

    def install(self, package) -> None:
        """Wrap the public functions of every loaded module of `package`."""
        prefix = package.__name__
        modules = [m for name, m in list(sys.modules.items())
                   if name == prefix or name.startswith(prefix + ".")]
        for module in modules:
            namespace = module.__name__.rpartition(".")[2]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                origin = obj.__module__
                if not origin.startswith(prefix) or origin in UNWRAPPED_MODULES:
                    continue
                fn = f"{origin.rpartition('.')[2]}.{obj.__qualname__}"
                setattr(module, attr, self._wrap(f"{namespace}.{attr}", fn, obj))
        basis_cls = sys.modules[prefix + ".standard_basis"].StandardBasis
        name = "standard_basis.StandardBasis.contains"
        basis_cls.contains = self._wrap(name, name, basis_cls.contains)
        germ_cls = sys.modules[prefix + ".derlog"].VarietyGerm
        prop = vars(germ_cls)["tangent_module"]
        name = "derlog.VarietyGerm.tangent_module"
        traced = functools.cached_property(self._wrap(name, name, prop.func))
        traced.__set_name__(germ_cls, "tangent_module")
        germ_cls.tangent_module = traced

    def _wrap(self, name: str, fn: str, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return tracer._call(name, fn, func, args, kwargs)

        return wrapper

    def _call(self, name, fn, func, args, kwargs):
        begin = perf_counter()
        parent = self.stack[-1].sid if self.stack else None
        span = Span(len(self.spans), parent, self.rid, name, fn)
        self.spans.append(span)
        self.stack.append(span)
        outer_report = self.report
        if fn == "invariants.derived_invariants":
            self.report = (len(args[0].generators), args[1])
        elif fn == "invariants.milnor_icis":
            chain = tuple(args[0])
            if self.report is None or len(chain) == self.report[0]:
                span.attrs["role"] = "mu_X"
            elif chain[-1] == self.report[1]:
                span.attrs["role"] = "slice_f"
            else:
                span.attrs["role"] = "slice_generic"
        elif fn == "standard_basis.standard_basis":
            span.attrs["truncated"] = kwargs.get("truncate_degree") is not None
            span.attrs["gens"] = len(args[0].generators)
        now = perf_counter()
        self.overhead += now - begin
        span.start = now - self.overhead
        try:
            result = func(*args, **kwargs)
        except BaseException as err:
            self._close(span, outer_report, None, type(err).__name__)
            raise
        self._close(span, outer_report, result, None)
        return result

    def _close(self, span, outer_report, result, error):
        now = perf_counter()
        span.end = now - self.overhead
        self.stack.pop()
        self.report = outer_report
        if error is not None:
            span.attrs["error"] = error
        elif span.fn == "standard_basis.standard_basis":
            span.attrs["out"] = len(result.elements)
            span.attrs["bits"] = _coeff_bits(result)
        elif span.fn == "derlog.VarietyGerm.tangent_module":
            span.attrs["gens"] = len(result.generators)
        self.overhead += perf_counter() - now


# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("cli.self_s", "s/req"),
    ("problemfile.parse_s", "s/req"),
    ("invariants.icis_s", "s/req"),
    ("invariants.mu_X_s", "s/req"),
    ("invariants.tau_X_s", "s/req"),
    ("invariants.slice_f_s", "s/req"),
    ("invariants.slice_generic_s", "s/req"),
    ("invariants.slice_generic_draws", "draws/req"),
    ("invariants.bruce_roberts_s", "s/req"),
    ("invariants.corrections_s", "s/req"),
    ("derlog.theta_s", "s/req"),
    ("derlog.theta_syzygies_s", "s/req"),
    ("derlog.theta_intersect_s", "s/req"),
    ("derlog.theta_minimise_s", "s/req"),
    ("derlog.theta_minimise_sb_calls", "calls/req"),
    ("derlog.theta_gens_before", "gens"),
    ("derlog.theta_gens_after", "gens"),
    ("derlog.theta_reuse_ratio", "ratio"),
    ("module_ops.syzygies_calls", "calls/req"),
    ("module_ops.syzygies_s", "s/req"),
    ("module_ops.intersect_s", "s/req"),
    ("module_ops.subquotient_s", "s/req"),
    ("standard_basis.sb_calls", "calls/req"),
    ("standard_basis.sb_truncated_calls", "calls/req"),
    ("standard_basis.sb_exact_calls", "calls/req"),
    ("standard_basis.sb_s", "s/req"),
    ("standard_basis.sb_out_elems", "elems/req"),
    ("standard_basis.sb_out_coeff_bits_max", "bits"),
    ("standard_basis.local_colength_calls", "calls/req"),
    ("standard_basis.ladder_rungs_per_call", "rungs/call"),
    ("standard_basis.ladder_certified_ratio", "ratio"),
    ("standard_basis.count_s", "s/req"),
    ("standard_basis.contains_calls", "calls/req"),
    ("standard_basis.contains_s", "s/req"),
    ("trace.overhead_frac", "frac"),
)


def layer_metrics(spans: list[Span], requests: int, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics of `requests` traced requests.

    Times and counts are per request; span times are inclusive unless the
    metric says self time.  `invariants.bruce_roberts_s` runs inside
    `derived_invariants` from the first `df_theta` call to the
    `milnor_hypersurface` call, and `invariants.corrections_s` from there
    to the end (mu_f, c1, c2).  `derlog.theta_minimise_s` is the part of a
    Theta_X span after its last syzygy or intersection.
    `derlog.theta_reuse_ratio` is the share of `df_theta` calls that found
    Theta_X already computed.
    """
    by_fn = defaultdict(list)
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_fn[s.fn].append(s)
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def total(group) -> float:
        return sum(s.seconds for s in group)

    def self_time(group) -> float:
        return sum(s.seconds - total(children[s.sid]) for s in group)

    def per(value) -> float:
        return value / requests

    def first_child(span, fn):
        return next((c for c in children[span.sid] if c.fn == fn), None)

    milnor = defaultdict(list)
    for s in by_fn["invariants.milnor_icis"]:
        milnor[s.attrs["role"]].append(s)

    br = corrections = 0.0
    for d in by_fn["invariants.derived_invariants"]:
        start = first_child(d, "derlog.df_theta")
        split = first_child(d, "invariants.milnor_hypersurface")
        if start is not None and split is not None:
            br += split.start - start.start
            corrections += d.end - split.start

    thetas = [s for s in by_fn["derlog.VarietyGerm.tangent_module"] if "error" not in s.attrs]
    minimise = 0.0
    minimise_sb = 0
    before = []
    for t in thetas:
        kids = children[t.sid]
        stage_ends = [c.end for c in kids if c.name in ("derlog.syzygies", "derlog.intersect")]
        minimise += t.end - max(stage_ends, default=t.start)
        sb = [c for c in kids if c.name == "derlog.standard_basis"]
        minimise_sb += len(sb)
        # The first minimisation basis holds every generator but the one tested.
        before.append(sb[0].attrs["gens"] + 1 if sb else t.attrs["gens"])
    uses = len(by_fn["derlog.df_theta"])

    sbs = by_fn["standard_basis.standard_basis"]
    truncated = sum(1 for s in sbs if s.attrs["truncated"])
    colengths = by_fn["standard_basis.local_colength"]
    rungs = certified = 0
    for lc in colengths:
        ladder = [c for c in children[lc.sid] if c.fn == "standard_basis.standard_basis"]
        rungs += len(ladder)
        if ladder and ladder[-1].attrs["truncated"] and "error" not in lc.attrs:
            certified += 1
    contains = by_fn["standard_basis.StandardBasis.contains"]

    metrics = {
        "cli.self_s": per(self_time(by_fn["cli.main"])),
        "problemfile.parse_s": per(total(by_fn["problemfile.parse_problem_file"])),
        "invariants.icis_s": per(total(by_fn["invariants.verify_icis"])),
        "invariants.mu_X_s": per(total(milnor["mu_X"])),
        "invariants.tau_X_s": per(total(by_fn["invariants.tjurina_icis"])),
        "invariants.slice_f_s": per(total(milnor["slice_f"])),
        "invariants.slice_generic_s": per(total(milnor["slice_generic"])),
        "invariants.slice_generic_draws": per(len(milnor["slice_generic"])),
        "invariants.bruce_roberts_s": per(br),
        "invariants.corrections_s": per(corrections),
        "derlog.theta_s": per(total(thetas)),
        "derlog.theta_syzygies_s": per(total(by_name["derlog.syzygies"])),
        "derlog.theta_intersect_s": per(total(by_name["derlog.intersect"])),
        "derlog.theta_minimise_s": per(minimise),
        "derlog.theta_minimise_sb_calls": per(minimise_sb),
        "derlog.theta_gens_before": sum(before) / len(before) if before else 0.0,
        "derlog.theta_gens_after": (sum(t.attrs["gens"] for t in thetas) / len(thetas)
                                    if thetas else 0.0),
        "derlog.theta_reuse_ratio": 1 - len(thetas) / uses if uses else 0.0,
        "module_ops.syzygies_calls": per(len(by_fn["module_ops.syzygies"])),
        "module_ops.syzygies_s": per(total(by_fn["module_ops.syzygies"])),
        "module_ops.intersect_s": per(total(by_fn["module_ops.intersect"])),
        "module_ops.subquotient_s": per(total(by_fn["module_ops.subquotient_dimension"])),
        "standard_basis.sb_calls": per(len(sbs)),
        "standard_basis.sb_truncated_calls": per(truncated),
        "standard_basis.sb_exact_calls": per(len(sbs) - truncated),
        "standard_basis.sb_s": per(total(sbs)),
        "standard_basis.sb_out_elems": per(sum(s.attrs.get("out", 0) for s in sbs)),
        "standard_basis.sb_out_coeff_bits_max": max((s.attrs.get("bits", 0) for s in sbs),
                                                    default=0),
        "standard_basis.local_colength_calls": per(len(colengths)),
        "standard_basis.ladder_rungs_per_call": rungs / len(colengths) if colengths else 0.0,
        "standard_basis.ladder_certified_ratio": (certified / len(colengths)
                                                  if colengths else 0.0),
        "standard_basis.count_s": per(self_time(colengths)
                                      + self_time(by_fn["standard_basis.colength"])),
        "standard_basis.contains_calls": per(len(contains)),
        "standard_basis.contains_s": per(total(contains)),
        "trace.overhead_frac": overhead_frac,
    }
    return metrics
