"""Per-layer tracing from outside the library.

``Tracer.install()`` wraps the public functions listed below in every
``neron.*`` module namespace that holds them (``from .x import y`` binds a
second name), and patches methods on their classes.  Each wrapped call
records a span (name, start, end, parent) in memory; ``metrics()`` derives
call counts, self times, inclusive times and work counts from the spans,
and ``write()`` dumps them at the end.

Self time is a span's duration minus the time covered by its child spans.
"""

import gzip
import os
import sys
import time
from functools import wraps

# (module, attribute, metric prefix)
FUNCTIONS = [
    ("neron.cli", "run_command", "cli.run_command"),
    ("neron.problemfile", "parse_problem", "problemfile.parse_problem"),
    ("neron.desing", "desingularize", "desing.desingularize"),
    ("neron.poly", "taylor_coefficients", "poly.taylor_coefficients"),
    ("neron.poly", "format_poly", "poly.format_poly"),
    ("neron.linalg", "det", "linalg.det"),
    ("neron.linalg", "det_adjugate", "linalg.det_adjugate"),
    ("neron.linalg", "minors", "linalg.minors"),
    ("neron.groebner", "std_basis", "groebner.std_basis"),
    ("neron.groebner", "normal_form_against", "groebner.normal_form_against"),
    ("neron.groebner", "mora_nf", "groebner.mora_nf"),
    ("neron.groebner", "classic_nf", "groebner.classic_nf"),
    ("neron.groebner", "lift_division", "groebner.lift_division"),
    ("neron.localring", "minimal_primes", "localring.minimal_primes"),
    ("neron.localring", "active_element", "localring.active_element"),
    ("neron.localring", "compute_e", "localring.compute_e"),
    ("neron.localring", "jet_divide", "localring.jet_divide"),
    ("neron.localring", "jet_invert", "localring.jet_invert"),
    ("neron.lifting", "newton_lift", "lifting.newton_lift"),
    ("neron.lifting", "check_hypothesis", "lifting.check_hypothesis"),
]
IDEALOPS = ("intersect", "ideal_quotient", "quotient_by_poly", "saturate",
            "eliminate", "krull_dim", "syzygies")
STAGES = ("elkik_ideal", "sym_algebra_reduction", "find_f_R", "complete_H",
          "mm_primary_reduction", "build_hg", "verify_certificate",
          "certify_subsystem_membership", "localize_smooth",
          "simplify_presentation", "factor_morphism")
FUNCTIONS += [("neron.idealops", f, f"idealops.{f}") for f in IDEALOPS]
FUNCTIONS += [("neron.desing", f, f"desing.{f}") for f in STAGES]

# (module, class, method names, metric prefix)
METHODS = [
    ("neron.problemfile", "ProblemFile", ("build",), "problemfile.build"),
    ("neron.poly", "Polynomial", ("__mul__", "__rmul__"), "poly.mul"),
    ("neron.poly", "Polynomial", ("substitute",), "poly.substitute"),
    ("neron.localring", "Jet", ("__mul__", "__rmul__"), "localring.jet_mul"),
    ("neron.localring", "LocalRingSpec", ("reduce_jet",),
     "localring.reduce_jet"),
    ("neron.localring", "LocalRingSpec", ("monomial_reduce",),
     "localring.monomial_reduce"),
]

SPAN_METRICS = ["cli.run_command.calls", "cli.run_command.self_s",
                "problemfile.parse_problem.self_s", "problemfile.build.self_s",
                "desing.desingularize.self_s"]
for _f in STAGES:
    SPAN_METRICS += [f"desing.{_f}.incl_s", f"desing.{_f}.mul_term_pairs"]
SPAN_METRICS += ["poly.mul.calls", "poly.mul.self_s", "poly.mul.term_pairs",
                 "poly.mul.max_terms"]
for _p in ("poly.taylor_coefficients", "poly.substitute", "poly.format_poly",
           "linalg.det", "linalg.det_adjugate", "linalg.minors",
           "groebner.std_basis", "groebner.normal_form_against",
           "groebner.mora_nf", "groebner.classic_nf", "groebner.lift_division",
           *(f"idealops.{f}" for f in IDEALOPS),
           *(f"localring.{f}" for f in ("minimal_primes", "active_element",
                                        "compute_e", "reduce_jet",
                                        "monomial_reduce", "jet_divide",
                                        "jet_invert", "jet_mul")),
           "lifting.newton_lift", "lifting.check_hypothesis"):
    SPAN_METRICS += [f"{_p}.calls", f"{_p}.self_s"]
SPAN_METRICS += ["orders.key.evals", "orders.key.cached_monomials",
                 "linalg.det.max_n", "groebner.std_basis.spairs",
                 "groebner.normal_form_against.leads_prepared"]


class Tracer:
    def __init__(self):
        self.names = []          # span index -> name id
        self.parents = []        # span index -> parent span index or -1
        self.starts = []
        self.ends = []
        self.pairs = {}          # span index -> term pairs of a product
        self.name_ids = {}
        self.stack = [-1]
        self.counts = {"poly.mul.max_terms": 0, "linalg.det.max_n": 0,
                       "groebner.std_basis.spairs": 0,
                       "groebner.normal_form_against.leads_prepared": 0,
                       "orders.key.evals": 0}
        self.memo_fns = {}
        self.missing = []
        self.active = False      # spans and counts are taken inside ops only

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.name_ids)
        return nid

    def open(self, name_id):
        idx = len(self.names)
        self.names.append(name_id)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def run_op(self, op_id, fn):
        """Call ``fn`` as one op: the root span of everything it calls."""
        idx = self.open(self._name_id("op:" + op_id))
        self.active = True
        try:
            return fn()
        finally:
            self.active = False
            self.close(idx)

    def wrap(self, fn, name, before=None):
        nid = self._name_id(name)
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args)
            idx = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "neron" or n.startswith("neron.")]
        extra = {"linalg.det": _before_det,
                 "groebner.normal_form_against": _before_nfa}
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(original, name, extra.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, methods, name in METHODS:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            if cls is None or not all(m in vars(cls) for m in methods):
                self.missing.append(name)
                continue
            wrappers = {}
            for meth in methods:
                original = vars(cls)[meth]
                if original not in wrappers:
                    if name == "poly.mul":
                        wrappers[original] = self._wrap_mul(original)
                    else:
                        wrappers[original] = self.wrap(original, name)
                setattr(cls, meth, wrappers[original])
        self._install_counters()

    def _wrap_mul(self, fn):
        nid = self._name_id("poly.mul")
        tracer = self
        counts = self.counts

        @wraps(fn)
        def mul(a, b):
            if not tracer.active:
                return fn(a, b)
            idx = tracer.open(nid)
            try:
                out = fn(a, b)
            finally:
                tracer.close(idx)
            other = getattr(b, "terms", None)
            tracer.pairs[idx] = len(a.terms) * (1 if other is None
                                                else len(other))
            if len(out.terms) > counts["poly.mul.max_terms"]:
                counts["poly.mul.max_terms"] = len(out.terms)
            return out

        return mul

    def _install_counters(self):
        groebner = sys.modules["neron.groebner"]
        counts = self.counts
        tracer = self
        spoly = getattr(groebner, "spoly", None)
        if spoly is None:
            self.missing.append("groebner.spoly")
        else:
            @wraps(spoly)
            def counted_spoly(*args, **kwargs):
                if tracer.active:
                    counts["groebner.std_basis.spairs"] += 1
                return spoly(*args, **kwargs)
            groebner.spoly = counted_spoly

        orders = sys.modules["neron.orders"]
        term_order = getattr(orders, "TermOrder", None)
        if term_order is None or "key" not in vars(term_order):
            self.missing.append("orders.key")
            return
        key = vars(term_order)["key"]
        memo_fns = self.memo_fns

        @wraps(key)
        def counted_key(order, *args, **kwargs):
            keyf = key(order, *args, **kwargs)
            wrapper = memo_fns.get(keyf)
            if wrapper is None:
                def wrapper(m, _f=keyf):
                    if tracer.active:
                        counts["orders.key.evals"] += 1
                    return _f(m)
                memo_fns[keyf] = wrapper
            return wrapper

        term_order.key = counted_key

    # -- results -------------------------------------------------------------

    def metrics(self):
        n = len(self.names)
        by_id = {v: k for k, v in self.name_ids.items()}
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
        calls, self_s, incl_s = {}, {}, {}
        stage_pairs = {}
        stage_ids = {self.name_ids.get(f"desing.{f}") for f in STAGES}
        stage_ids.discard(None)
        for i in range(n):
            name = by_id[self.names[i]]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
            # inclusive time counts outermost spans of a name only
            p = self.parents[i]
            nested = False
            while p >= 0:
                if self.names[p] == self.names[i]:
                    nested = True
                    break
                p = self.parents[p]
            if not nested:
                incl_s[name] = incl_s.get(name, 0.0) + dur[i]
        for i, pairs in self.pairs.items():
            seen = set()
            p = self.parents[i]
            while p >= 0:
                nid = self.names[p]
                if nid in stage_ids and nid not in seen:
                    seen.add(nid)
                    name = by_id[nid]
                    stage_pairs[name] = stage_pairs.get(name, 0) + pairs
                p = self.parents[p]
        out = {}
        for metric in SPAN_METRICS:
            prefix, _, kind = metric.rpartition(".")
            if metric in self.counts:
                out[metric] = self.counts[metric]
            elif kind == "calls":
                out[metric] = calls.get(prefix, 0)
            elif kind == "self_s":
                out[metric] = self_s.get(prefix, 0.0)
            elif kind == "incl_s":
                out[metric] = incl_s.get(prefix, 0.0)
            elif kind == "mul_term_pairs":
                out[metric] = stage_pairs.get(prefix, 0)
            elif kind == "term_pairs":
                out[metric] = sum(self.pairs.values())
        out["orders.key.cached_monomials"] = sum(
            len(cell.cell_contents) for f in self.memo_fns
            for cell in (getattr(f, "__closure__", None) or ())
            if isinstance(cell.cell_contents, dict))
        return out

    def write(self, path):
        """Write every span as a tab-separated line, gzip-compressed."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        by_id = {v: k for k, v in self.name_ids.items()}
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.names)):
                fh.write(f"{i}\t{self.parents[i]}\t{by_id[self.names[i]]}\t"
                         f"{self.starts[i] - t0:.9f}\t"
                         f"{self.ends[i] - t0:.9f}\n")


def _before_det(tracer, args):
    n = args[0].shape[0]
    if n > tracer.counts["linalg.det.max_n"]:
        tracer.counts["linalg.det.max_n"] = n


def _before_nfa(tracer, args):
    tracer.counts["groebner.normal_form_against.leads_prepared"] += \
        len(args[1])
