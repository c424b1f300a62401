"""Layer tracing from outside the program.

`Tracer.install()` replaces msg_lab's public entry points with wrappers at
run time; no file of the program changes.  A function is rebound in every
msg_lab module that bound it, because `from .linalg import min_rank_shift`
makes a second name for the same object and a call through an unpatched
name would be missed.  Methods are patched on their class.

Three kinds of wrapper:

* span: one span per call (layer, start, end, parent span, op id, phase),
  kept in flat arrays in memory and written out at the end.  A call made
  while a span of the same layer is the innermost open span is folded into
  it, so a layer is counted at its outermost call.
* count: a per-phase call counter, for calls too cheap to time (field
  scalar ops, Permutation construction).
* build: a span only when a lazy table is built, seen as a result object
  that has not been returned before.

Self time of a span is its duration minus the time covered by its child
spans; calls run on one thread, so children never overlap.
"""

import functools
import statistics
import sys
import time
from array import array

SPANS = (
    ("poly.pfactor_distinct", "func", "msg_lab.poly", "pfactor_distinct"),
    ("linalg.elim", "method", "Matrix", "rank"),
    ("linalg.elim", "method", "Matrix", "rref"),
    ("linalg.elim", "method", "Matrix", "det"),
    ("linalg.elim", "method", "Matrix", "inverse"),
    ("linalg.elim", "method", "Matrix", "kernel_basis"),
    ("linalg.elim", "method", "Matrix", "solve"),
    ("linalg.matmul", "method", "Matrix", "__matmul__"),
    ("linalg.commutant", "func", "msg_lab.linalg", "commutant_basis"),
    ("linalg.commutant", "func", "msg_lab.linalg", "twisted_commutant_basis"),
    ("linalg.span", "func", "msg_lab.linalg", "span_invertible_counts"),
    ("linalg.min_rank_shift", "func", "msg_lab.linalg", "min_rank_shift"),
    ("linalg.primary_blocks", "func", "msg_lab.linalg", "primary_blocks"),
    ("metrics.projective_rank_distance", "func", "msg_lab.metrics",
     "projective_rank_distance"),
    ("metrics.class_size_matrix", "func", "msg_lab.metrics",
     "class_size_matrix"),
    ("constructions.prepare_near_root", "func", "msg_lab.constructions",
     "prepare_near_root"),
    ("constructions.approx_centralize", "func", "msg_lab.constructions",
     "approx_centralize"),
    ("constructions.check_split_condition", "func", "msg_lab.constructions",
     "check_split_condition"),
    ("constructions.build_niceblock", "func", "msg_lab.constructions",
     "build_niceblock"),
    ("constructions.commutator_witness_table", "func",
     "msg_lab.constructions", "commutator_witness_table"),
    ("centralizers.centralizer_factorization", "func", "msg_lab.centralizers",
     "centralizer_factorization"),
    ("centralizers.perm_centralizer_structure", "func",
     "msg_lab.centralizers", "perm_centralizer_structure"),
    ("geodesics.rank_metric_chain", "func", "msg_lab.geodesics",
     "rank_metric_chain"),
    ("geodesics.verify_chain", "func", "msg_lab.geodesics", "verify_chain"),
    ("geodesics.hamming_chain", "func", "msg_lab.geodesics", "hamming_chain"),
)
COUNTS = (
    ("gf.mul.calls", "Field", "mul"),
    ("gf.inv.calls", "Field", "inv"),
    ("gf.add.calls", "Field", "add"),
    ("groups.permutation.constructed", "Permutation", "__init__"),
)
BUILDS = (
    ("gf.tables", "Field", "packed_tables"),
    ("gf.tables", "Field", "inv_table"),
)
CLASSES = {"Matrix": "msg_lab.linalg", "Field": "msg_lab.gf",
           "Permutation": "msg_lab.groups"}

SETUP, PROBES = -1, -2


class Tracer:
    def __init__(self):
        self.layers = []
        self.layer_ids = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.phase = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = []
        self.extra = {}           # span index -> (kind, values)
        self.refused = []         # span indices that raised BudgetError
        self.counters = {}        # phase -> {counter name: calls}
        self.missing = []         # targets not found at install time
        self.cur_op = -1
        self.cur_phase = SETUP
        self.counts = self.counters.setdefault(SETUP, {})

    def set_op(self, op, phase):
        self.cur_op = op
        if phase != self.cur_phase:
            self.cur_phase = phase
            self.counts = self.counters.setdefault(phase, {})

    def layer_id(self, layer):
        if layer not in self.layer_ids:
            self.layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self.layer_ids[layer]

    def _open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.cur_op)
        self.phase.append(self.cur_phase)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    # -- wrappers -------------------------------------------------------------

    def span_wrapper(self, layer, fn):
        nid = self.layer_id(layer)
        stats = _STATS.get(layer)
        budget_error = self.budget_error
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and tracer.name[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except budget_error:
                tracer.end[idx] = time.perf_counter_ns()
                stack.pop()
                tracer.refused.append(idx)
                raise
            except BaseException:
                tracer.end[idx] = time.perf_counter_ns()
                stack.pop()
                raise
            tracer.end[idx] = time.perf_counter_ns()
            stack.pop()
            if stats is not None:
                tracer.extra[idx] = stats(args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def count_wrapper(self, counter, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            counts = tracer.counts
            counts[counter] = counts.get(counter, 0) + 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def build_wrapper(self, layer, fn):
        nid = self.layer_id(layer)
        seen = set()
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter_ns()
            result = fn(*args, **kwargs)
            t1 = time.perf_counter_ns()
            if id(result) not in seen:
                seen.add(id(result))
                idx = len(tracer.start)
                tracer.name.append(nid)
                tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
                tracer.op.append(tracer.cur_op)
                tracer.phase.append(tracer.cur_phase)
                tracer.start.append(t0)
                tracer.end.append(t1)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every target; import msg_lab first.  Targets that no longer
        exist are listed in self.missing instead of failing the run."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "msg_lab"
                                         or name.startswith("msg_lab."))]
        self.budget_error = sys.modules["msg_lab.errors"].BudgetError
        classes = {}
        for cls_name, mod_name in CLASSES.items():
            classes[cls_name] = getattr(sys.modules[mod_name], cls_name, None)
        for layer, kind, owner, attr in SPANS:
            if kind == "method":
                self._patch_method(classes[owner], owner, attr,
                                   lambda fn, layer=layer:
                                   self.span_wrapper(layer, fn))
            else:
                self._patch_function(modules, owner, attr,
                                     lambda fn, layer=layer:
                                     self.span_wrapper(layer, fn))
        for counter, owner, attr in COUNTS:
            self._patch_method(classes[owner], owner, attr,
                               lambda fn, counter=counter:
                               self.count_wrapper(counter, fn))
        for layer, owner, attr in BUILDS:
            self._patch_method(classes[owner], owner, attr,
                               lambda fn, layer=layer:
                               self.build_wrapper(layer, fn))

    def _patch_method(self, cls, owner, attr, make):
        fn = None if cls is None else cls.__dict__.get(attr)
        if not callable(fn):
            self.missing.append("%s.%s" % (owner, attr))
            return
        setattr(cls, attr, make(fn))

    def _patch_function(self, modules, owner, attr, make):
        fn = getattr(sys.modules.get(owner), attr, None)
        if not callable(fn):
            self.missing.append("%s.%s" % (owner, attr))
            return
        wrapped = make(fn)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, name, wrapped)

    # -- results ----------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,layer,parent,op,phase,start_ns,end_ns\n")
            for i in range(len(self.start)):
                out.write("%d,%s,%d,%d,%d,%d,%d\n" % (
                    i, self.layers[self.name[i]], self.parent[i], self.op[i],
                    self.phase[i], self.start[i], self.end[i]))

    def layer_metrics(self, passes, suite_elapsed):
        """Per-layer metrics: the median over timed passes of each pass's
        total, except gf.tables.build_s (the whole run, set-up included)
        and metrics.budget_refusals (passes plus reach probes)."""
        n = len(self.start)
        covered = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        per_phase = {}
        for i in range(n):
            key = (self.phase[i], self.layers[self.name[i]])
            calls, self_ns = per_phase.get(key, (0, 0))
            per_phase[key] = (calls + 1,
                              self_ns + self.end[i] - self.start[i] - covered[i])
        extra = {}
        for i, (kind, values) in self.extra.items():
            acc = extra.setdefault((self.phase[i], kind), [0, 0])
            acc[0] += values[0]
            acc[1] += values[1]
        refused = {}
        for i in self.refused:
            if self.layers[self.name[i]].startswith("metrics."):
                refused[self.phase[i]] = refused.get(self.phase[i], 0) + 1

        def pass_values(fn):
            return statistics.median(fn(p) for p in range(passes))

        out = {}
        for layer in sorted({layer for layer, _, _, _ in SPANS}):
            calls = pass_values(lambda p: per_phase.get((p, layer), (0, 0))[0])
            self_s = pass_values(
                lambda p: per_phase.get((p, layer), (0, 0))[1] / 1e9)
            out[layer + ".calls"] = (calls, "count")
            out[layer + ".self_s"] = (self_s, "s")
        for counter, _, _ in COUNTS:
            out[counter] = (pass_values(
                lambda p: self.counters.get(p, {}).get(counter, 0)), "count")
        build_ns = sum(self.end[i] - self.start[i] for i in range(n)
                       if self.layers[self.name[i]] == "gf.tables")
        out["gf.tables.build_s"] = (build_ns / 1e9, "s")

        def extra_pass(kind, slot):
            return pass_values(lambda p: extra.get((p, kind), (0, 0))[slot])

        span_self = out["linalg.span.self_s"][0]
        members = extra_pass("span", 0)
        invertible = extra_pass("span", 1)
        out["linalg.span.members"] = (members, "count")
        out["linalg.span.members_per_s"] = (
            members / span_self if span_self else 0.0, "1/s")
        out["linalg.span.invertible_ratio"] = (
            invertible / members if members else 0.0, "ratio")
        scalars = extra_pass("shift", 0)
        hits = extra_pass("shift", 1)
        out["linalg.min_rank_shift.scalars"] = (scalars, "count")
        out["linalg.min_rank_shift.hit_ratio"] = (
            hits / scalars if scalars else 0.0, "ratio")
        out["metrics.budget_refusals"] = (
            pass_values(lambda p: refused.get(p, 0)) + refused.get(PROBES, 0),
            "count")
        for suite, values in suite_elapsed.items():
            out["suites.%s.elapsed_s" % suite] = (
                statistics.median(values) if values else 0.0, "s")
        return out


def _span_stats(args, kwargs, result):
    basis = args[0] if args else kwargs["basis"]
    members = basis[0].field.q ** len(basis) if basis else 0
    return ("span", (members, result[0]))


def _shift_stats(args, kwargs, result):
    g = args[0] if args else kwargs["g"]
    return ("shift", (g.field.q - 1, len(result.argmins)))


_STATS = {"linalg.span": _span_stats, "linalg.min_rank_shift": _shift_stats}
