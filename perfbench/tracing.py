"""Spans around the public functions of each seaweedcoh layer.

A traced run installs wrappers on the names in TARGETS that exist (so a
later change that deletes one, e.g. `sparse_rank_modp`, does not break
tracing), rebinding every module attribute that refers to the original so
that `from .exactlin import sparse_rank` call sites are traced too.  Each
call records a span [name, start, end, parent index, spec key] in memory;
a layer's self time is its span durations minus the time its child spans
cover.  Counters are taken at the same boundaries.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute or Class.method, span name)
TARGETS = (
    ("cli", "verify_report", "cli.report"),
    ("cli", "info_fragment", "cli.report"),
    ("seaweed", "build_seaweed", "seaweed.build"),
    ("seaweed", "center", "seaweed.center"),
    ("seaweed", "quotient_components", "seaweed.components"),
    ("seaweed", "render_split_dynkin", "seaweed.components"),
    ("seaweed", "split_over_center", "seaweed.split"),
    ("cochain", "ComplexContext.__init__", "cochain.context"),
    ("cochain", "ComplexContext.cohomology_dims", "cochain.adjoint"),
    ("cochain", "ComplexContext.rank_delta", "cochain.adjoint"),
    ("cochain", "ComplexContext.cocycle_basis", "cochain.adjoint"),
    ("cochain", "ComplexContext.coboundary_basis", "cochain.adjoint"),
    ("cochain", "invariant_cochains", "cochain.invariant"),
    ("cochain", "invariant_cohomology_dims", "cochain.invariant"),
    ("exactlin", "sparse_rank", "exactlin.rank"),
    ("exactlin", "sparse_rank_modp", "exactlin.rank"),
    ("exactlin", "Matrix.rref", "exactlin.dense"),
    ("exactlin", "Matrix.solve", "exactlin.dense"),
    ("exactlin", "Matrix.kernel_basis", "exactlin.dense"),
    ("exactlin", "sparse_kernel_basis", "exactlin.dense"),
    ("casimir", "OperatorContext.__init__", "casimir.operator_context"),
    ("casimir", "rigidity_certificate", "casimir.certificate"),
    ("gerstenhaber", "cg_dims", "gerstenhaber.cg"),
    ("gerstenhaber", "quotient_cohomology", "gerstenhaber.quotient"),
    ("rootsystem", "build", "rootsystem.build"),
    ("chevalley", "construct", "chevalley.construct"),
    ("chevalley", "LieAlgebra.check_jacobi", "chevalley.jacobi"),
)

# Counted, not spanned: called too often for a span each.
COUNTED = (
    ("cochain", "ComplexContext.delta_column", "cochain.delta_columns"),
)

# Span names; the per-layer metric "<name>_s" is the sum of their self times.
LAYERS = tuple(dict.fromkeys(name for _, _, name in TARGETS))

COUNT_METRICS = ("cochain.delta_columns", "cochain.cochains", "cochain.blocks",
                 "cochain.block_max", "cochain.invariant_candidates",
                 "exactlin.rank_calls", "exactlin.rank_columns",
                 "casimir.witnesses")


def _rank_hook(tracer, args, result):
    cols = args[0]
    tracer.counts["exactlin.rank_calls"] += 1
    tracer.counts["exactlin.rank_columns"] += len(cols)
    tracer.counts["exactlin.rank_pivots"] += result


def _blocks_hook(tracer, args, result):
    """Count the weight blocks of C^q and C^(q-1): cohomology_dims(q)
    needs the rank of delta on each."""
    ctx, q = args[0], args[1]
    for deg in (q, q - 1):
        if not 0 <= deg <= ctx.n or (id(ctx), deg) in tracer.seen_blocks:
            continue
        tracer.seen_blocks[(id(ctx), deg)] = ctx
        sizes = [len(b) for b in ctx.basis_by_grade(deg).values()]
        tracer.counts["cochain.cochains"] += sum(sizes)
        tracer.counts["cochain.blocks"] += len(sizes)
        tracer.counts["cochain.block_max"] = max(
            [tracer.counts["cochain.block_max"]] + sizes)


def _candidates_hook(tracer, args, result):
    parent = tracer.stack[-1] if tracer.stack else None
    if parent is not None and tracer.spans[parent][0] == "cochain.invariant":
        tracer.counts["cochain.invariant_candidates"] += len(args[0])


def _witness_hook(tracer, args, result):
    tracer.counts["casimir.witnesses"] += len(result.witnesses)


HOOKS = {
    "sparse_rank": _rank_hook,
    "sparse_rank_modp": _rank_hook,
    "ComplexContext.cohomology_dims": _blocks_hook,
    "sparse_kernel_basis": _candidates_hook,
    "rigidity_certificate": _witness_hook,
}


class Tracer:
    def __init__(self):
        self.spans = []         # [name, start, end, parent index, spec key]
        self.stack = []         # indices of the open spans
        self.spec = None
        self.counts = defaultdict(int)
        self.seen_blocks = {}   # (id(ctx), degree) -> ctx, current spec
        self.missing = []       # targets not present in the package
        self._undo = []

    # -- spans -----------------------------------------------------------

    def open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else None, self.spec])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def root(self, name, spec):
        """Open the span of one spec (or of set-up) in the benchmark itself."""
        self.spec = spec
        self.seen_blocks = {}
        self.open(name)

    def _wrap(self, fn, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if hook is not None:
                hook(tracer, args, result)
            return result
        return traced

    def _counter(self, fn, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installing wrappers -----------------------------------------------

    def install(self):
        for mod_name, path, name in TARGETS:
            self._install(mod_name, path, lambda fn, n=name, p=path:
                          self._wrap(fn, n, HOOKS.get(p)))
        for mod_name, path, name in COUNTED:
            self._install(mod_name, path, lambda fn, n=name:
                          self._counter(fn, n))

    def _install(self, mod_name, path, make):
        owner = sys.modules.get(f"seaweedcoh.{mod_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            self.missing.append(f"{mod_name}.{path}")
            return
        orig = vars(owner)[attr]
        wrapper = make(orig)
        if outer:   # a method: the class attribute reaches every call
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, orig))
            return
        for name, mod in list(sys.modules.items()):
            if name == "seaweedcoh" or name.startswith("seaweedcoh."):
                for ref, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, ref, wrapper)
                        self._undo.append((mod, ref, orig))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def self_times(self, phase):
        """{span name: self time} over the spans of `phase` (a spec filter)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, spec in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, parent, spec) in enumerate(self.spans):
            if phase(spec):
                out[name] += end - start - covered[i]
        return out
