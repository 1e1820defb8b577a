"""Span and counter tracing of cocycle_forge, installed from outside it.

``Tracer.install`` replaces public functions and methods of the package's
modules by wrappers; nothing in ``src/`` changes. A module-level function
is replaced under every name that refers to it in any package module, so
the names ``cli.py`` (and the others) imported are traced too.

* Spanned callables record ``[name, start, end, parent, job]``; spans stay
  in memory until ``write`` dumps them at the end of the run.
* Counted callables (the scalar kernel and other hot operations) only bump
  a call counter, which keeps the overhead bounded.
* Some spans feed extra counters from their arguments and result (kept
  solutions, search-space bases).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import cocycle_forge
from cocycle_forge import _multsolve, cli, cochain, cohomology, gauge, instances, ring, scalars, semigroup

MODULES = (cli, instances, semigroup, cochain, gauge, _multsolve, ring, cohomology, scalars)


def _metric_layer(module):
    # metric names must start with a letter or digit
    return module.__name__.rsplit(".", 1)[1].lstrip("_")


# taken before install, so the hooks' own Aut S calls stay out of the trace
_AUT_S = semigroup.SquareFreeSemigroup.enumerate_autos


def _units(c):
    return c.domain.order - 1


def _post_aut0(counts, args, result):
    """Candidates examined: each _aut0_chunk call tests every eta over one
    (phi, mu); the base is the brute-force formula from the instance."""
    c = args[0]
    chunks = counts["cohomology.aut0_chunk.calls"] - counts["cohomology.aut0_chunk.seen"]
    counts["cohomology.aut0_chunk.seen"] += chunks
    counts["cohomology.aut0_enumerate.candidates"] += chunks * _units(c) ** len(c.sg.arrows())
    counts["cohomology.aut0_enumerate.base"] += (
        len(_AUT_S(c.sg)) * c.domain.k ** len(c.sg.idempotents) * _units(c) ** len(c.sg.arrows()))
    counts["cohomology.aut0_enumerate.kept"] += len(result)


def _post_inner(counts, args, result):
    c = args[0]
    counts["cohomology.inner_triples.enumerated"] += _units(c) ** len(c.sg.idempotents)
    counts["cohomology.inner_triples.kept"] += len(result)


def _post_b1(counts, args, result):
    """Maps E -> D* enumerated: one star_act per map; the base is the torus."""
    c = args[0]
    maps = counts["cohomology.star_act.calls"] - counts["cohomology.star_act.seen"]
    counts["cohomology.star_act.seen"] += maps
    counts["cohomology.b1_enumerate.enumerated"] += maps
    counts["cohomology.b1_enumerate.torus"] += _units(c) ** len(c.sg.idempotents)
    counts["cohomology.b1_enumerate.kept"] += len(result)


def _post_stabilizer(counts, args, result):
    c = args[0]
    counts["gauge.gauge_stabilizer.mu_space"] += c.domain.k ** len(c.sg.idempotents)
    counts["gauge.gauge_stabilizer.kept"] += len(result)


def _post_found(name):
    def post(counts, args, result):
        counts[name + ".found"] += result is not None
    return post


# (module, attribute path, metric name, post hook); the metric name is the
# attribute path under the module's layer name unless given
SPANNED = (
    (instances, "load_instance", None, None),
    (semigroup, "SquareFreeSemigroup.validate", "semigroup.validate", None),
    (semigroup, "SquareFreeSemigroup.enumerate_autos", "semigroup.enumerate_autos", None),
    (cochain, "is_normal", None, None),
    (cochain, "is_cocycle", None, None),
    (gauge, "cohomologous", None, _post_found("gauge.cohomologous")),
    (gauge, "gauge_stabilizer", None, _post_stabilizer),
    (gauge, "stabilizer_of_class", None, None),
    (_multsolve, "solve_multiplicative", None, None),
    (ring, "verify_ring_hom", None, None),
    (ring, "find_ring_iso", None, _post_found("ring.find_ring_iso")),
    (ring, "is_ring_hom", None, None),
    (ring, "RingElement.inverse", None, None),
    (cohomology, "z1_enumerate", None, None),
    (cohomology, "b1_enumerate", None, _post_b1),
    (cohomology, "h1", None, None),
    (cohomology, "inner_triples", None, _post_inner),
    (cohomology, "aut0_enumerate", None, _post_aut0),
    (cohomology, "out_r", None, None),
    (cohomology, "verify_ses", None, None),
)

COUNTED = (
    (gauge, "act_gauge", None),
    (gauge, "act_phi", None),
    (gauge, "Gauge.compose", None),
    (ring, "RingElement.__mul__", "ring.RingElement.mul"),
    (cohomology, "_aut0_chunk", "cohomology.aut0_chunk"),
    (cohomology, "star_act", None),
    (scalars, "Scalar.__mul__", "scalars.Scalar.mul"),
    (scalars, "Scalar.__add__", "scalars.Scalar.add"),
    (scalars, "Scalar.__eq__", "scalars.Scalar.eq"),
    (scalars, "Scalar.inv", None),
    (scalars, "RingAuto.__call__", "scalars.RingAuto.call"),
    (scalars, "ScalarDomain.key", None),
    (scalars, "enumerate_units", None),
)


def _name(module, path, name):
    return name or f"{_metric_layer(module)}.{path}"


# every counter a run can produce; missing callables leave theirs at 0
COUNTERS = (
    [_name(m, p, n) + ".calls" for m, p, n, _ in SPANNED]
    + [_name(m, p, n) + ".calls" for m, p, n in COUNTED]
    + ["gauge.cohomologous.found", "ring.find_ring_iso.found", "cohomology.aut0_chunk.seen",
       "cohomology.aut0_enumerate.candidates", "cohomology.aut0_enumerate.base",
       "cohomology.aut0_enumerate.kept", "cohomology.inner_triples.enumerated",
       "cohomology.inner_triples.kept", "cohomology.star_act.seen",
       "cohomology.b1_enumerate.enumerated", "cohomology.b1_enumerate.torus",
       "cohomology.b1_enumerate.kept", "gauge.gauge_stabilizer.mu_space",
       "gauge.gauge_stabilizer.kept"]
)


class Tracer:
    """Collects spans and counters while installed; see the module doc."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index, job]
        self.stack = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.missing = []          # callables the installed package lacks
        self.job = None
        self._restore = []         # (owner, attribute, original)

    # -- spans -----------------------------------------------------------------

    def open(self, name):
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.job]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec):
        rec[2] = time.perf_counter()
        self.stack.pop()

    def _spanned(self, fn, name, post):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if post is not None:
                post(counts, args, result)
            return result
        return wrapper

    def _counted(self, fn, name):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ----------------------------------------------------------------

    def _patch(self, module, path, wrap):
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{module.__name__}.{path}")
                return
            if isinstance(original, classmethod):
                replacement = classmethod(wrap(original.__func__))
            else:
                replacement = wrap(original)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, replacement)
            return
        original = getattr(module, path, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{path}")
            return
        replacement = wrap(original)
        for mod in MODULES + (cocycle_forge,):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        for module, path, name, post in SPANNED:
            name = _name(module, path, name)
            self._patch(module, path, lambda fn, n=name, p=post: self._spanned(fn, n, p))
        for module, path, name in COUNTED:
            name = _name(module, path, name)
            self._patch(module, path, lambda fn, n=name: self._counted(fn, n))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------------

    def self_times(self):
        """Per span: its duration minus the time its direct children cover
        (children run inside the parent on one thread, so they never
        overlap)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def totals(self):
        """{name: (inclusive seconds, self seconds)} summed over spans."""
        out = defaultdict(lambda: [0.0, 0.0])
        for (name, start, end, _, _), self_s in zip(self.spans, self.self_times()):
            out[name][0] += end - start
            out[name][1] += self_s
        return out

    def write(self, path, extra):
        selfs = self.self_times()
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "job", "self_s"],
                "spans": [rec + [s] for rec, s in zip(self.spans, selfs)],
                "counts": dict(sorted(self.counts.items())),
                "untraced_callables": self.missing,
                **extra,
            }, fh)
            fh.write("\n")
