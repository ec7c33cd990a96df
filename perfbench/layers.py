"""Per-layer tracing from outside the package.

The tracer rebinds public functions of each k3lag module to wrappers that
record a span per call: calls, inclusive time and self time (inclusive time
minus the time of nested spans). Because modules import each other's
functions by name, every module namespace holding the original object gets
the wrapper, and uninstall() puts the originals back. One thread only, so a
plain stack of open spans is enough.
"""
from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute) pairs traced as spans
SPANS = (
    ("intlinalg", "hnf_with_transform"),
    ("intlinalg", "int_kernel"),
    ("intlinalg", "solve_left"),
    ("intlinalg", "symmetric_diagonalize"),
    ("intlinalg", "frac_inverse"),
    ("intlinalg", "det"),
    ("intlinalg", "smith_invariants"),
    ("lattice", "signature"),
    ("lattice", "orth_complement"),
    ("lattice", "saturate"),
    ("enumeration", "short_vectors"),
    ("enumeration", "roots_generate"),
    ("enumeration", "root_slice"),
    ("enumeration", "find_positive"),
    ("enumeration", "find_isotropic"),
    ("eichler", "canonical_form"),
    ("eichler", "orth_witnesses"),
    ("criteria", "lag_lattice"),
    ("criteria", "classify"),
    ("criteria", "split_radical"),
    ("criteria", "certificate_for"),
    ("criteria", "verify_certificate"),
    ("criteria", "realizable"),
    ("fibration", "make_nef"),
    ("serialize", "dumps"),
    ("serialize", "loads"),
    ("cli", "main"),
)

# calls of the first span made while the second is open
NESTED = (
    ("enumeration.roots_generate", "criteria.certificate_for"),
    ("enumeration.root_slice", "fibration.make_nef"),
)


def max_bits(*matrices) -> int:
    return max((abs(x).bit_length() for m in matrices for row in m for x in row), default=0)


class Tracer:
    def __init__(self, package):
        self.pkg = package
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()  # work counts recorded by result hooks
        self.maxima = Counter()
        self.open = []  # child time of each open span
        self.active = Counter()  # names of open spans
        self._undo = []
        self._caches = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        lat = self.pkg.lattice
        self._caches = {
            name: (getattr(lat, name), getattr(lat, name).cache_info())
            for name in ("signature", "radical")
        }
        mods = {name: getattr(self.pkg, name) for name in {m for m, _ in SPANS}}
        for mod, attr in SPANS:
            self._rebind(getattr(mods[mod], attr), self._span(f"{mod}.{attr}", getattr(mods[mod], attr)))
        enum = self.pkg.enumeration
        self._rebind(enum._ellipsoid_points, self._points(enum._ellipsoid_points))
        sub = self.pkg.lattice.Sublattice
        post = sub.__post_init__
        sub.__post_init__ = self._span("lattice.Sublattice.validate", post)
        self._undo.append((sub, "__post_init__", post))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _rebind(self, original, wrapper) -> None:
        """Replace `original` in every k3lag module namespace that holds it."""
        for name, mod in list(sys.modules.items()):
            if name == "k3lag" or name.startswith("k3lag."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        nested = [parent for child, parent in NESTED if child == name]

        def wrapper(*args, **kwargs):
            for parent in nested:
                if self.active[parent]:
                    self.counts[f"{name}@{parent}"] += 1
            frame = [0.0]
            self.open.append(frame)
            self.active[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.active[name] -= 1
                self.open.pop()
                self.calls[name] += 1
                self.total_s[name] += t1 - t0
                self.self_s[name] += t1 - t0 - frame[0]
                # the parent's self time excludes this span
                if self.open:
                    self.open[-1][0] += t1 - t0
            if hook is not None:
                hook(result)
                if self.open:  # ... and the hook's own cost
                    self.open[-1][0] += perf_counter() - t1
            return result

        return wrapper

    def _points(self, fn):
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts["ellipsoid.points"] += 1
                yield item

        return wrapper

    # -- result hooks: work counts at the layer boundary --------------------

    def _on_intlinalg_hnf_with_transform(self, result):
        h, u = result
        self.maxima["hnf.max_bits"] = max(self.maxima["hnf.max_bits"], max_bits(h, u))

    def _on_enumeration_short_vectors(self, result):
        self.counts["short_vectors.vectors"] += len(result)

    def _on_enumeration_roots_generate(self, result):
        self.counts["roots_generate.roots"] += len(result.roots)

    def _on_enumeration_root_slice(self, result):
        self.counts["root_slice.roots"] += len(result)
        if self.active["fibration.make_nef"]:
            self.counts["root_slice.roots@fibration.make_nef"] += len(result)

    def _on_enumeration_find_isotropic(self, result):
        if not isinstance(result, self.pkg.enumeration.Unknown):
            self.counts["find_isotropic.decided"] += 1

    def _on_eichler_canonical_form(self, result):
        bits = max_bits(result.g.matrix)
        self.maxima["canonical_form.bits"] = max(self.maxima["canonical_form.bits"], bits)

    def _on_criteria_classify(self, result):
        if result.case == "Split":
            self.counts["classify.split"] += 1

    def _on_fibration_make_nef(self, result):
        self.counts["make_nef.steps"] += len(result.reflections)

    def _on_serialize_dumps(self, result):
        self.counts["dumps.bytes"] += len(result.encode("utf-8"))

    # -- metrics ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for mod, attr in SPANS:
            name = f"{mod}.{attr}"
            out[name + ".calls"] = (self.calls[name], "count")
            if attr != "smith_invariants":
                out[name + ".self_s"] = (self.self_s[name], "s")
        out["intlinalg.hnf_with_transform.max_bits"] = (self.maxima["hnf.max_bits"], "bits")
        for name in ("signature", "radical"):
            fn, before = self._caches[name]
            after = fn.cache_info()
            hits, misses = after.hits - before.hits, after.misses - before.misses
            out[f"lattice.{name}.cache_hit_ratio"] = (ratio(hits, hits + misses), "ratio")
        out["lattice.cache_entries"] = (
            sum(fn.cache_info().currsize for fn, _ in self._caches.values()),
            "count",
        )
        out["lattice.Sublattice.validations"] = (self.calls["lattice.Sublattice.validate"], "count")
        # inclusive: the HNF re-validation is the cost, not the wrapper around it
        out["lattice.Sublattice.validate_s"] = (self.total_s["lattice.Sublattice.validate"], "s")
        c = self.counts
        out["enumeration.short_vectors.vectors"] = (c["short_vectors.vectors"], "count")
        out["enumeration.roots_generate.roots"] = (c["roots_generate.roots"], "count")
        out["enumeration.root_slice.roots"] = (c["root_slice.roots"], "count")
        out["enumeration.find_isotropic.decided_ratio"] = (
            ratio(c["find_isotropic.decided"], self.calls["enumeration.find_isotropic"]),
            "ratio",
        )
        out["enumeration.ellipsoid.points"] = (c["ellipsoid.points"], "count")
        out["enumeration.ellipsoid.kept_ratio"] = (
            ratio(c["short_vectors.vectors"] + c["root_slice.roots"], c["ellipsoid.points"]),
            "ratio",
        )
        out["eichler.canonical_form.isometry_max_bits"] = (self.maxima["canonical_form.bits"], "bits")
        out["criteria.classify.split_share"] = (
            ratio(c["classify.split"], self.calls["criteria.classify"]),
            "ratio",
        )
        out["criteria.certificate_for.roots_generate_per_call"] = (
            ratio(c["enumeration.roots_generate@criteria.certificate_for"], self.calls["criteria.certificate_for"]),
            "ratio",
        )
        steps = c["make_nef.steps"]
        out["fibration.make_nef.steps"] = (steps, "count")
        out["fibration.make_nef.root_slice_per_step"] = (
            ratio(c["enumeration.root_slice@fibration.make_nef"], steps),
            "ratio",
        )
        out["fibration.make_nef.useful_root_ratio"] = (
            ratio(steps, c["root_slice.roots@fibration.make_nef"]),
            "ratio",
        )
        out["serialize.dumps.bytes"] = (c["dumps.bytes"], "bytes")
        return out


def ratio(num, den) -> float:
    return num / den if den else 0.0
