"""Per-layer tracing of stimclone from outside the package.

The traced run wraps a declared list of public functions of each module.
A spanned function records one span per call (name, start, end, parent span,
job id); a hot leaf is only counted.  The wrapper replaces the function in
every `stimclone` module namespace that holds it, so internal calls such as
`fidelity_global` -> `trace_out_b` and calls through the `cli` namespace are
attributed too.  A declared function that no longer exists is reported as
absent, so the tracer survives refactors that remove or rename it.
"""

import functools
import sys
import time
from collections import Counter

# layer -> public functions recorded as spans.
SPANNED = {
    "fock": ("enumerate_sector",),
    "cloner": ("clone_pure", "clone_basis_state", "clone_mixed", "expand_identical"),
    "reduction": ("trace_out_b", "reduce_to_single", "fidelity_single", "fidelity_global",
                  "shrinking_factor"),
    "ladder": ("ladder_matrix", "evolve"),
    "oracle": ("build_full_hamiltonian", "embed_clone_state", "verify_ladder",
               "verify_evolution"),
    "cli": ("main",),
}
# layer -> hot leaf functions, counted but not spanned.
COUNTED = {"fock": ("clone_amplitude", "SectorBasis.index")}


def _nbytes(result) -> int:
    """Bytes of the numpy arrays a result carries (computed from nbytes)."""
    arrays = [getattr(result, field, None) for field in ("amplitudes", "matrix")]
    return sum(a.nbytes for a in arrays if hasattr(a, "nbytes"))


# function -> (gauge, how values combine, value read from the function's result)
GAUGES = {
    "fock.enumerate_sector": ("fock.sector_dim_max", max, len),
    "ladder.ladder_matrix": ("ladder.dim_max", max, lambda h: h.size),
    "oracle.build_full_hamiltonian": ("oracle.dim_max", max, lambda r: len(r[0])),
    "oracle.verify_ladder": ("oracle.checks", sum, lambda r: len(r["checks"])),
    "oracle.verify_evolution": ("oracle.checks", sum, lambda r: len(r["checks"])),
    **{f"cloner.{name}": ("cloner.bytes_out", sum, _nbytes) for name in SPANNED["cloner"]},
    **{f"reduction.{name}": ("reduction.bytes_out", sum, _nbytes)
       for name in SPANNED["reduction"]},
}
SETUP_IMPORTS = ("numpy", "scipy", "stimclone")
DIAGNOSTICS = (("trace.overhead_frac", "frac"), ("check.max_dev", "abs"))


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, names in SPANNED.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
        for name in COUNTED.get(layer, ()):
            units[f"{layer}.{name}.calls"] = "count"
        for gauge, _, _ in GAUGES.values():
            if gauge.startswith(layer + ".") and gauge not in units:
                units[gauge] = "bytes" if gauge.endswith("bytes_out") else "count"
    # Fed by the benchmark's job runner, which captures what `cli.main` prints.
    units["cli.out_bytes"] = "bytes"
    for module in SETUP_IMPORTS:
        units[f"setup.import.{module}_s"] = "s"
    units.update(DIAGNOSTICS)
    return units


class Tracer:
    """Spans, counts and gauges of one traced round, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id]
        self._open = []
        self.calls = Counter()
        self.gauges = {}
        self.absent = []
        self.job = None

    def gauge(self, name: str, combine, value) -> None:
        self.gauges[name] = combine((self.gauges[name], value)) if name in self.gauges else value

    def _spanned(self, name: str, fn, gauge):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = [name, time.perf_counter(), None, parent, self.job]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
                self.calls[name] += 1
            if gauge is not None:
                metric, combine, read = gauge
                try:
                    self.gauge(metric, combine, read(result))
                except (AttributeError, TypeError, KeyError, IndexError):
                    pass
            return result
        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every declared function that exists; record the rest as absent."""
        declared = [(layer, name, True) for layer, names in SPANNED.items() for name in names]
        declared += [(layer, name, False) for layer, names in COUNTED.items() for name in names]
        for layer, name, spanned in declared:
            full = f"{layer}.{name}"
            owner = sys.modules.get(f"stimclone.{layer}")
            *path, attr = name.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(full)
                continue
            wrapped = (self._spanned(full, original, GAUGES.get(full)) if spanned
                       else self._counted(full, original))
            if path:
                setattr(owner, attr, wrapped)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "stimclone" or mod_name.startswith("stimclone."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)

    def summary(self) -> dict:
        """calls, self time per spanned function, gauges and absent names."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            self_s[name] += end - start - inner
        return {"calls": dict(self.calls), "self_s": dict(self_s), "gauges": self.gauges,
                "absent": self.absent}


def import_split(importtime_stderr: str) -> dict:
    """Seconds spent importing numpy, scipy and stimclone, from `-X importtime`.

    Each module's share is the cumulative time of its outermost import entries,
    except stimclone, whose share is the self time of its own modules, so the
    three parts do not overlap.
    """
    # Entries come children first; an entry's children are the pending entries
    # one level deeper.
    pending = {}
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cumulative_us, label = line[len("import time:"):].split("|", 2)
        # The label is one space, then two spaces per nesting level, then the name.
        name = label.rstrip()[1:]
        level = (len(name) - len(name.lstrip())) // 2
        node = (name.strip(), int(self_us), int(cumulative_us), pending.pop(level + 1, []))
        pending.setdefault(level, []).append(node)
    roots = [node for level in sorted(pending) for node in pending[level]]

    split = dict.fromkeys(SETUP_IMPORTS, 0)

    def walk(node, inside):
        name, self_us, cumulative_us, children = node
        top = name.split(".")[0]
        if top == "stimclone":
            split["stimclone"] += self_us
        elif top in split and inside is None:
            split[top] += cumulative_us
            inside = top
        for child in children:
            walk(child, inside)

    for root in roots:
        walk(root, None)
    return {f"setup.import.{k}_s": v / 1e6 for k, v in split.items()}
