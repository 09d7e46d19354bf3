"""Span recorder installed from outside the package.

`Tracer.install()` replaces every public function of the package's modules,
the public methods of its public classes and the entries of
`verify.CRITERIA` with a wrapper that records one span per call: name id,
start, end, parent span, item id and one auxiliary integer (the call's
dimension, exit code, byte count, ... depending on the name). The wrapper is
installed under every name the package binds the function to, since a
`from .linalg import herm_eig` copy would otherwise be missed.
`uninstall()` puts the originals back, so untraced passes run the unmodified
code. Spans stay in memory (flat int64 arrays) until `aggregate()`.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

LAYERS = (
    "linalg",
    "sampling",
    "channels",
    "superchannels",
    "coherence",
    "serialization",
    "fixtures",
    "verify",
    "cli",
)

# functions whose per-call cost is reported per dimension (aux = first
# argument's .dim)
PER_DIM = (
    "superchannels.apply",
    "superchannels.realize",
    "superchannels.memory_class",
    "coherence.robustness",
    "coherence.discrimination_seesaw",
)
DIMS = (2, 3, 4)

ENCODE = {
    "serialization.matrix_to_json",
    "serialization.encode_float",
    "serialization.channel_to_json",
    "serialization.superchannel_to_json",
    "serialization.dephasing_to_json",
    "serialization.realization_to_json",
    "serialization.certificate_to_json",
    "serialization.instance_to_json",
    "serialization.dumps",
}
DECODE = {
    "serialization.matrix_from_json",
    "serialization.channel_from_json",
    "serialization.superchannel_from_json",
    "serialization.dephasing_from_json",
    "serialization.realization_from_json",
}


def _dim(args, _result) -> int:
    return int(getattr(args[0], "dim", 0)) if args else 0


def _aux_hook(name: str, modules: dict):
    """Post-call hook giving the span's auxiliary integer, or None."""
    if name in PER_DIM and name != "coherence.discrimination_seesaw":
        return _dim
    if name == "coherence.discrimination_seesaw":
        # dimension in the low byte, iteration count above it
        return lambda args, res: _dim(args, res) | (len(res.iteration_log) << 8)
    if name == "superchannels.validate":
        violation = modules["superchannels"].Violation
        return lambda args, res: int(isinstance(res, violation))
    if name == "serialization.dumps":
        return lambda args, res: len(res.encode("utf-8"))
    if name == "cli.main":
        return lambda args, res: int(res)
    return None


class Tracer:
    def __init__(self, modules: dict):
        """modules: short layer name -> imported module of the package."""
        self.modules = modules
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.nid = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.item = array("q")
        self.aux = array("q")
        self.stack: list[int] = []
        self.item_id = -1
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        hook = _aux_hook(name, self.modules)
        nids, start, end, parent = self.nid, self.start, self.end, self.parent
        item, aux, stack = self.item, self.aux, self.stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            nids.append(nid)
            parent.append(stack[-1] if stack else -1)
            item.append(tracer.item_id)
            aux.append(0)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                aux[idx] = hook(args, result)
            return result

        return wrapper

    def _targets(self):
        """(original function, span name) for every public callable."""
        out = []
        for layer in LAYERS:
            mod = self.modules[layer]
            for attr, val in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(val) and val.__module__ == mod.__name__:
                    out.append((val, f"{layer}.{attr}"))
                elif inspect.isclass(val) and val.__module__ == mod.__name__:
                    for mname, meth in vars(val).items():
                        if not mname.startswith("_") and inspect.isfunction(meth):
                            out.append((meth, f"{layer}.{attr}.{mname}", val, mname))
        return out

    def install(self, extra=()) -> None:
        """Patch every binding; extra holds (owner, attribute, span name) for
        the benchmark's own code, recorded as layer `bench`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for entry in self._targets():
            fn, name = entry[0], entry[1]
            if len(entry) == 4:
                owner, attr = entry[2], entry[3]
                self._patch(owner, attr, self._wrap(fn, name))
            elif id(fn) not in wrappers:
                wrappers[id(fn)] = (fn, self._wrap(fn, name))
        package = self.modules["package"]
        for mod in (package, *(self.modules[layer] for layer in LAYERS)):
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, hit[1])
        criteria = self.modules["verify"].CRITERIA
        for i, fn in enumerate(list(criteria)):
            self._patch(criteria, i, self._wrap(fn, f"verify.criterion_{i + 1:02d}"))
        for owner, attr, name in extra:
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name))

    def _patch(self, owner, key, new) -> None:
        if isinstance(owner, list):
            old = owner[key]
            owner[key] = new
        else:
            old = owner.__dict__[key] if key in getattr(owner, "__dict__", {}) else getattr(owner, key)
            setattr(owner, key, new)
        self._patches.append((owner, key, old))

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._patches):
            if isinstance(owner, list):
                owner[key] = old
            elif isinstance(owner, type) or inspect.ismodule(owner):
                setattr(owner, key, old)
            else:
                # instance attribute shadowing a method: drop the shadow
                delattr(owner, key)
        self._patches.clear()

    # -- aggregation --------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "nid": np.frombuffer(self.nid, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "item": np.frombuffer(self.item, dtype=np.int64).copy(),
            "aux": np.frombuffer(self.aux, dtype=np.int64).copy(),
        }


def _nested_flags(nid: np.ndarray, parent: np.ndarray, group: np.ndarray):
    """(nested under a span of the same name, nested under a span of the
    same group) for every span, by walking ancestors in vectorized steps."""
    n = nid.size
    same_name = np.zeros(n, dtype=bool)
    same_group = np.zeros(n, dtype=bool)
    anc = parent.copy()
    own_group = group[nid]
    while True:
        live = np.flatnonzero(anc >= 0)
        if live.size == 0:
            break
        a = anc[live]
        same_name[live] |= nid[a] == nid[live]
        same_group[live] |= (group[nid[a]] == own_group[live]) & (own_group[live] >= 0)
        anc[live] = parent[a]
    return same_name, same_group


def aggregate(names: list[str], spans: dict, passes: list[tuple], items_per_pass: int) -> tuple[dict, list[str]]:
    """Per-layer metrics per traced pass, and a list of accounting errors.

    passes holds (first span index, end span index, start ns, end ns) per
    traced pass. Times are means over passes; counts must be equal in
    every pass and are reported once.
    """
    errors: list[str] = []
    nid, start, end, parent, aux = (spans[k] for k in ("nid", "start", "end", "parent", "aux"))
    n_names = len(names)
    dur = end - start
    if np.any(end == 0) or np.any(dur < 0):
        errors.append("unclosed or negative span")
    live = parent >= 0
    cover = np.bincount(parent[live], weights=dur[live], minlength=nid.size)
    self_ns = dur - cover
    if self_ns.size and self_ns.min() < 0:
        errors.append(f"child spans exceed their parent by {-self_ns.min()} ns")
    layer_of = np.array([LAYERS.index(nm.split(".")[0]) if nm.split(".")[0] in LAYERS else -1
                         for nm in names], dtype=np.int64)
    group = np.full(n_names, -1, dtype=np.int64)
    for i, nm in enumerate(names):
        group[i] = 0 if nm in ENCODE else 1 if nm in DECODE else -1
    same_name, same_group = _nested_flags(nid, parent, group)
    is_bench = np.array([nm.startswith("bench.") for nm in names], dtype=bool)

    per_pass = []
    for p0, p1, t0, t1 in passes:
        sl = slice(p0, p1)
        k = nid[sl]
        calls = np.bincount(k, minlength=n_names)
        incl = np.bincount(k, weights=np.where(same_name[sl], 0, dur[sl]), minlength=n_names)
        lib = ~is_bench[k]
        layer_self = np.bincount(layer_of[k][lib], weights=self_ns[sl][lib], minlength=len(LAYERS))
        bench_ns = float(self_ns[sl][is_bench[k]].sum())
        grp = group[k]
        outer = ~same_group[sl]
        enc = float(dur[sl][(grp == 0) & outer].sum())
        dec = float(dur[sl][(grp == 1) & outer].sum())
        top = parent[sl] < 0
        if np.any(start[sl][top] < t0) or np.any(end[sl][top] > t1):
            errors.append("top-level span outside its pass")
        per_pass.append({
            "calls": calls,
            "incl": incl,
            "layer_self": layer_self,
            "bench": bench_ns,
            "wall": float(t1 - t0),
            "enc": enc,
            "dec": dec,
            "aux": aux[sl],
            "nid": k,
            "lib_spans": int(lib.sum()),
        })

    first = per_pass[0]
    for pp in per_pass[1:]:
        if not np.array_equal(pp["calls"], first["calls"]):
            diff = [names[i] for i in np.flatnonzero(pp["calls"] != first["calls"])]
            errors.append(f"call counts differ between traced passes: {diff[:5]}")
            break
    idx = {nm: i for i, nm in enumerate(names)}
    npass = len(per_pass)

    def mean(key):
        return sum(pp[key] for pp in per_pass) / npass

    incl = mean("incl") / 1e9
    layer_self = mean("layer_self") / 1e9
    calls = first["calls"]

    def seconds(name):
        return float(incl[idx[name]]) if name in idx else 0.0

    def count(name):
        return int(calls[idx[name]]) if name in idx else 0

    def aux_sum(name, fn=lambda a: a):
        if name not in idx:
            return 0
        return int(fn(first["aux"][first["nid"] == idx[name]]).sum())

    m: dict[str, float] = {}
    for c in range(1, 13):
        m[f"verify.criterion_{c:02d}.s"] = seconds(f"verify.criterion_{c:02d}")
    for name in ("coherence.robustness_grid", "coherence.robustness", "coherence.check_certificate",
                 "coherence.discrimination_seesaw", "coherence.dh_channel_divergence_lower",
                 "coherence.cohering_power", "superchannels.sample", "superchannels.validate",
                 "superchannels.apply", "superchannels.act_on_dephasing", "superchannels.memory_class",
                 "superchannels.realize", "superchannels.from_unitaries", "linalg.complete_isometry",
                 "channels.check_channel"):
        m[f"{name}.s"] = seconds(name)
    for name in ("coherence.robustness_grid", "coherence.robustness", "coherence.hypothesis_test_divergence",
                 "superchannels.validate", "superchannels.apply", "channels.check_channel",
                 "linalg.herm_eig"):
        m[f"{name}.calls"] = count(name)
    seesaw = idx.get("coherence.discrimination_seesaw")
    iters = [int((pp["aux"][pp["nid"] == seesaw] >> 8).sum()) if seesaw is not None else 0
             for pp in per_pass]
    if len(set(iters)) > 1:
        errors.append(f"seesaw iteration counts differ between traced passes: {iters}")
    m["coherence.discrimination_seesaw.iters"] = iters[0]
    m["superchannels.validate.rejected"] = aux_sum("superchannels.validate")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(layer_self[LAYERS.index(layer)])
    m["linalg.calls"] = int(sum(calls[i] for i, nm in enumerate(names) if nm.startswith("linalg.")))
    m["linalg.herm_eig.per_item"] = count("linalg.herm_eig") / items_per_pass
    m["serialization.encode.s"] = mean("enc") / 1e9
    m["serialization.decode.s"] = mean("dec") / 1e9
    m["serialization.bytes_out"] = aux_sum("serialization.dumps")
    for code in (0, 2, 3):
        m[f"cli.exit_{code}"] = aux_sum("cli.main", lambda a, c=code: a == c)

    # per-dimension median cost over every traced call
    for name in PER_DIM:
        for d in DIMS:
            val = 0.0
            if name in idx:
                sel = (nid == idx[name]) & ((aux & 0xFF) == d)
                if sel.any():
                    val = float(np.median(dur[sel])) / 1e3
            m[f"{name}.d{d}.us"] = val

    wall = mean("wall") / 1e9
    bench = mean("bench") / 1e9
    m["bench.self_s"] = bench
    m["trace.wall_s"] = wall
    m["trace.spans"] = sum(pp["lib_spans"] for pp in per_pass) / npass
    unaccounted = wall - float(layer_self.sum()) - bench
    m["trace.unaccounted_s"] = unaccounted
    if unaccounted < -1e-6 or unaccounted > 0.03 * wall + 1e-3:
        errors.append(f"accounting does not close: wall {wall:.6f} s, layers "
                      f"{float(layer_self.sum()):.6f} s, bench {bench:.6f} s")
    return m, errors
