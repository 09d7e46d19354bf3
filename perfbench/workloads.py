"""The three workloads: one fixed unit of work ("pass") each, with output
checks and a result digest.

Every workload is a closed loop with one client: one call at a time, the next
only after the previous returns. A pass is deterministic given the seed, so
every pass of a run must give the same digest, traced or not.

- verify-quick: `dephaser verify --trials 2` in-process, as CI runs it; the
  item is the whole call.
- pipeline: a library Monte Carlo loop over d = 2, 3, 4 shaped like the
  acceptance criteria (sample, apply, coherence, realize, round trips and
  the validation reject path on corrupted correlation matrices).
- cli: one in-process `cli.main` call per item over every subcommand but
  verify, on seed-generated JSON files, the shipped fixtures and a fixed
  share of bad inputs with known exit codes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import time

import numpy as np

DIMS = (2, 3, 4)


def _round(x: float) -> float:
    # 9 decimals: stable against last-bit differences, and -0.0 becomes 0.0
    return round(x, 9) + 0.0


def canonical(obj):
    """JSON value with every float rounded, for hashing."""
    if isinstance(obj, float):
        return _round(obj)
    if isinstance(obj, dict):
        return {k: canonical(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [canonical(v) for v in obj]
    return obj


def array_bytes(a: np.ndarray) -> bytes:
    a = np.asarray(a, dtype=complex)
    return (np.round(a.real, 9) + 0.0).tobytes() + (np.round(a.imag, 9) + 0.0).tobytes()


class Pass:
    """Latencies, failures and digest of one pass."""

    def __init__(self):
        self.intervals: list[tuple[int, int]] = []  # (start, end) of each item, ns
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.digest = hashlib.sha256()
        self.wall = 0.0
        self.interval = (0, 0)

    def record(self, t0: int, t1: int, problems: list[str], label: str) -> None:
        self.intervals.append((t0, t1))
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{label}: {'; '.join(problems)}")


class Workload:
    name = ""
    items_per_pass = 0
    min_passes = 2

    def __init__(self, mods: dict, seed: int, workdir: str):
        self.m = mods
        self.seed = seed
        self.workdir = workdir
        self.tol = dict(mods["verify"].DEFAULT_TOLERANCES)
        self.tracer = None
        self.next_item = 0
        # ns clock for every measured interval; the speed probe replaces it
        self.clock = time.perf_counter_ns

    def begin_item(self) -> None:
        if self.tracer is not None:
            self.tracer.item_id = self.next_item
        self.next_item += 1

    def bench_spans(self):
        """(owner, attribute, span name) of the benchmark's own steps."""
        return [(self, "check", "bench.check"), (self, "fingerprint", "bench.digest")]


def corrupt(c: np.ndarray, d: int, kind: str, kinds) -> np.ndarray:
    """Copy of a valid correlation matrix that breaks exactly one condition;
    validate() checks the diagonal, then block equality, then PSD, so each
    corruption keeps the conditions checked before it."""
    bad = np.array(c, dtype=complex)
    if kind == kinds.DIAGONAL_NOT_ONE:
        bad[d + 1, d + 1] += 0.25
    elif kind == kinds.BLOCKS_UNEQUAL:
        # an off-diagonal entry of diagonal block 1, kept Hermitian
        bad[d, d + 1] += 0.25
        bad[d + 1, d] += 0.25
    elif kind == kinds.NOT_PSD:
        # I + lam (C - I) keeps the unit diagonal and equal blocks; its
        # smallest eigenvalue is 1 - lam (1 - lam_min(C)) = -0.5 here
        lam_min = float(np.linalg.eigvalsh(bad)[0])
        lam = 1.5 / (1.0 - lam_min)
        eye = np.eye(d * d)
        bad = eye + lam * (bad - eye)
        bad = (bad + bad.conj().T) / 2
    else:
        raise ValueError(kind)
    return bad


class VerifyQuick(Workload):
    name = "verify-quick"
    items_per_pass = 1
    min_passes = 3

    def setup(self) -> None:
        ver = self.m["verify"]
        # warm-up: argument parsing, JSON output, fixture loading
        self._call(["sample", "--dim", "2", "--seed", str(self.seed)])
        ver.CRITERIA[0](ver.VerifyConfig(seed=self.seed, trials=2))

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = self.clock()
            code = self.m["cli"].main(argv)
            t1 = self.clock()
        return code, out.getvalue(), t0, t1

    def run_pass(self, p: Pass) -> None:
        self.begin_item()
        code, text, t0, t1 = self._call(["verify", "--trials", "2", "--seed", str(self.seed)])
        rows, problems = self.check(code, text)
        p.record(t0, t1, problems, "verify")
        p.digest.update(self.fingerprint(code, rows))

    def check(self, code: int, text: str):
        problems = []
        if code != 0:
            problems.append(f"exit code {code}, expected 0")
        try:
            rows = json.loads(text)["results"]["criteria"]
        except (ValueError, KeyError, TypeError) as exc:
            return [], problems + [f"unreadable report: {exc}"]
        failing = [r.get("id") for r in rows if r.get("passed") is not True]
        if len(rows) != 12 or failing:
            problems.append(f"{len(rows)} criteria reported, not passing: {failing}")
        return rows, problems

    def fingerprint(self, code: int, rows) -> bytes:
        return json.dumps([code, canonical(rows)], sort_keys=True).encode()

    def selftest(self) -> list[str]:
        good = {"results": {"criteria": [{"id": i, "passed": True} for i in range(1, 13)]}}
        errors = []
        if self.check(0, json.dumps(good))[1]:
            errors.append("verify checker rejects a passing report")
        if not self.check(1, json.dumps(good))[1]:
            errors.append("verify checker accepts exit code 1")
        bad = json.loads(json.dumps(good))
        bad["results"]["criteria"][8]["passed"] = False
        if not self.check(0, json.dumps(bad))[1]:
            errors.append("verify checker accepts a failed criterion")
        return errors


class Pipeline(Workload):
    name = "pipeline"
    items_per_pass = 108  # 12 rounds of d x corruption kind
    min_passes = 3

    def setup(self) -> None:
        ssc = self.m["superchannels"]
        self.kinds = (ssc.DIAGONAL_NOT_ONE, ssc.BLOCKS_UNEQUAL, ssc.NOT_PSD)
        self.rng = self.m["sampling"].Rng(self.seed)
        # warm-up on items outside the measured range, one per dimension
        for i in range(3):
            self.warm = self.check(*self.item(self.items_per_pass + i))[0]

    def bench_spans(self):
        return super().bench_spans() + [(self, "corrupted", "bench.inputs")]

    def item(self, i: int):
        ssc, chn, coh, ser = (self.m[k] for k in ("superchannels", "channels", "coherence", "serialization"))
        d = DIMS[i % 3]
        kind = self.kinds[(i // 3) % 3]
        psd = self.tol["psd"]
        r = self.rng.derive(1000 * i)
        sc = ssc.sample(r, d)
        rank = 1 + r.derive(500).integers(0, d * d)
        ch = chn.random_channel(r.derive(501), d, rank)
        out = ssc.apply(sc, ch, psd)
        t_in, t_out = chn.transition_matrix(ch), chn.transition_matrix(out)
        cp = (coh.cohering_power(ch), coh.cohering_power(out))
        dc = chn.random_dephasing(r.derive(600), d)
        closed = ssc.act_on_dephasing(sc, dc)
        mc = ssc.memory_class(sc, psd)
        real = ssc.realize(sc)
        rebuilt = ssc.from_unitaries(real.us, real.vs)
        back = ser.superchannel_from_json(json.loads(ser.dumps(ser.superchannel_to_json(sc))), psd)
        verdict = ssc.validate(self.corrupted(sc.c, d, kind), d, psd)
        return (d, kind, sc, out, t_in, t_out, cp, dc, closed, mc, real, rebuilt, back, verdict)

    def corrupted(self, c, d, kind):
        return corrupt(c, d, kind, self.m["superchannels"])

    def check(self, d, kind, sc, out, t_in, t_out, cp, dc, closed, mc, real, rebuilt, back, verdict):
        m = d * d
        rec = {
            "d": d,
            "injected": kind,
            "transition_dev": float(np.abs(t_out - t_in).max()),
            "cp_before": cp[0],
            "cp_after": cp[1],
            "contraction": float((np.abs(closed.c) - np.abs(dc.c)).max()),
            "label": mc.label,
            "roundtrip": float(np.abs(rebuilt.c - sc.c).max()),
            "unitarity": max(float(np.abs(w.conj().T @ w - np.eye(m)).max()) for w in (*real.us, *real.vs)),
            "serialization": float(np.abs(back.c - sc.c).max()),
            "verdict": getattr(verdict, "kind", "ACCEPTED"),
            "verdict_indices": list(getattr(verdict, "indices", ())),
            "verdict_defect": float(getattr(verdict, "defect", 0.0)),
        }
        return rec, self.check_record(rec)

    def check_record(self, rec: dict) -> list[str]:
        tol = self.tol
        problems = []
        if not rec["transition_dev"] <= tol["exact"]:
            problems.append(f"transition matrix moved by {rec['transition_dev']:.3e}")
        if not rec["cp_after"] <= rec["cp_before"] + tol["mono"]:
            problems.append("cohering power increased")
        if not rec["contraction"] <= tol["exact"]:
            problems.append("act_on_dephasing grew an entry")
        if rec["label"] not in ("PRODUCT", "PPT", "NPT") or (rec["d"] == 2 and rec["label"] == "NPT"):
            problems.append(f"memory class {rec['label']} at d={rec['d']}")
        if not rec["roundtrip"] <= tol["roundtrip"]:
            problems.append(f"realize round trip residual {rec['roundtrip']:.3e}")
        if not rec["unitarity"] <= tol["unit"]:
            problems.append(f"unitarity deviation {rec['unitarity']:.3e}")
        if not rec["serialization"] <= tol["exact"]:
            problems.append("serialization round trip changed C")
        if rec["verdict"] != rec["injected"]:
            problems.append(f"corrupted C ({rec['injected']}) judged {rec['verdict']}")
        return problems

    def fingerprint(self, rec: dict, sc, out, closed, mc) -> bytes:
        head = json.dumps({k: canonical(v) for k, v in rec.items()
                           if k in ("d", "injected", "cp_before", "cp_after", "label", "verdict",
                                    "verdict_indices", "verdict_defect")}, sort_keys=True)
        tail = [_round(mc.ppt_min_eig), _round(mc.product_residual)]
        return head.encode() + repr(tail).encode() + array_bytes(sc.c) + array_bytes(out.jam) + array_bytes(closed.c)

    def run_pass(self, p: Pass) -> None:
        for i in range(self.items_per_pass):
            self.begin_item()
            t0 = self.clock()
            objs = self.item(i)
            t1 = self.clock()
            rec, problems = self.check(*objs)
            p.record(t0, t1, problems, f"item {i} d={objs[0]}")
            p.digest.update(self.fingerprint(rec, objs[2], objs[3], objs[8], objs[9]))

    def selftest(self) -> list[str]:
        errors = []
        if self.check_record(self.warm):
            errors.append(f"pipeline checker rejects a good item: {self.check_record(self.warm)}")
        mutants = [
            {"verdict": self.kinds[(self.kinds.index(self.warm["injected"]) + 1) % 3]},
            {"verdict": "ACCEPTED"},
            {"transition_dev": 1e-6},
            {"roundtrip": 1e-6},
            {"unitarity": 1e-6},
            {"cp_after": self.warm["cp_before"] + 1e-6},
            {"serialization": 1e-3},
        ]
        for mut in mutants:
            if not self.check_record({**self.warm, **mut}):
                errors.append(f"pipeline checker accepts mutant {mut}")
        return errors


class Cli(Workload):
    name = "cli"
    min_passes = 3
    SETS = 12  # input sets per dimension: averages out instance-dependent solver cost

    def setup(self) -> None:
        ssc, chn, ser = self.m["superchannels"], self.m["channels"], self.m["serialization"]
        rng = self.m["sampling"].Rng(self.seed)
        os.makedirs(self.workdir, exist_ok=True)
        fixtures = os.path.join(os.path.dirname(self.m["package"].__file__), "fixtures")

        def write(name: str, obj) -> str:
            path = os.path.join(self.workdir, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(ser.dumps(obj))
            return path

        per_d = {}
        for d in DIMS:
            f = per_d[d] = {"sets": []}
            for j in range(self.SETS):
                r = rng.derive(1000 * d + 10 * j)
                scs = [ssc.sample(r.derive(k), d) for k in range(3)]
                rank = 1 + r.derive(7).integers(0, d * d)
                f["sets"].append({
                    "sc": [write(f"sc{d}{j}{k}.json", ser.superchannel_to_json(sc)) for k, sc in enumerate(scs)],
                    "ch": write(f"ch{d}{j}.json", ser.channel_to_json(chn.random_channel(r.derive(8), d, rank))),
                    "gate": write(f"gate{d}{j}.json", ser.channel_to_json(
                        chn.random_channel(r.derive(9), d, 1 + j % 2))),
                })
                if j == 0:
                    for kind in (ssc.NOT_PSD, ssc.BLOCKS_UNEQUAL):
                        f[kind] = write(f"{kind.lower()}{d}.json",
                                        {"dim": d, "correlation": ser.matrix_to_json(corrupt(scs[0].c, d, kind, ssc))})
        id2 = write("id2.json", ser.superchannel_to_json(ssc.identity_superchannel(2)))
        malformed = os.path.join(self.workdir, "malformed.json")
        with open(malformed, "w", encoding="utf-8") as fh:
            fh.write('{"dim": 2, "correlation": {"rows": 4, "cols": ')
        fix = {name: os.path.join(fixtures, name + ".json")
               for name in ("corr2_sign_flip", "corr3_npt", "hadamard_channel")}

        seeds = itertools.count(1000 * self.seed)

        def call(argv, code, kind, d, m=0):
            # a seed of its own per call: the solvers' random restarts then
            # differ from call to call, as they do across users, so their
            # seed-dependent cost averages out over the pass
            seed = next(seeds)
            return {"argv": argv + ["--seed", str(seed)], "exit": code, "kind": kind, "d": d, "m": m}

        calls = []
        for d in DIMS:
            f = per_d[d]
            calls += [
                call(["sample", "--dim", str(d), "--n", "2"], 0, "sample", d),
                call(["classify", f[ssc.NOT_PSD]], 3, ssc.NOT_PSD, d),
                call(["classify", f[ssc.BLOCKS_UNEQUAL]], 3, ssc.BLOCKS_UNEQUAL, d),
            ]
            for inp in f["sets"]:
                sc = inp["sc"]
                calls += [
                    call(["classify", sc[0]], 0, "classify", d),
                    call(["apply", sc[0], inp["ch"]], 0, "apply", d),
                    call(["realize", sc[1]], 0, "realize", d),
                    call(["coherence", inp["ch"]], 0, "coherence", d),
                    call(["distinguish", inp["gate"], sc[0], sc[1], "--restarts", "8"], 0, "distinguish", d, 2),
                ]
            if d in (2, 3):
                # M = 3 takes the pretty-good-measurement branch
                sc = f["sets"][0]["sc"]
                calls.append(call(["distinguish", f["sets"][0]["gate"], *sc, "--restarts", "8"],
                                  0, "distinguish", d, 3))
        calls += [
            call(["classify", fix["corr3_npt"]], 0, "classify-npt", 3),
            call(["apply", fix["corr2_sign_flip"], fix["hadamard_channel"]], 0, "apply", 2),
            call(["classify", malformed], 2, "malformed", 2),
            call(["coherence", fix["hadamard_channel"]], 0, "coherence", 2),
            call(["apply", per_d[2]["sets"][0]["sc"][0], per_d[3]["sets"][0]["ch"]], 3, "dim-mismatch", 2),
            call(["distinguish", fix["hadamard_channel"], id2, fix["corr2_sign_flip"], "--restarts", "8"],
                 0, "distinguish-perfect", 2, 2),
        ]
        self.calls = calls
        self.items_per_pass = len(calls)
        # warm-up: one call of each kind
        self.warm = {}
        for c in calls:
            if c["kind"] not in self.warm:
                self.warm[c["kind"]] = self.check(c, *self._invoke(c["argv"]))[0]

    def _invoke(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.m["cli"].main(argv)
        return code, out.getvalue(), err.getvalue()

    def run_pass(self, p: Pass) -> None:
        main, clock = self.m["cli"].main, self.clock
        for c in self.calls:
            out, err = io.StringIO(), io.StringIO()
            self.begin_item()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = clock()
                code = main(c["argv"])
                t1 = clock()
            rec, problems = self.check(c, code, out.getvalue(), err.getvalue())
            p.record(t0, t1, problems, f"{c['argv'][0]} {c['kind']} d={c['d']}")
            p.digest.update(self.fingerprint(rec))

    def check(self, call: dict, code: int, out: str, err: str):
        rec: dict = {"exit": code, "results": None, "checks": None,
                     "stderr": err.splitlines()[0] if err else ""}
        if out:
            try:
                report = json.loads(out)
            except ValueError:
                report = {}
            rec["results"] = report.get("results")
            rec["checks"] = report.get("checks")
        return rec, self.check_record(rec, call)

    def check_record(self, rec: dict, call: dict) -> list[str]:
        kind = call["kind"]
        if rec["exit"] != call["exit"]:
            return [f"exit code {rec['exit']}, expected {call['exit']}"]
        problems = []
        res = rec["results"] or {}
        checks = rec["checks"] or {}
        if kind in ("NOT_PSD", "BLOCKS_UNEQUAL"):
            vio = res.get("violation") or {}
            if vio.get("kind") != kind:
                problems.append(f"violation {vio.get('kind')}, expected {kind}")
            if kind == "BLOCKS_UNEQUAL" and not vio.get("witness_channel"):
                problems.append("no witness channel")
        elif kind == "dim-mismatch":
            if "dim mismatch" not in rec["stderr"]:
                problems.append(f"unexpected error text {rec['stderr']!r}")
        elif kind == "malformed":
            if "invalid JSON" not in rec["stderr"]:
                problems.append(f"unexpected error text {rec['stderr']!r}")
        elif kind == "sample":
            if len(res.get("items", ())) != 2:
                problems.append("wrong number of samples")
        elif kind in ("classify", "classify-npt"):
            label = (res.get("memory_class") or {}).get("label")
            if label not in ("PRODUCT", "PPT", "NPT"):
                problems.append(f"memory class {label}")
            elif kind == "classify-npt" and label != "NPT":
                problems.append(f"NPT fixture classified {label}")
            elif call["d"] == 2 and label == "NPT":
                problems.append("qubit memory classified NPT")
        elif kind == "apply":
            if not res.get("transition_max_change", 1.0) <= self.tol["exact"]:
                problems.append("transition matrix moved")
        elif kind == "realize":
            if not res.get("roundtrip_residual", 1.0) <= self.tol["roundtrip"]:
                problems.append("realize round trip residual")
            if not res.get("unitarity_deviation", 1.0) <= self.tol["unit"]:
                problems.append("unitarity deviation")
        elif kind == "coherence":
            if checks.get("certificate_ok") is not True:
                problems.append("certificate_ok is not true")
        elif kind in ("distinguish", "distinguish-perfect"):
            p_succ = (res.get("instance") or {}).get("p_succ")
            floor = 1.0 if kind == "distinguish-perfect" else 1.0 / call["m"]
            if checks.get("bound_ok") is not True:
                problems.append("bound_ok is not true")
            if not isinstance(p_succ, float) or p_succ < floor - self.tol["seesaw"]:
                problems.append(f"p_succ {p_succ} below {floor}")
        return problems

    def fingerprint(self, rec: dict) -> bytes:
        return json.dumps([rec["exit"], canonical(rec["results"]), canonical(rec["checks"])],
                          sort_keys=True).encode()

    def selftest(self) -> list[str]:
        errors = []
        by_kind = {c["kind"]: c for c in self.calls}

        def expect_reject(rec, kind, what):
            if not self.check_record(rec, by_kind[kind]):
                errors.append(f"cli checker accepts {what}")

        for kind, rec in self.warm.items():
            if self.check_record(rec, by_kind[kind]):
                errors.append(f"cli checker rejects a good {kind} call: {self.check_record(rec, by_kind[kind])}")
        expect_reject({**self.warm["coherence"], "exit": 3}, "coherence", "a wrong exit code")
        expect_reject({**self.warm["malformed"], "exit": 3}, "malformed", "exit 3 for malformed JSON")
        expect_reject({**self.warm["coherence"], "checks": {"certificate_ok": False}}, "coherence",
                      "certificate_ok false")
        expect_reject({**self.warm["distinguish"], "checks": {"bound_ok": False}}, "distinguish", "bound_ok false")
        low = json.loads(json.dumps(self.warm["distinguish"]))
        low["results"]["instance"]["p_succ"] = 0.4
        expect_reject(low, "distinguish", "p_succ below 1/M")
        flipped = json.loads(json.dumps(self.warm["NOT_PSD"]))
        flipped["results"]["violation"]["kind"] = "BLOCKS_UNEQUAL"
        expect_reject(flipped, "NOT_PSD", "a flipped violation kind")
        return errors


WORKLOADS = {w.name: w for w in (VerifyQuick, Pipeline, Cli)}
