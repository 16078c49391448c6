"""lieposet benchmark: four exact-arithmetic workloads in one closed loop.

Run from the repository root:

    python3 bench/run.py --workload catalog --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

One process, one thread. A pass runs every item of the workload once,
each item starting after the previous one ends; passes repeat while a
whole pass still fits in --seconds (at least one pass runs). The
package's lru caches are cleared before every pass, so each pass starts
as cold as a fresh CLI call. Every item's output is checked.

Times are reported in reference seconds (see speed.py): each raw time
is scaled by the speed of a fixed reference kernel sampled around and
during it, so the machine's drift in speed cancels out.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 spends half the window untraced and half with span wrappers
installed around the layer functions, and prints the per-layer metrics
(per pass) and the tracing overhead. The last line of standard output
is the JSON result; details and spans go to bench/out/.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import Speedometer
from tracer import Tracer, install

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

WORKLOADS = ("catalog", "sweep7", "index-chain", "scripts")
LAYER_FILES = {
    "posets": "posets.py",
    "algebras": "algebras.py",
    "forms": "forms.py",
    "linalg": "linalg.py",
    "sweep": "sweep.py",
    "toral.blocks": "toral/blocks.py",
    "toral.gluing": "toral/gluing.py",
}
HASH_SEED = "0"
SETUP_LAUNCHES = 9
SETUP_LAUNCHES_PER_PASS = 2
SWEEP_SEED = 0
SWEEP_TOTALS = {"connected_posets_checked": 1947, "contact_found": 420, "unreachable": 167}
CHAIN_SIZES = (10, 12, 14, 16)
# Reference kernel per workload (speed.py), "fraction" where not named.
# index-chain spends its time in big-integer elimination, which slows
# less than Fraction arithmetic in the machine's slow spells; scaled by
# the Fraction kernel its slow runs read up to about 10% fast.
SPEED_KERNEL = {"index-chain": "bareiss"}

# Stratum quotas of one scripts pass: (contact sequence, dim // 5 capped
# at 11, index above the parity floor). Item cost depends mostly on the
# algebra dimension and on whether every index trial needs exact
# elimination, so fixing these counts keeps a pass's cost steady across
# seeds while the seed still picks every script. The counts are the
# generator's own proportions over 6,000 draws (script seeds
# b*100000 + j, b < 6, j < 1000), scaled to 300 and rounded; strata under
# 0.5% are left out, which leaves 298 items.
SCRIPT_QUOTAS = {
    (True, 1, False): 9,
    (True, 2, False): 16,
    (True, 3, False): 15,
    (True, 4, False): 7,
    (True, 5, False): 19,
    (True, 6, False): 11,
    (True, 7, False): 15,
    (True, 8, False): 10,
    (True, 9, False): 16,
    (True, 10, False): 10,
    (True, 11, False): 22,
    (False, 0, False): 7,
    (False, 1, False): 5,
    (False, 2, False): 7,
    (False, 3, False): 22,
    (False, 4, False): 13,
    (False, 5, False): 10,
    (False, 6, False): 16,
    (False, 7, False): 12,
    (False, 8, False): 9,
    (False, 8, True): 3,
    (False, 9, False): 10,
    (False, 9, True): 2,
    (False, 10, False): 8,
    (False, 10, True): 5,
    (False, 11, False): 12,
    (False, 11, True): 7,
}
SCRIPT_MAX_DIM = 60


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_lieposet():
    if not (SRC / "lieposet" / "__init__.py").is_file():
        fail(f"no lieposet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lieposet
    import lieposet.sweep
    import lieposet.toral

    if Path(lieposet.__file__).resolve().parent != (SRC / "lieposet").resolve():
        fail(f"imported lieposet from {lieposet.__file__}, not from {SRC}")
    return lieposet


# ----- environment ----------------------------------------------------------


def environment():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def git_commit():
    """HEAD of a git checkout, read from .git directly; None elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_loc():
    """Non-blank source lines per layer module, and for all of src/."""
    def count(path):
        return sum(1 for line in path.read_text().splitlines() if line.strip())

    pkg = SRC / "lieposet"
    out = {f"{layer}.loc": count(pkg / rel) for layer, rel in LAYER_FILES.items()}
    out["src.loc"] = sum(count(p) for p in SRC.rglob("*.py"))
    return out


class SetupClock:
    """Wall time of fresh interpreters that start and import every layer.

    One unmeasured launch first, so byte-code compilation is not counted.
    `launch` runs between passes, so the launches spread over the run;
    each is bracketed by speed samples and reported in reference seconds.
    """

    def __init__(self, speed):
        self.speed = speed
        self.code = (
            f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import lieposet, lieposet.sweep, lieposet.toral"
        )
        self.spans = []
        self._launch_one()
        self.spans.clear()

    def _launch_one(self):
        self.speed.sample()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", self.code], check=True, timeout=60)
        self.spans.append((start, time.perf_counter()))
        self.speed.sample()

    def launch(self, count=SETUP_LAUNCHES_PER_PASS):
        for _ in range(count):
            self._launch_one()

    def medians(self):
        """Median launch time in reference seconds and in raw seconds."""
        self.launch(max(0, SETUP_LAUNCHES - len(self.spans)))
        return (
            statistics.median(self.speed.normalise(t0, t1) for t0, t1 in self.spans),
            statistics.median(t1 - t0 for t0, t1 in self.spans),
        )


# ----- workloads --------------------------------------------------------------
#
# Each builder returns a list of (label, thunk); a thunk runs one item and
# returns whether its output checked out. Building the list is input
# generation and is not timed.


def catalog_items(lp, seed):
    """The 81 pairs `lieposet verify-catalog` checks at --n-range 5 14."""
    blocks = lp.toral.blocks
    items = []
    for fam in blocks.catalog():
        if fam.parametric:
            ns = range(max(5, fam.n_range[0]), min(14, fam.n_range[1]) + 1)
        else:
            ns = [None]
        for n in ns:
            def item(block_id=fam.id, n=n):
                return blocks.verify_block(blocks.block(block_id, n), seed=seed).all_pass

            items.append((f"{fam.id}:{n}", item))
    return items


def sweep7_items(lp, seed):
    """`lieposet sweep --max-n 7` at the CLI's default seed, whatever --seed is.

    The pinned totals hold only for sweep seed 0: the randomized contact
    witnesses miss some contact posets and the misses depend on the seed
    (seed 1 reports 414 contact and 161 unreachable), so this workload
    has one fixed input.
    """
    def item():
        result = lp.sweep.conjecture_sweep(7, seed=SWEEP_SEED)
        got = {
            "connected_posets_checked": result["connected_posets_checked"],
            "contact_found": result["contact_found"],
            "unreachable": len(result["unreachable_by_scripts"]),
        }
        return got == SWEEP_TOTALS

    return [("sweep7", item)]


def index_chain_items(lp, seed):
    items = []
    for n in CHAIN_SIZES:
        def item(n=n):
            gA = lp.algebras.build_gA(lp.posets.Poset.chain(n))
            return lp.forms.index(gA, seed=seed) == (n - 1) // 2

        items.append((f"chain{n}", item))
    return items


def script_stratum(gluing, script, contact):
    result = gluing.run_script(script, build_form=False)
    poset = result.poset
    dim = poset.n - 1 + len(poset.relations)
    above_floor = gluing.index_formula(poset, script) > dim % 2
    return (contact, min(dim // 5, 11), above_floor)


def scripts_items(lp, seed):
    """Seeded random scripts, drawn until every stratum quota is full.

    Even script seeds are contact sequences (contact block first, rules
    from CONTACT_RULES) and are built with their form; odd ones are
    toral scripts over all twelve rules.
    """
    gluing = lp.toral.gluing
    need = dict(SCRIPT_QUOTAS)
    total = sum(need.values())
    chosen = []
    for j in range(40 * total):
        if len(chosen) == total:
            break
        s = seed * 100000 + j
        contact = s % 2 == 0
        script = gluing.random_toral_script(
            seed=s,
            length=1 + s % 5,
            allow_contact=contact,
            rule_pool=gluing.CONTACT_RULES if contact else None,
            max_dim=SCRIPT_MAX_DIM,
        )
        key = script_stratum(gluing, script, contact)
        if need.get(key, 0) > 0:
            need[key] -= 1
            chosen.append((s, contact, script))
    if len(chosen) != total:
        raise RuntimeError(f"script quotas not filled: {need}")

    def check(s, contact, script):
        built = gluing.run_script(script, build_form=contact)
        poset = built.poset
        gA = lp.algebras.build_gA(poset)
        ok = gluing.index_formula(poset, script) == lp.forms.index(gA, seed=s)
        if contact:
            ext = poset.extremal_data()
            ok = ok and gluing.is_contact_sequence(script)
            ok = ok and poset.betti_numbers(2) == [1, len(ext.rel_e) - len(ext.ext) + 1, 0]
            ok = ok and lp.forms.is_contact_form(gA, built.form, seed=s).is_contact
            ok = ok and lp.forms.is_contact_form_volume(gA, built.form)
        return ok

    return [(f"script{c[0]}", functools.partial(check, *c)) for c in chosen]


BUILDERS = {
    "catalog": catalog_items,
    "sweep7": sweep7_items,
    "index-chain": index_chain_items,
    "scripts": scripts_items,
}


# ----- closed loop ----------------------------------------------------------


def clear_caches():
    """Empty every lru cache of the package, as a fresh process has them."""
    for name, module in list(sys.modules.items()):
        if name != "lieposet" and not name.startswith("lieposet."):
            continue
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)) and getattr(
                obj, "__module__", ""
            ).startswith("lieposet"):
                obj.cache_clear()


class Loop:
    """Runs passes over the items and keeps every item's start, end and failure."""

    def __init__(self, items, speed):
        self.items = items
        self.speed = speed
        self.runs = []  # (pass, item, start, end)
        self.passes = 0
        self.attempted = 0
        self.failures = []

    def run(self, seconds, between=None):
        """Whole passes while the next one, at the median pass time, still fits.

        The speed is sampled before and after every pass and, from the
        timer or between items, during it. `between` is called after
        every pass, outside the pass's time. Returns the passes run.
        """
        start = time.perf_counter()
        first = self.passes
        times = []
        while True:
            clear_caches()
            self.speed.sample()
            self.speed.start()
            try:
                times.append(self.one_pass())
            finally:
                self.speed.stop()
            self.speed.sample()
            if between is not None:
                between()
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(times) > seconds:
                return range(first, self.passes)

    def one_pass(self):
        clock = time.perf_counter
        pass_start = clock()
        for k, (label, thunk) in enumerate(self.items):
            t0 = clock()
            try:
                ok = bool(thunk())
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            self.runs.append((self.passes, k, t0, clock()))
            self.attempted += 1
            if not ok:
                self.failures.append(label)
            self.speed.between()
        self.passes += 1
        return clock() - pass_start

    def times(self, passes, scale=True):
        """Per-item times and per-pass totals over `passes`.

        In reference seconds, or with scale=False in raw seconds; either
        way without the speed samples taken inside an item.
        """
        measure = self.speed.normalise if scale else self.speed.raw
        per_item = [[] for _ in self.items]
        per_pass = {p: 0.0 for p in passes}
        for p, k, t0, t1 in self.runs:
            if p in per_pass:
                value = measure(t0, t1)
                per_item[k].append(value)
                per_pass[p] += value
        return per_item, list(per_pass.values())


def harrell_davis(values, q):
    """Harrell-Davis estimate of the q-quantile of `values`.

    A mean of all order statistics, weighted by the Beta((n+1)q,
    (n+1)(1-q)) mass over ((i-1)/n, i/n]; the weights are integrated
    with Simpson's rule. Unlike a single order statistic it does not
    jump when neighbouring items trade places across a gap.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(x):
        if x <= 0 or x >= 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 8
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        inner = sum((4 if k % 2 else 2) * pdf(lo + k * h) for k in range(1, steps))
        weights.append((pdf(lo) + inner + pdf(lo + steps * h)) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def item_stats(per_item):
    """Median and tail of per-item latency (each item's median over passes).

    Both are Harrell-Davis estimates over the items. The tail is the
    highest whole percentile with at least ten items beyond it; when not
    even p50 has ten beyond it, the maximum (p100).
    """
    per_item = [statistics.median(ts) for ts in per_item]
    count = len(per_item)
    pct = 100
    for p in range(99, 49, -1):
        if count * (100 - p) / 100 >= 10:
            pct = p
            break
    tail = max(per_item) if pct == 100 else harrell_davis(per_item, pct / 100)
    return harrell_davis(per_item, 0.5), tail, pct, count


# ----- traced layers ------------------------------------------------------------


def _cells(args, _result):
    m = args[0]
    return m.nrows * m.ncols


def _cells_int_rows(args, _result):
    return len(args[0]) * args[1]


def _is_contact(_args, result):
    return int(bool(result and result[0]))


TRACE_TARGETS = [
    ("posets.Poset", "lieposet.posets", "Poset.__init__", None),
    ("posets.betti_numbers", "lieposet.posets", "Poset.betti_numbers", None),
    ("algebras.build_g", "lieposet.algebras", "build_g", None),
    ("algebras.build_gA", "lieposet.algebras", "build_gA", None),
    ("forms.phi_on_basis", "lieposet.forms", "phi_on_basis", None),
    ("forms.dphi_matrix", "lieposet.forms", "dphi_matrix", None),
    ("forms.kernel", "lieposet.forms", "kernel", None),
    ("forms.index", "lieposet.forms", "index", None),
    ("linalg.rank", "lieposet.linalg", "rank", _cells),
    ("linalg.rank_mod_p", "lieposet.linalg", "rank_mod_p", _cells_int_rows),
    ("linalg.kernel_basis", "lieposet.linalg", "kernel_basis", _cells),
    ("linalg.solve", "lieposet.linalg", "solve", _cells),
    ("linalg.char_poly", "lieposet.linalg", "char_poly", _cells),
    ("linalg.determinant", "lieposet.linalg", "determinant", _cells),
    ("sweep.canonical_key", "lieposet.sweep", "canonical_key", None),
    ("sweep.enumerate_posets", "lieposet.sweep", "enumerate_posets", None),
    ("sweep.reachable_contact_posets", "lieposet.sweep", "reachable_contact_posets", None),
    ("sweep.classify_contact", "lieposet.sweep", "classify_contact", _is_contact),
    ("toral.blocks.block", "lieposet.toral.blocks", "block", None),
    (
        "toral.blocks.derive_small_frobenius_form",
        "lieposet.toral.blocks",
        "derive_small_frobenius_form",
        None,
    ),
    ("toral.blocks.verify_block", "lieposet.toral.blocks", "verify_block", None),
    ("toral.gluing.glue", "lieposet.toral.gluing", "glue", None),
    ("toral.gluing.run_script", "lieposet.toral.gluing", "run_script", None),
]


def layer_metrics(tracer, passes, pauses):
    """Per-pass layer metrics from the traced passes' spans."""
    per_name, edges = tracer.summary(pauses)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name, rec in per_name.items():
        put(f"{name}.calls", rec["calls"] / passes, "count")
        put(f"{name}.self_s", rec["self_ns"] / 1e9 / passes, "s")
        put(f"{name}.total_s", rec["total_ns"] / 1e9 / passes, "s")
        if name.startswith("linalg."):
            put(f"{name}.cells", rec["probe"] / passes, "cells")
    for layer in LAYER_FILES:
        self_ns = sum(
            rec["self_ns"]
            for name, rec in per_name.items()
            if name.rsplit(".", 1)[0] == layer
        )
        put(f"{layer}.self_s", self_ns / 1e9 / passes, "s")

    trials = edges.get(("forms.index", "linalg.rank_mod_p"), 0)
    fallbacks = edges.get(("forms.index", "linalg.rank"), 0)
    put("forms.index.trials", trials / passes, "count")
    put("forms.index.exact_fallbacks", fallbacks / passes, "count")
    certified = (trials - fallbacks) / trials if trials else 0.0
    put("forms.index.modp_certified_ratio", certified, "ratio")
    witness = edges.get(("sweep.classify_contact", "forms.kernel"), 0)
    contacts = per_name["sweep.classify_contact"]["probe"]
    put("sweep.classify_contact.witness_kernels", witness / passes, "count")
    put("sweep.classify_contact.contact_verdicts", contacts / passes, "count")
    put(
        "sweep.classify_contact.kernels_per_contact",
        witness / contacts if contacts else 0.0,
        "ratio",
    )
    return metrics


# ----- one workload -----------------------------------------------------------


def pin_to_one_cpu():
    """Keep this process and the interpreters it launches on one CPU.

    The speed samples then describe the CPU that every measured piece
    of work runs on.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_workload(workload, seed, seconds, trace):
    env = environment()
    cpu = pin_to_one_cpu()
    lp = import_lieposet()
    items = BUILDERS[workload](lp, seed)
    speed = Speedometer(SPEED_KERNEL.get(workload, "fraction"))
    loop = Loop(items, speed)
    details = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
               "env": env, "cpu": cpu, "items_per_pass": len(items)}

    if not trace:
        setup = SetupClock(speed)
        passes = loop.run(seconds, between=setup.launch)
        per_item, per_pass = loop.times(passes)
        p50, tail, pct, count = item_stats(per_item)
        setup_s, setup_raw_s = setup.medians()
        raw_pass = loop.times(passes, scale=False)[1]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": {"value": statistics.median(per_pass), "unit": "s"},
            "item_p50_ms": {"value": p50 * 1000, "unit": "ms"},
            "item_tail_ms": {"value": tail * 1000, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        details["item_ms"] = {
            label: statistics.median(ts) * 1000 for (label, _), ts in zip(items, per_item)
        }
        details.update(tail_percentile=pct, item_samples=count,
                       setup_launches=len(setup.spans), setup_raw_s=setup_raw_s,
                       raw_wall_s=statistics.median(raw_pass), pass_s=per_pass,
                       raw_pass_s=raw_pass)
    else:
        untraced = loop.run(seconds / 2)
        untraced_s = statistics.median(loop.times(untraced)[1])
        tracer = Tracer()
        details["bindings_replaced"] = install(tracer, TRACE_TARGETS)
        traced = loop.run(seconds / 2)
        traced_pass = loop.times(traced)[1]
        traced_s = statistics.median(traced_pass)
        # Speed samples taken inside a span are not the program's work.
        pauses = speed.pauses_ns()
        metrics = layer_metrics(tracer, len(traced), pauses)
        raw_traced = sum(loop.times(traced, scale=False)[1])
        unattributed = raw_traced - tracer.top_level_ns(pauses) / 1e9
        for name, value, unit in (
            ("trace.wall_s", traced_s, "s"),
            ("trace.untraced_wall_s", untraced_s, "s"),
            ("trace.overhead_s", traced_s - untraced_s, "s"),
            ("trace.unattributed_s", unattributed / len(traced), "s"),
        ):
            metrics[name] = {"value": value, "unit": unit}
        for name, value in src_loc().items():
            metrics[name] = {"value": value, "unit": "lines"}
        details.update(untraced_passes=len(untraced), traced_passes=len(traced),
                       pass_s=loop.times(range(loop.passes))[1], spans=len(tracer.spans))
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{workload}-seed{seed}.json.gz")

    failed = len(loop.failures)
    details.update(
        passes=loop.passes,
        speed=speed.summary(),
        attempted=loop.attempted,
        failed=failed,
        fail_frac=failed / loop.attempted,
        failed_items=sorted(set(loop.failures)),
    )
    result = {
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=1)
    )
    return result, details


def report(result, details):
    env = details["env"]
    print(f"# workload {details['workload']}  seed {details['seed']}  trace {details['trace']}  "
          f"commit {env['commit'] or 'unknown'}  src {env['src_sha256']}")
    print(f"# {env['python']}  cpu {env['cpu']}  nproc {env['nproc']}")
    print(f"# {details['passes']} passes x {details['items_per_pass']} items, "
          "closed loop, 1 thread")
    sp = details["speed"]
    print(f"# times in reference seconds; {sp['kernel']} kernel median "
          f"{sp['kernel_median_s'] * 1000:.4g} ms over {sp['samples']} samples "
          f"(min {sp['kernel_min_s'] * 1000:.4g}, max {sp['kernel_max_s'] * 1000:.4g})")
    if "tail_percentile" in details:
        print(f"# item_tail_ms is p{details['tail_percentile']} of "
              f"{details['item_samples']} per-item medians; raw wall_s "
              f"{details['raw_wall_s']:.6g} s; setup_s is the median of "
              f"{details['setup_launches']} launches (raw {details['setup_raw_s']:.6g} s)")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_frac = {details['fail_frac']:.6g} ratio "
          f"({details['failed']} of {details['attempted']} items)")


def run_all(seed, seconds, trace):
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {workload} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    return combined


def main(argv=None):
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Restart with a fixed string-hash seed: set and dict orders then
        # repeat from run to run, and so does the work they lead to.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result, details = run_workload(args.workload, args.seed, args.seconds, args.trace)
        report(result, details)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
