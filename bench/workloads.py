"""Benchmark workloads: seeded inputs, the timed closed loop and output checks.

Each workload is one closed-loop client on one thread: the next call starts
only after the previous one returned.  The program sees only what a user
would give it: the generated channel and rate files for the CLI workloads,
and `ChannelSpec` / `RateVector` objects for the library sweep.

A workload repeats one fixed session: a list of calls, each kind of call
taking a comparable share of it, so that a slowdown in any one kind moves
the session time by about its own size.  Kinds that use different layers
get their own workload.

- `cli_cold6` calls `cli.main` in-process on a 6-relay channel: `check`,
  `check --layering <accepting layering>` and `solve` on a target that needs
  two shifts.  Every call builds a fresh joint, as a CLI user pays each time,
  so `JointPmf.marginal` dominates.  `solve` runs what `check` runs, then
  `check_layered` on each layering it tries, so a slower check path slows
  every kind of call in the session.
- `cli_floors6` runs `floors` on a 6-relay channel: the Y-joint path of the
  probability layer and `window_gap_forms`.
- `sweep_warm5` reuses prebuilt 5-relay joints (four channels, 16 targets
  each: eight need one shift, eight two) for a stream of targets, each one
  `check_outer` then `solve`.
  Set-up runs the stream once to fill the entropy caches; the timed loop then
  repeats it, so marginals cost nothing and the Python plumbing of region,
  layering and solver is what is timed.
- `atlas_export` runs `cflayers export` on a 5-relay channel: a cold joint,
  but most of the time goes to h-term and entropy-cache plumbing over 541
  layerings x 31 subsets.  It is the only user of layering enumeration.
- `atlas_vertices3` runs `cflayers export --vertices` on a 3-relay channel,
  the only user of vertex enumeration.

Seven relays are left out on purpose: there one cold `check_layered` takes
about 39 s, longer than a whole run.

Outputs are checked after the timed loop, never inside it, against a joint
that the benchmark builds itself from the same spec.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import resource
import statistics
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

from cflayers import cli, geometry, layering, region, solver
from cflayers.demo import demo_spec
from cflayers.errors import CFLayersError
from cflayers.probability import build_joint
from tracing import Tracer

# Relay counts and inputs: each entry of cli_shifts is a cli_cold6 target that
# `solve` reaches in that many shifts, sweep_shifts likewise per channel; the
# draws are how many candidates set-up solves to pick them from.  "smoke" is
# the benchmark's own quick test.
SCALES = {
    "full": {
        "cli_relays": 6, "cli_shifts": (2,), "cli_draws": 5,
        "sweep_relays": 5, "sweep_channels": 4, "sweep_shifts": (1,) * 8 + (2,) * 8,
        "sweep_draws": 32,
        "export_relays": 5, "vertex_relays": 3,
    },
    "smoke": {
        "cli_relays": 3, "cli_shifts": (1,), "cli_draws": 3,
        "sweep_relays": 3, "sweep_channels": 2, "sweep_shifts": (1, 1, 2, 2), "sweep_draws": 8,
        "export_relays": 3, "vertex_relays": 2,
    },
}

TARGET_FRACTION = 0.97  # of the outer-region boundary along the drawn direction
MAX_DRAWS = 10_000
MATCH_TOL = 1e-9  # printed numbers carry 12 significant digits
MIN_SETUP_REPS = 3
# Cheap set-ups repeat until this much time is spent: a median over a few
# runs of a millisecond set-up moved by a quarter from one ten-run set to
# the next.
SETUP_REPEAT_BUDGET_S = 1.0
MAX_SETUP_REPS = 500
REF_EVERY_S = 0.5  # the timed loop runs the host-speed reference this often
REF_BLOCK = 5  # reference runs before and after the timed loop

# Exit code each kind of CLI call must return.  The smoke test breaks one of
# these on purpose to show that a wrong result is counted as a failure.
EXPECTED_EXIT = {
    "check": cli.EXIT_OK,
    "check_layered": cli.EXIT_OK,
    "solve": cli.EXIT_OK,
    "floors": cli.EXIT_OK,
    "export": cli.EXIT_OK,
    "export_vertices": cli.EXIT_OK,
}


# -- bookkeeping ----------------------------------------------------------------


@dataclass
class Checks:
    """Operations attempted and the ones whose output check failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {'; '.join(problems)}")


@dataclass(frozen=True)
class Op:
    kind: str
    key: int  # index of the target (or input) the call uses
    run: Callable[[], object]


@dataclass(frozen=True)
class CliOutput:
    code: int
    text: str


def run_cli(argv: list[str]) -> CliOutput:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return CliOutput(code, out.getvalue())


# Host-speed references.  A shared host's speed can drift by a third over
# tens of seconds.  A call timed against fixed work
# run next to it keeps the program's own cost and drops most of that drift,
# as long as the drift slows both alike: each workload takes the reference
# that does the kind of work its calls spend their time on.
_TABLES: dict[int, np.ndarray] = {}


def _table(cells_log2: int) -> np.ndarray:
    if cells_log2 not in _TABLES:
        _TABLES[cells_log2] = np.random.default_rng(0).random((2,) * cells_log2)
    return _TABLES[cells_log2]


def marginal_reference() -> float:
    """Seconds for a numpy sum over every other axis of a 2^20-cell table,
    the size of a 6-relay joint, as `JointPmf.marginal` does."""
    table = _table(20)
    t0 = perf_counter()
    table.sum(axis=tuple(range(0, 20, 2)))
    return perf_counter() - t0


def plumbing_reference() -> float:
    """Seconds for Python frozenset and dict work, then a numpy sum over half
    the axes of a 2^19-cell table: plumbing with some marginals."""
    table = _table(19)
    t0 = perf_counter()
    counts: dict[frozenset, int] = {}
    for i in range(20_000):
        key = frozenset((i % 7, i % 11))
        counts[key] = counts.get(key, 0) + 1
    table.sum(axis=tuple(range(0, 19, 2)))
    return perf_counter() - t0


@dataclass
class Loop:
    samples: dict[str, list[float]]  # every timed call's seconds, by kind
    outputs: list[tuple[Op, object]]
    wall_s: float
    session_s: float
    session_over_ref: float
    reference: list[float]  # seconds of each reference run, in order


def closed_loop(session: list[Op], seconds: float, reference_work: Callable[[], float]) -> Loop:
    """Repeat `session` in order, cycling, until `seconds` have passed.

    One whole session always runs.  After it, a call whose previous duration
    would overrun the deadline ends the loop instead of starting.
    `session_s` sums, over the session's calls, the median duration of each
    across its repetitions.

    Between calls, `reference_work` runs whenever REF_EVERY_S has passed
    since it last ran, and REF_BLOCK times before and after the loop; it is
    not part of any call's time.  Each call's duration is also divided by
    the median of the two reference runs before it and the two after it,
    and `session_over_ref` sums those ratios the way `session_s` sums
    durations.
    """
    reference = [reference_work() for _ in range(REF_BLOCK)]
    repeats: list[list[tuple[float, int]]] = [[] for _ in session]  # (seconds, last ref)
    outputs = []
    started = last_ref = perf_counter()
    deadline = started + seconds
    for i, op in enumerate(itertools.cycle(session)):
        slot = repeats[i % len(session)]
        if i >= len(session) and perf_counter() + slot[-1][0] > deadline:
            break
        if perf_counter() - last_ref >= REF_EVERY_S:
            reference.append(reference_work())
            last_ref = perf_counter()
        t0 = perf_counter()
        out = _run(op)
        slot.append((perf_counter() - t0, len(reference) - 1))
        outputs.append((op, out))
    wall_s = perf_counter() - started
    reference += [reference_work() for _ in range(REF_BLOCK)]

    def over_ref(seconds: float, before: int) -> float:
        return seconds / statistics.median(reference[before - 1:before + 3])

    samples: dict[str, list[float]] = {}
    for op, timed in zip(session, repeats):
        samples.setdefault(op.kind, []).extend(d for d, _ in timed)
    session_s = sum(statistics.median(d for d, _ in timed) for timed in repeats)
    session_over_ref = sum(
        statistics.median(over_ref(d, before) for d, before in timed) for timed in repeats)
    return Loop(samples, outputs, wall_s, session_s, session_over_ref, reference)


def timed_setup(make, min_reps: int, budget_s: float, checks: Checks):
    """Run set-up `min_reps` times, and more while under `budget_s` seconds.

    Returns the median duration, the repetition count and the last inputs.
    The same seed must give the same inputs every time.
    """
    durations = []
    fingerprints = set()
    while True:
        t0 = perf_counter()
        inputs = make()
        durations.append(perf_counter() - t0)
        fingerprints.add(inputs.fingerprint)
        n = len(durations)
        if n >= min_reps and (n >= MAX_SETUP_REPS or sum(durations) >= budget_s):
            break
    checks.record("setup", [] if len(fingerprints) == 1 else ["inputs differ between set-ups"])
    return statistics.median(durations), len(durations), inputs


# -- seeded inputs ----------------------------------------------------------------


def candidate_targets(joint, rng: np.random.Generator) -> Iterator[region.RateVector]:
    """Targets strictly inside the outer region that one layer cannot carry.

    Each draws a Dirichlet direction v and scales it to TARGET_FRACTION of the
    outer boundary along v, min over S of cap_S / v(S).  A target is kept only
    if the single-layer layering rejects it, so every `solve` shifts at least
    once.
    """
    relays = sorted(joint.relays)
    caps = [
        ([relays.index(i) for i in hs.subset], hs.rhs) for hs in geometry.outer_h_rep(joint)
    ]
    single = layering.Layering((frozenset(relays),))
    for _ in range(MAX_DRAWS):
        v = rng.dirichlet(np.ones(len(relays)))
        reach = min(rhs / v[cols].sum() for cols, rhs in caps)
        rates = region.RateVector({i: TARGET_FRACTION * reach * v[k] for k, i in enumerate(relays)})
        if not region.check_layered(joint, single, rates).is_member:
            yield rates
    raise RuntimeError(f"no more targets in {MAX_DRAWS} draws")


def stratified_targets(joint, wanted, draws: int, rng: np.random.Generator) -> list[tuple]:
    """(shifts, rates, accepting layering) for each shift count in `wanted`.

    How many shifts a target needs drives the cost of `solve`, so fixing the
    counts keeps one seed's inputs comparable with another's.  Set-up solves
    `draws` candidates on `joint`, however soon the wanted counts turn up, so
    that its own cost does not depend on the seed either.  Each wanted count
    takes the first unused candidate whose count is nearest.
    """
    pool = []
    for rates in itertools.islice(candidate_targets(joint, rng), draws):
        accepting, trace = solver.solve(joint, rates)
        pool.append((trace.shifts, rates, accepting))
    chosen = []
    for want in wanted:
        nearest = min(range(len(pool)), key=lambda k: abs(pool[k][0] - want))
        chosen.append(pool.pop(nearest))
    return chosen


def write_rates(path: Path, rates: region.RateVector) -> str:
    path.write_text(json.dumps(rates.to_json_obj()))
    return str(path)


def _digest(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def input_record(shifts: list[int], slacks: list[float], relays: int) -> dict:
    return {
        "relays": relays,
        "targets": len(shifts),
        "shift_histogram": dict(sorted(Counter(shifts).items())),
        "min_outer_slack": min(slacks),
    }


# -- cli_cold6, cli_floors6 -----------------------------------------------------


@dataclass
class CliTarget:
    rates: region.RateVector
    path: str
    layering: layering.Layering  # accepting layering found at set-up
    shifts: int
    outer_slack: float


@dataclass
class CliInputs:
    spec: object
    channel: str
    targets: list[CliTarget]
    fingerprint: str


def setup_cli(cfg: dict, seed: int, workdir: Path) -> CliInputs:
    """The channel file, and per shift count in `cli_shifts` a target's rate
    file and accepting layering."""
    spec = demo_spec(cfg["cli_relays"], seed)
    channel = str(workdir / "cli_channel.json")
    spec.save(channel)
    joint = build_joint(spec)
    chosen = stratified_targets(
        joint, cfg["cli_shifts"], cfg["cli_draws"], np.random.default_rng([seed, 1]))
    targets = []
    for k, (shifts, rates, accepting) in enumerate(chosen):
        targets.append(
            CliTarget(
                rates=rates,
                path=write_rates(workdir / f"cli_rates_{k}.json", rates),
                layering=accepting,
                shifts=shifts,
                outer_slack=region.check_outer(joint, rates).min_slack,
            )
        )
    fingerprint = _digest(spec.dumps(), *(f"{t.rates!r} {t.layering}" for t in targets))
    return CliInputs(spec, channel, targets, fingerprint)


def setup_floors(cfg: dict, seed: int, workdir: Path) -> CliInputs:
    spec = demo_spec(cfg["cli_relays"], seed)
    channel = str(workdir / "cli_channel.json")
    spec.save(channel)
    return CliInputs(spec, channel, [], _digest(spec.dumps()))


def plan_cli(inputs: CliInputs) -> list[Op]:
    ops = []
    for k, t in enumerate(inputs.targets):
        args = ["--channel", inputs.channel, "--rates", t.path, "--format", "json"]
        ops += [
            Op("check", k, partial(run_cli, ["check", *args])),
            Op("check_layered", k, partial(
                run_cli, ["check", *args, "--layering", t.layering.to_text()])),
            Op("solve", k, partial(run_cli, ["solve", *args])),
        ]
    return ops


def plan_floors(inputs: CliInputs) -> list[Op]:
    return [Op("floors", 0, partial(
        run_cli, ["floors", "--channel", inputs.channel, "--format", "json"]))]


def _compare_caps(got: list[dict], want: tuple) -> list[str]:
    """Printed subset caps against a library report's entries, within MATCH_TOL."""
    if len(got) != len(want):
        return [f"{len(got)} subsets, expected {len(want)}"]
    for g, w in zip(got, want):
        if g["subset"] != sorted(w.subset) or abs(g["rhs"] - w.rhs) > MATCH_TOL:
            return [f"cap of {sorted(w.subset)} is {g['rhs']}, expected {w.rhs}"]
    return []


def _compare_report(obj: dict, report: region.ConstraintReport) -> list[str]:
    problems = [] if obj["member"] is True and report.is_member else ["target is not a member"]
    return problems + _compare_caps(obj["subsets"], report.entries)


def verify_cli(inputs: CliInputs, outputs, checks: Checks) -> None:
    ref = build_joint(inputs.spec)  # apart from the set-up joint and every call's
    reports = {}

    def reference(kind, key):
        if (kind, key) not in reports:
            t = inputs.targets[key]
            reports[kind, key] = (
                region.check_outer(ref, t.rates) if kind == "check"
                else region.check_layered(ref, t.layering, t.rates)
            )
        return reports[kind, key]

    def compare_floors(obj) -> list[str]:
        problems = []
        if obj["consistent"] is not True:
            problems.append("window forms disagree")
        if len(obj["subsets"]) != (1 << len(ref.relays)) - 1:
            problems.append("wrong number of subsets")
        for i, want in region.compression_floor(ref).items():
            if abs(obj["floors"][str(i)] - want) > MATCH_TOL:
                problems.append(f"floor of relay {i} is {obj['floors'][str(i)]}")
        return problems

    def compare(kind, key, obj) -> list[str]:
        if kind == "floors":
            return compare_floors(obj)
        if kind in ("check", "check_layered"):
            return _compare_report(obj, reference(kind, key))
        if obj["status"] != "achieved":
            return [f"status {obj['status']!r}"]
        t = inputs.targets[key]
        got = layering.make_layering(obj["layering"])
        problems = []
        if got != t.layering:
            problems.append(f"layering {got}, set-up found {t.layering}")
        if not region.check_layered(ref, got, t.rates).is_member:
            problems.append(f"layering {got} rejects the target")
        return problems

    for op, out in outputs:
        problems = []
        if out.code != EXPECTED_EXIT[op.kind]:
            problems.append(f"exit code {out.code}, expected {EXPECTED_EXIT[op.kind]}")
        try:
            problems += compare(op.kind, op.key, json.loads(out.text))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            problems.append(f"malformed output: {exc!r}")
        checks.record(op.kind, problems)


def metrics_cli(loop: Loop) -> dict:
    """Median latency of each kind of CLI call, as cli_<kind>_p50_s."""
    return {
        f"cli_{kind}_p50_s": (statistics.median(s), "s", len(s))
        for kind, s in loop.samples.items()
    }


def record_cli(inputs: CliInputs) -> dict:
    if not inputs.targets:
        return {"relays": len(inputs.spec.relays)}
    return input_record(
        [t.shifts for t in inputs.targets],
        [t.outer_slack for t in inputs.targets],
        len(inputs.spec.relays),
    )


# -- sweep_warm5 --------------------------------------------------------------------


def sweep_target(joint, rates):
    """One library user's query: outer membership, then the layering search."""
    outer = region.check_outer(joint, rates)
    found, trace = solver.solve(joint, rates)
    return outer.is_member, outer.min_slack, found, trace.shifts


@dataclass
class SweepInputs:
    specs: list  # one ChannelSpec per channel
    joints: list  # prebuilt, reused by every target of their channel
    stream: list[tuple[int, region.RateVector]]  # (channel, target)
    fill: list[tuple]  # results of the untimed cache-filling pass
    fingerprint: str


def setup_sweep(cfg: dict, seed: int, workdir: Path) -> SweepInputs:
    # Several channels per seed: how many shifts targets need is mostly a
    # property of the channel, so one channel would make the figures swing
    # from seed to seed.
    count = cfg["sweep_channels"]
    specs = [demo_spec(cfg["sweep_relays"], seed * count + c) for c in range(count)]
    joints = [build_joint(spec) for spec in specs]
    stream = [
        (c, rates)
        for c, joint in enumerate(joints)
        for _, rates, _ in stratified_targets(
            joint, cfg["sweep_shifts"], cfg["sweep_draws"], np.random.default_rng([seed, 2, c]))
    ]
    fill = [sweep_target(joints[c], rates) for c, rates in stream]
    fingerprint = _digest(
        *(spec.dumps() for spec in specs),
        *(f"{c} {r!r} {f[2]}" for (c, r), f in zip(stream, fill)),
    )
    return SweepInputs(specs, joints, stream, fill, fingerprint)


def plan_sweep(inputs: SweepInputs) -> list[Op]:
    return [
        Op("target", k, partial(sweep_target, inputs.joints[c], rates))
        for k, (c, rates) in enumerate(inputs.stream)
    ]


def verify_sweep(inputs: SweepInputs, outputs, checks: Checks) -> None:
    # second joints, cold, apart from the timed ones
    checkers = [build_joint(spec) for spec in inputs.specs]
    canonical = set(layering.enumerate_layerings(checkers[0].relays))
    verdicts = {}
    for k, (c, rates) in enumerate(inputs.stream):
        found = inputs.fill[k][2]
        problems = []
        # brute_force_layering keeps exactly the enumerated layerings that
        # check_layered accepts, so this is membership in its set; the full
        # enumeration runs once per run to confirm that reading.
        in_set = found in canonical and region.check_layered(checkers[c], found, rates).is_member
        if k == 0 and (found in solver.brute_force_layering(checkers[c], rates)) != in_set:
            problems.append("brute_force_layering disagrees with check_layered")
        if not in_set:
            problems.append(f"layering {found} is not in the brute-force set")
        verdicts[k] = problems
    for op, (member, _, found, _) in outputs:
        problems = list(verdicts[op.key])
        if not member:
            problems.append("target reported outside the outer region")
        if found != inputs.fill[op.key][2]:
            problems.append(f"layering {found} differs from the set-up pass")
        checks.record(op.kind, problems)


def metrics_sweep(loop: Loop) -> dict:
    s = loop.samples["target"]
    out = {
        "sweep_targets_per_s": (len(s) / loop.wall_s, "1/s", len(s)),
        "sweep_target_p50_ms": (statistics.median(s) * 1e3, "ms", len(s)),
    }
    if len(s) >= 100:  # at least ten samples beyond the 90th percentile
        out["sweep_target_p90_ms"] = (statistics.quantiles(s, n=10)[-1] * 1e3, "ms", len(s))
    return out


def record_sweep(inputs: SweepInputs) -> dict:
    return input_record(
        [f[3] for f in inputs.fill], [f[1] for f in inputs.fill], len(inputs.joints[0].relays)
    ) | {"channels": len(inputs.joints)}


# -- atlas_export, atlas_vertices3 ---------------------------------------------------


@dataclass
class AtlasInputs:
    spec: object
    channel: str
    vertices: bool
    fingerprint: str


def _setup_atlas(relays_key: str, vertices: bool, cfg: dict, seed: int,
                 workdir: Path) -> AtlasInputs:
    spec = demo_spec(cfg[relays_key], seed)
    channel = workdir / "atlas_channel.json"
    spec.save(channel)
    return AtlasInputs(spec, str(channel), vertices, _digest(spec.dumps()))


def plan_atlas(inputs: AtlasInputs) -> list[Op]:
    if inputs.vertices:
        return [Op("export_vertices", 0, partial(
            run_cli, ["export", "--channel", inputs.channel, "--vertices"]))]
    return [Op("export", 0, partial(run_cli, ["export", "--channel", inputs.channel]))]


def _check_atlas(text: str, spec, vertices: bool) -> list[str]:
    joint = build_joint(spec)
    zero = region.RateVector({i: 0.0 for i in joint.relays})
    obj = json.loads(text)
    problems = []
    expected = len(layering.enumerate_layerings(joint.relays))
    if len(obj["layerings"]) != expected:
        problems.append(f"{len(obj['layerings'])} layerings, expected {expected}")
    problems += _compare_caps(obj["outer"]["halfspaces"], region.check_outer(joint, zero).entries)
    blocks = [obj["outer"]] + obj["layerings"]
    if vertices != all("vertices" in b for b in blocks):
        problems.append("vertex lists missing" if vertices else "unexpected vertex lists")
    return problems


def verify_atlas(inputs: AtlasInputs, outputs, checks: Checks) -> None:
    first = None
    for op, out in outputs:
        problems = []
        if out.code != EXPECTED_EXIT[op.kind]:
            problems.append(f"exit code {out.code}, expected {EXPECTED_EXIT[op.kind]}")
        if first is None:
            first = out.text
            try:
                problems += _check_atlas(out.text, inputs.spec, inputs.vertices)
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                problems.append(f"malformed atlas: {exc!r}")
        elif out.text != first:
            problems.append("atlas differs from the first export")
        checks.record(op.kind, problems)


def record_atlas(inputs: AtlasInputs) -> dict:
    return {"relays": len(inputs.spec.relays), "vertices": inputs.vertices}


@dataclass(frozen=True)
class Workload:
    setup: Callable
    plan: Callable
    verify: Callable
    metrics: Callable
    record: Callable
    reference: Callable[[], float]


REGISTRY = {
    # marginals are over 90% of a cli_cold6 or cli_floors6 call (traced)
    "cli_cold6": Workload(setup_cli, plan_cli, verify_cli, metrics_cli, record_cli,
                          marginal_reference),
    "cli_floors6": Workload(setup_floors, plan_floors, verify_cli, metrics_cli, record_cli,
                            marginal_reference),
    "sweep_warm5": Workload(setup_sweep, plan_sweep, verify_sweep, metrics_sweep, record_sweep,
                            plumbing_reference),
    "atlas_export": Workload(partial(_setup_atlas, "export_relays", False), plan_atlas,
                             verify_atlas, metrics_cli, record_atlas, plumbing_reference),
    "atlas_vertices3": Workload(partial(_setup_atlas, "vertex_relays", True), plan_atlas,
                                verify_atlas, metrics_cli, record_atlas, plumbing_reference),
}


def _run(op: Op):
    """Run one op; a library error becomes the op's output, checked as a failure."""
    try:
        return op.run()
    except CFLayersError as exc:
        return exc


def traced_pass(ops: list[Op], tracer: Tracer) -> tuple[list, float]:
    """Repeat `ops` once with every layer wrapped; returns outputs and wall time."""
    with tracer.installed():
        started = perf_counter()
        outputs = [(op, _run(op)) for op in ops]
        wall = perf_counter() - started
    return outputs, wall


@dataclass
class Result:
    checks: Checks
    metrics: dict  # name -> (value, unit, samples): end-to-end and per-call
    samples: dict[str, list[float]]  # every timed call's seconds, by kind
    reference: list[float]  # seconds of each reference run, in order
    layers: dict | None  # name -> (value, unit), traced runs only
    inputs: dict
    tracer: Tracer | None


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str,
                 workdir: Path) -> Result:
    work = REGISTRY[name]
    cfg = SCALES[scale]
    checks = Checks()
    # a traced run reports no set-up time, so it sets up once
    min_reps, budget = (1, 0.0) if trace else (MIN_SETUP_REPS, SETUP_REPEAT_BUDGET_S)
    setup_s, reps, inputs = timed_setup(
        partial(work.setup, cfg, seed, workdir), min_reps, budget, checks)
    session = work.plan(inputs)
    loop = closed_loop(session, seconds, work.reference)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outputs = loop.outputs

    layers = tracer = None
    if trace:
        tracer = Tracer()
        traced, wall = traced_pass(session, tracer)
        outputs = outputs + traced
        cli_bytes = sum(len(o.text.encode()) for _, o in traced if isinstance(o, CliOutput))
        layers = tracer.metrics(wall / loop.session_s, cli_bytes)

    good = []
    for op, out in outputs:
        if isinstance(out, CFLayersError):
            checks.record(op.kind, [f"raised {out!r}"])
        else:
            good.append((op, out))
    work.verify(inputs, good, checks)

    calls = sum(len(s) for s in loop.samples.values())
    metrics = {
        "setup_s": (setup_s, "s", reps),
        # one session: every call of the plan once, each at its median
        "session_s": (loop.session_s, "s", calls),
        "reference_s": (statistics.median(loop.reference), "s", len(loop.reference)),
        "session_over_ref": (loop.session_over_ref, "ratio", calls),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        **work.metrics(loop),
        "failed_frac": (checks.failed / checks.attempted, "ratio", checks.attempted),
    }
    return Result(checks, metrics, loop.samples, loop.reference, layers,
                  work.record(inputs), tracer)
