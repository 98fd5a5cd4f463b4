"""In-memory span tracing around the package's public entry points.

The wrappers are installed from the benchmark's files by rebinding module
attributes, so the package itself is unchanged.  Every call through a
wrapped boundary while a job is open records one span: name, start, end,
parent span and job id.  Boundaries that no longer exist are reported as
missing and skipped.

Per-layer metrics are computed from the spans of one batch.  A layer is a
package module; a span's layer is the prefix of its name.  Self time is a
span's duration minus the time covered by its child spans.
"""
from __future__ import annotations

import importlib
import time

LAYERS = ("cli", "hydrogenic", "qubits", "pulses", "dynamics", "decoherence", "readout")

# (span name, module, attribute path, options)
BOUNDARIES = (
    ("cli.load_config", "cli", "load_config", {}),
    ("cli.dump_json", "cli", "dump_json", {"outermost": True}),
    ("hydrogenic.solve", "hydrogenic", "solve", {}),
    # qubits binds `solve` at import; Stark-map and build solves go through it
    ("hydrogenic.solve", "qubits", "solve", {}),
    ("qubits.build", "qubits", "build", {}),
    ("qubits.stark_lookup", "qubits", "_StarkMap.exact", {}),
    ("pulses.calibrate_swap", "pulses", "calibrate_swap", {}),
    ("pulses.resonance_voltage", "pulses", "resonance_voltage", {}),
    ("dynamics.evolve", "dynamics", "evolve", {}),
    ("dynamics.solve_ivp", "dynamics", "solve_ivp", {"nfev": True}),
    ("dynamics.expm", "dynamics", "expm", {}),
    ("decoherence.budget", "decoherence", "budget", {}),
    ("readout.plan", "readout", "plan", {}),
    ("readout.wkb_exponent", "readout", "wkb_exponent", {}),
    ("readout.sample_shots", "readout", "sample_shots", {"shots_arg": 2}),
)


class Tracer:
    """Owns the spans of one run and the wrappers that record them."""

    def __init__(self):
        # span: [name, start, end, parent index, job id, extra count]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._job: str | None = None
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for name, module, path, opts in BOUNDARIES:
            *owners, attr = path.split(".")
            try:
                owner = importlib.import_module(f"helioq.{module}")
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{path}")
                continue
            setattr(owner, attr, self._wrap(name, original, opts))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, name: str, fn, opts: dict):
        outermost = opts.get("outermost", False)
        nfev = opts.get("nfev", False)
        shots_arg = opts.get("shots_arg")
        depth = [0]
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._job is None or (outermost and depth[0]):
                return fn(*args, **kwargs)
            depth[0] += 1
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                depth[0] -= 1
            if nfev:
                tracer.spans[idx][5] = int(getattr(out, "nfev", 0))
            elif shots_arg is not None:
                shots = args[shots_arg] if len(args) > shots_arg else kwargs.get("shots", 0)
                tracer.spans[idx][5] = int(shots)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._job, 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def begin_job(self, job_id: str) -> int:
        self._job = job_id
        return self._open("cli.job")

    def end_job(self, idx: int) -> None:
        self._close(idx)
        self._job = None

    def to_records(self) -> list[dict]:
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "job": s[4],
             "count": s[5]}
            for s in self.spans
        ]


def layer_metrics(
    spans: list[list], offset: int, bytes_written: int,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one batch (name -> (value, unit)).

    `spans` is the batch's slice of the run's spans, starting at index
    `offset`; parent indices refer to the whole run.
    """
    parent = [s[3] - offset for s in spans]
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    self_t = [d - c for d, c in zip(dur, child)]

    def total(name, values=dur):
        return sum(v for s, v in zip(spans, values) if s[0] == name)

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    def counted(name):
        return sum(s[5] for s in spans if s[0] == name)

    job_s = total("cli.job")
    solves = calls("hydrogenic.solve")
    solve_s = total("hydrogenic.solve")
    lookups = calls("qubits.stark_lookup")
    stark_solves = sum(
        1 for s, p in zip(spans, parent)
        if s[0] == "hydrogenic.solve" and p >= 0 and spans[p][0] == "qubits.stark_lookup"
    )
    shots = counted("readout.sample_shots")
    shots_s = total("readout.sample_shots")
    m = {
        "cli.load_config_s": (total("cli.load_config"), "s"),
        "cli.dump_json_s": (total("cli.dump_json"), "s"),
        "cli.bytes_written": (bytes_written, "bytes"),
        "cli.self_s": (total("cli.job", self_t), "s"),
        "hydrogenic.solve_calls": (solves, "count"),
        "hydrogenic.solve_s": (solve_s, "s"),
        "hydrogenic.solve_ms_per_call": (1e3 * solve_s / solves if solves else 0.0, "ms"),
        "qubits.build_calls": (calls("qubits.build"), "count"),
        "qubits.build_s": (total("qubits.build"), "s"),
        "qubits.stark_lookups": (lookups, "count"),
        "qubits.stark_solves": (stark_solves, "count"),
        "qubits.stark_hit_ratio": (1.0 - stark_solves / lookups if lookups else 0.0, "ratio"),
        "pulses.calibrate_swap_s": (total("pulses.calibrate_swap"), "s"),
        "pulses.resonance_voltage_s": (total("pulses.resonance_voltage"), "s"),
        "dynamics.evolve_calls": (calls("dynamics.evolve"), "count"),
        "dynamics.evolve_s": (total("dynamics.evolve"), "s"),
        "dynamics.evolve_self_s": (total("dynamics.evolve", self_t), "s"),
        "dynamics.ivp_calls": (calls("dynamics.solve_ivp"), "count"),
        "dynamics.ivp_nfev": (counted("dynamics.solve_ivp"), "count"),
        "dynamics.ivp_s": (total("dynamics.solve_ivp"), "s"),
        "dynamics.expm_calls": (calls("dynamics.expm"), "count"),
        "dynamics.expm_s": (total("dynamics.expm"), "s"),
        "decoherence.budget_calls": (calls("decoherence.budget"), "count"),
        "decoherence.budget_s": (total("decoherence.budget"), "s"),
        "readout.plan_s": (total("readout.plan"), "s"),
        "readout.wkb_calls": (calls("readout.wkb_exponent"), "count"),
        "readout.sample_shots_s": (shots_s, "s"),
        "readout.shots_per_s": (shots / shots_s if shots_s else 0.0, "shots/s"),
    }
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, self_t):
        layer_self[s[0].split(".", 1)[0]] += t
    for layer in LAYERS:
        m[f"{layer}.self_share"] = (layer_self[layer] / job_s if job_s else 0.0, "ratio")
    m["trace.job_s"] = (job_s, "s")
    m["trace.spans"] = (len(spans), "count")
    return m


COUNT_METRICS = (
    "hydrogenic.solve_calls", "qubits.build_calls", "qubits.stark_lookups",
    "qubits.stark_solves", "dynamics.evolve_calls", "dynamics.ivp_calls",
    "dynamics.ivp_nfev", "dynamics.expm_calls", "decoherence.budget_calls",
    "readout.wkb_calls", "cli.bytes_written", "trace.spans",
)
