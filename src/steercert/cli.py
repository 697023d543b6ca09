"""Command-line front end: single certifications, parameter sweeps over
visibility or detection efficiency, see-saw searches, and steerability
tests, with CSV/JSON artifacts suitable for plotting.

Configurations are JSON documents (see `ExperimentConfig`); command-line
flags override file fields. Named presets reproduce the standard curves.
A configuration is checked once, when an `ExperimentConfig` is built: its
types by one number coercer and one table of nested-object shapes (`SHAPES`),
then its ranges and consistency.

Every artifact is a library result's own report, never a restatement of its
fields: a sweep row is the point's parameter, `CertificationResult.to_json`
and the wall-clock time; the sidecar drops the time, `sweep --json` also the
functional, and the CSV takes the columns of `CSV_COLUMNS`. A see-saw start's
report is `SeesawTrace.to_json`. A field added to a result's `to_json` thus
reaches every artifact, and the CSV too once it is given a column.

One rule routes every command's output (`_target`): a command writes to
``--out``, else to the configuration's ``out`` when that names its artifact,
and prints its report when ``--json`` is given or when it wrote no file.

Exit codes: 0 success, 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import certify as certify_mod
from . import scenario as scen
from .seesaw import random_povms as _random_povms, seesaw as _seesaw_loop
from .qlin import Povm, basis_povm

CERTIFICATION_KINDS = ("steering_local", "steering_global", "prepare_measure")
KINDS = (*CERTIFICATION_KINDS, "seesaw", "lhs")
# the experiment kinds each command runs: lhs tests the assemblage of any kind that has measurements
COMMAND_KINDS = {"certify": CERTIFICATION_KINDS, "sweep": CERTIFICATION_KINDS, "seesaw": ("seesaw",),
                 "lhs": (*CERTIFICATION_KINDS, "lhs")}
# each nested object's tag key, and per tag the numeric keys it takes with their types (list: of floats)
SHAPES = {
    "state": ("kind", {"werner": {"v": float}, "isotropic": {"d": int, "v": float}, "schmidt": {"lambdas": list}}),
    "measurements": ("kind", {"pauli_xz": {}, "mub": {"d": int, "count": int},
                              "fourier_and_computational": {"d": int}}),
    "bob_measurement": ("kind", dict.fromkeys(("pauli_x", "pauli_z", "computational", "fourier"), {})),
    "sweep": ("parameter", dict.fromkeys(("v", "eta"), {"start": float, "stop": float, "points": int})),
}
NUMBERS = {"eta": float, "x_star": int, "max_iters": int, "tol": float}
# each measurement family by its kind, built from the parsed `measurements` object
FAMILIES = {
    "pauli_xz": lambda m: scen.pauli_xz(),
    "mub": lambda m: scen.mub_povms(m["d"], m["count"]),
    "fourier_and_computational": lambda m: scen.fourier_and_computational(m["d"]),
}
# the see-saw's starting measurements: this many random bases of Alice's dimension
SEESAW_INPUTS = 2
# a sweep CSV's columns, each with the format of its cells; every other key of a row is in the sidecar only
CSV_COLUMNS = (("parameter", ".12g"), ("p_guess", ".12g"), ("h_min", ".12g"), ("gap", ".12g"),
               ("status", ""), ("wall_ms", ".3f"))


class ConfigError(ValueError):
    def __init__(self, fld: str, message: str):
        super().__init__(f"{fld}: {message}")
        self.field = fld


def _number(fld: str, value, kind: type):
    """``value`` as ``kind`` (int or float), or a ConfigError naming ``fld``. Numeric strings are
    accepted; booleans are refused, and so is a float that is not integral (1.7, nan, inf) as an int."""
    try:
        if isinstance(value, bool) or (kind is int and isinstance(value, float) and not value.is_integer()):
            raise TypeError
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(fld, f"expected {kind.__name__}, got {value!r}") from None


def _parsed(name: str, value) -> dict:
    """The nested object ``name`` as a new dict of its tag and exactly the numbers `SHAPES` gives
    that tag, each coerced; or a ConfigError naming the object, or the key, that is wrong."""
    tag_key, shapes = SHAPES[name]
    if not isinstance(value, dict) or tag_key not in value:
        raise ConfigError(name, f"must be an object with a {tag_key!r} key, got {value!r}")
    tag = value[tag_key]
    if not isinstance(tag, str) or tag not in shapes:
        raise ConfigError(f"{name}.{tag_key}", f"must be one of {tuple(shapes)}, got {tag!r}")
    shape = shapes[tag]
    unknown = sorted(set(value) - {tag_key, *shape})
    if unknown:
        raise ConfigError(f"{name}.{unknown[0]}", f"unknown key for {tag_key} {tag!r}")
    if any(key not in value for key in shape):
        raise ConfigError(name, f"{tag_key} {tag!r} needs {', '.join(map(repr, shape))}")
    parsed = {tag_key: tag}
    for key, kind in shape.items():
        fld, raw = f"{name}.{key}", value[key]
        if kind is list and not isinstance(raw, (list, tuple)):
            raise ConfigError(fld, f"must be a list of numbers, got {raw!r}")
        parsed[key] = [_number(fld, x, float) for x in raw] if kind is list else _number(fld, raw, kind)
    return parsed


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment (see module docstring). It is checked once, at
    construction, so `from_json`, the presets, the command-line overrides and every `replace` share
    one parse (`_number`, `_parsed`) and one check of ranges and consistency."""

    kind: str
    state: dict
    measurements: dict | None = None
    eta: float = 1.0
    x_star: int = 0
    bob_measurement: dict | None = None
    sweep: dict | None = None
    seeds: tuple[int, ...] = (0,)
    max_iters: int = 50
    tol: float = 1e-6
    out: str | None = None

    def __post_init__(self) -> None:
        for fld, kind in NUMBERS.items():
            object.__setattr__(self, fld, _number(fld, getattr(self, fld), kind))
        for name in SHAPES:
            if name == "state" or getattr(self, name) is not None:
                object.__setattr__(self, name, _parsed(name, getattr(self, name)))
        if not isinstance(self.seeds, (list, tuple)):
            raise ConfigError("seeds", f"must be a list of integers, got {self.seeds!r}")
        object.__setattr__(self, "seeds", tuple(_number("seeds", s, int) for s in self.seeds))
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError("out", f"must be a path, got {self.out!r}")
        # ranges and consistency, once the types are settled
        if self.kind not in KINDS:
            raise ConfigError("kind", f"must be one of {KINDS}, got {self.kind!r}")
        self._validate_state()
        if self.kind != "seesaw" and self.measurements is None:
            raise ConfigError("measurements", "required for this experiment kind")
        if self.measurements is not None:
            self._validate_measurements()
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigError("eta", f"detection efficiency must lie in [0, 1], got {self.eta}")
        n_inputs = SEESAW_INPUTS if self.kind == "seesaw" else len(self._family())
        if not 0 <= self.x_star < n_inputs:
            raise ConfigError("x_star", f"must lie in [0, {n_inputs - 1}], got {self.x_star}")
        if self.kind == "steering_global" and self.bob_measurement is None:
            raise ConfigError("bob_measurement", "required for steering_global")
        bob = self.bob_measurement and self.bob_measurement["kind"]
        if bob in ("pauli_x", "pauli_z") and self._alice_dim() != 2:  # Bob's dimension is Alice's for every state
            raise ConfigError("bob_measurement", f"{bob} needs a qubit on the trusted side")
        if self.sweep is not None:
            self._validate_sweep()
        if not self.seeds:
            raise ConfigError("seeds", "must not be empty")
        if any(s < 0 for s in self.seeds):
            raise ConfigError("seeds", "seeds must be non-negative integers")
        if self.max_iters < 1:
            raise ConfigError("max_iters", "must be at least 1")
        if not self.tol > 0:
            raise ConfigError("tol", "must be positive")

    def to_json(self) -> dict:
        data = asdict(self)
        data["seeds"] = list(self.seeds)
        return data

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        """The configuration of a parsed JSON document."""
        if not isinstance(data, dict):
            raise ConfigError("config", f"must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown configuration field")
        for fld in ("kind", "state"):
            if fld not in data:
                raise ConfigError(fld, "required")
        return cls(**data)

    # -- validation -------------------------------------------------------

    def _validate_state(self) -> None:
        kind = self.state["kind"]
        if kind != "schmidt" and not 0.0 <= self.state["v"] <= 1.0:
            raise ConfigError("state.v", f"visibility must lie in [0, 1], got {self.state['v']}")
        if kind == "isotropic" and self.state["d"] < 2:
            raise ConfigError("state.d", f"local dimension must be >= 2, got {self.state['d']}")
        if kind == "schmidt":
            lam = self.state["lambdas"]
            if not lam or any(x < 0 for x in lam) or abs(sum(lam) - 1) > 1e-9:
                raise ConfigError("state.lambdas", "must be a probability vector")
            if self.kind == "seesaw" and 0.0 in lam:
                raise ConfigError("state.lambdas", "see-saw ceiling needs strictly positive coefficients")

    def _validate_measurements(self) -> None:
        m = self.measurements
        if m["kind"] == "mub":
            try:
                n_bases = len(scen.mub_bases(m["d"]))
            except ValueError as exc:
                raise ConfigError("measurements.d", str(exc)) from None
            if not 1 <= m["count"] <= n_bases:
                raise ConfigError("measurements.count", f"d = {m['d']} has 1 to {n_bases} mub bases, got {m['count']}")
        if m["kind"] == "fourier_and_computational" and m["d"] < 2:
            raise ConfigError("measurements.d", f"local dimension must be >= 2, got {m['d']}")
        d_meas, d_state = m.get("d", 2), self._alice_dim()
        if d_meas != d_state:
            raise ConfigError("measurements", f"act on dimension {d_meas} but the state needs {d_state}")

    def _validate_sweep(self) -> None:
        s = self.sweep
        if s["parameter"] == "v" and self.state["kind"] == "schmidt":
            raise ConfigError("sweep.parameter", "schmidt states have no visibility to sweep")
        if s["points"] < 1:
            raise ConfigError("sweep.points", "must be at least 1")
        if not 0.0 <= s["start"] <= s["stop"] <= 1.0:
            raise ConfigError("sweep", f"range [{s['start']}, {s['stop']}] must be increasing inside [0, 1]")

    # -- construction helpers --------------------------------------------

    def _alice_dim(self) -> int:
        if self.state["kind"] == "schmidt":
            return len(self.state["lambdas"])
        return self.state.get("d", 2)  # a werner state is a pair of qubits

    def sweep_values(self) -> list[float]:
        if self.sweep is None:
            return [self.state.get("v", self.eta)]
        return np.linspace(self.sweep["start"], self.sweep["stop"], self.sweep["points"]).tolist()

    def at_parameter(self, value: float) -> "ExperimentConfig":
        """Config specialized to one sweep point (sweep removed)."""
        if self.sweep is None:
            return self
        if self.sweep["parameter"] == "v":
            state = dict(self.state, v=value)
            return replace(self, state=state, sweep=None)
        return replace(self, eta=value, sweep=None)

    def build_state(self) -> np.ndarray:
        s = self.state
        if s["kind"] == "werner":
            return scen.werner_state(s["v"])
        if s["kind"] == "isotropic":
            return scen.isotropic_state(s["d"], s["v"])
        return scen.schmidt_state(s["lambdas"])

    def _family(self) -> tuple[Povm, ...]:
        """The named family, which `scenario` builds once."""
        return FAMILIES[self.measurements["kind"]](self.measurements)

    def build_measurements(self) -> tuple[Povm, ...]:
        """The named family with this point's loss applied."""
        povms = self._family()
        if self.eta < 1.0:
            povms = tuple(scen.apply_loss(p, self.eta) for p in povms)
        return povms

    def build_bob_povm(self, d: int) -> Povm:
        """The trusted measurement, on Bob's dimension d."""
        kind = self.bob_measurement["kind"]
        if kind in ("pauli_x", "pauli_z"):
            return scen.pauli_xz()[0 if kind == "pauli_x" else 1]
        if kind == "computational":
            return basis_povm(np.eye(d, dtype=complex))
        return scen.fourier_and_computational(d)[0]


def presets() -> dict[str, ExperimentConfig]:
    """Named configurations reproducing the standard curves."""
    theta = np.pi / 7
    return {
        "fig2": ExperimentConfig(
            kind="steering_local",
            state={"kind": "werner", "v": 1.0},
            measurements={"kind": "pauli_xz"},
            sweep={"parameter": "v", "start": 0.6, "stop": 1.0, "points": 41},
            out="fig2.csv",
        ),
        "fig3_qubit": ExperimentConfig(
            kind="steering_local",
            state={"kind": "werner", "v": 1.0},
            measurements={"kind": "pauli_xz"},
            sweep={"parameter": "eta", "start": 0.4, "stop": 1.0, "points": 31},
            out="fig3_qubit.csv",
        ),
        "fig4_qutrit_loss": ExperimentConfig(
            kind="steering_local",
            state={"kind": "isotropic", "d": 3, "v": 1.0},
            measurements={"kind": "mub", "d": 3, "count": 4},
            sweep={"parameter": "eta", "start": 0.4, "stop": 1.0, "points": 13},
            out="fig4_qutrit_loss.csv",
        ),
        "fig_global": ExperimentConfig(
            kind="steering_global",
            state={"kind": "werner", "v": 1.0},
            measurements={"kind": "pauli_xz"},
            bob_measurement={"kind": "pauli_x"},
            sweep={"parameter": "v", "start": 0.5, "stop": 1.0, "points": 21},
            out="fig_global.csv",
        ),
        "fig_pm": ExperimentConfig(
            kind="prepare_measure",
            state={"kind": "isotropic", "d": 3, "v": 1.0},
            measurements={"kind": "mub", "d": 3, "count": 2},
            sweep={"parameter": "v", "start": 0.1, "stop": 1.0, "points": 10},
            out="fig_pm.csv",
        ),
        "fig6_seesaw": ExperimentConfig(
            kind="seesaw",
            state={"kind": "schmidt", "lambdas": [float(np.cos(theta) ** 2), float(np.sin(theta) ** 2)]},
            seeds=(0, 1, 2, 3, 4),
            max_iters=50,
            tol=1e-6,
            out="fig6_seesaw.csv",
        ),
    }


def _check_kind(config: ExperimentConfig, command: str) -> None:
    """Reject, before anything is built, a configuration whose kind `command` does not run."""
    if config.kind not in COMMAND_KINDS[command]:
        raise ConfigError("kind", f"{command} needs one of {COMMAND_KINDS[command]}, got {config.kind!r}")


def _certify_point(config: ExperimentConfig) -> certify_mod.CertificationResult:
    _check_kind(config, "certify")
    rho = config.build_state()
    povms = config.build_measurements()
    if config.kind == "prepare_measure":
        return certify_mod.certify_pm(rho, povms, config.x_star)
    asm = scen.assemblage_from(rho, povms)
    if config.kind == "steering_local":
        return certify_mod.certify_local(asm, config.x_star)
    return certify_mod.certify_global(asm, config.x_star, config.build_bob_povm(asm.sigma.shape[-1]))


def _target(command: str, config: ExperimentConfig, out: str | None) -> str | None:
    """The file ``command`` writes: ``out``, else the configuration's ``out`` when it names this
    command's artifact, which for a certification kind is its sweep's, so `certify` has none."""
    own = "sweep" if config.kind in CERTIFICATION_KINDS else config.kind
    return out or (config.out if command == own else None)


def _dump(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)


def run_certify(config: ExperimentConfig, *, out: str | None = None) -> tuple[dict, int]:
    """Certify the configured point, a sweep's left out; returns (report, exit_code) and
    writes the report when an output path is given."""
    payload = _certify_point(replace(config, sweep=None)).to_json()
    target = _target("certify", config, out)
    if target:
        _dump(target, payload)
    return payload, 0 if payload["status"] == "optimal" else 3


def _write_rows(out: str, rows: list[dict]) -> None:
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([key for key, _ in CSV_COLUMNS])
        writer.writerows([format(row[key], spec) for key, spec in CSV_COLUMNS] for row in rows)
    # the sidecar gives each point's report, without the wall-clock time
    _dump(os.path.splitext(out)[0] + ".json", [{k: v for k, v in row.items() if k != "wall_ms"} for row in rows])


def run_sweep(config: ExperimentConfig, *, out: str | None = None) -> tuple[list[dict], int]:
    """Certify every sweep point in turn, in this process; returns (rows, exit_code) and
    writes the CSV and its JSON sidecar when an output path is configured."""
    _check_kind(config, "sweep")
    rows = []
    for value in config.sweep_values():
        point, start = config.at_parameter(value), time.perf_counter()
        result = _certify_point(point)
        wall_ms = (time.perf_counter() - start) * 1000.0
        rows.append({"parameter": value, **result.to_json(), "wall_ms": wall_ms})
    target = _target("sweep", config, out)
    if target:
        _write_rows(target, rows)
    code = 0 if all(r["status"] == "optimal" for r in rows) else 3
    return rows, code


def run_seesaw(config: ExperimentConfig, *, out: str | None = None) -> tuple[dict, int]:
    """Multi-seed see-saw restarts; keeps the best trace and writes its CSV plus a JSON
    sidecar mapping each seed to its start's `SeesawTrace.to_json`. Returns the best
    start's report with its seed, and the exit code."""
    _check_kind(config, "seesaw")
    rho = config.build_state()
    d = int(np.sqrt(rho.shape[0]))
    ceiling = float(np.log2(d)) if config.state["kind"] == "schmidt" else None
    traces = {}
    for seed in config.seeds:
        initial = _random_povms(d, SEESAW_INPUTS, d, seed)
        traces[seed] = _seesaw_loop(
            rho, initial, config.x_star, eta=config.eta, max_iters=config.max_iters, tol=config.tol, ceiling=ceiling
        )
    best_seed = max(traces, key=lambda s: traces[s].final.h_min)
    best = traces[best_seed]
    target = _target("seesaw", config, out)
    if target:
        best.to_csv(target)
        _dump(os.path.splitext(target)[0] + ".json", {
            "best_seed": best_seed,
            "seeds": {str(s): t.to_json() for s, t in traces.items()},
            "functional": best.final.functional.to_json(),
        })
    return {"best_seed": best_seed, **best.to_json()}, 0


def run_lhs(config: ExperimentConfig, *, out: str | None = None) -> tuple[dict, int]:
    """Test the configured assemblage for a local-hidden-state model; returns (payload,
    exit_code) and writes the payload when an output path is given (`_target`)."""
    _check_kind(config, "lhs")
    asm = scen.assemblage_from(config.build_state(), config.build_measurements())
    result = scen.lhs_test(asm)
    payload = {"is_lhs": bool(result.is_lhs), "robustness": float(result.robustness)}
    target = _target("lhs", config, out)
    if target:
        _dump(target, payload)
    return payload, 0


# -- command line ---------------------------------------------------------


def _error_json(code: int, message: str) -> int:
    print(json.dumps({"error": message, "exit_code": code}), file=sys.stderr)
    return code


def _load_config(args) -> ExperimentConfig:
    """The configuration of the preset or file with the flags' fields put in its document,
    built, and so checked, once."""
    if args.preset and args.config:
        raise ConfigError("preset", "give either --preset or --config, not both")
    if args.preset:
        table = presets()
        if args.preset not in table:
            raise ConfigError("preset", f"unknown preset {args.preset!r}; have {sorted(table)}")
        data = table[args.preset].to_json()
    elif args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise ConfigError("config", f"no such file: {args.config}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON: {exc}") from None
    else:
        raise ConfigError("config", "need --preset NAME or --config PATH")

    flags = {"x_star": args.x_star, "eta": args.eta, "out": args.out,
             "seeds": None if args.seeds is None else args.seeds.split(",")}
    if isinstance(data, dict):  # from_json names what is wrong with any other document
        data.update((fld, value) for fld, value in flags.items() if value is not None)
        if args.v is not None and isinstance(data.get("state"), dict):
            data["state"] = dict(data["state"], v=args.v)
    return ExperimentConfig.from_json(data)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a JSON experiment configuration")
    parser.add_argument("--preset", help="named preset (see the presets command)")
    parser.add_argument("--x-star", dest="x_star", type=int, default=None, help="target input index")
    parser.add_argument("--eta", type=float, default=None, help="detection efficiency override")
    parser.add_argument("--v", type=float, default=None, help="visibility override")
    parser.add_argument("--seeds", default=None, help="comma-separated seeds (see-saw restarts)")
    parser.add_argument("--out", default=None, help="output path override")
    parser.add_argument("--json", action="store_true", help="print results as JSON to stdout")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="steercert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("certify", "run a single certification point"),
        ("sweep", "run a parameter sweep and write CSV + JSON artifacts"),
        ("seesaw", "optimize measurements by see-saw restarts"),
        ("lhs", "test an observed assemblage for a local-hidden-state model"),
        ("presets", "list named presets"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name != "presets":
            _add_common(p)
        else:
            p.add_argument("--json", action="store_true", help="print full preset configs")
    args = parser.parse_args(argv)

    if args.command == "presets":
        table = presets()
        if args.json:
            print(json.dumps({name: cfg.to_json() for name, cfg in table.items()}, indent=2))
        else:
            for name in table:
                print(name)
        return 0

    # looked up at each call, so that a runner replaced in this module is the one run
    runners = {"certify": run_certify, "sweep": run_sweep, "seesaw": run_seesaw, "lhs": run_lhs}
    try:
        config = _load_config(args)
        report, code = runners[args.command](config, out=args.out)
    except ConfigError as exc:
        return _error_json(2, str(exc))
    except (certify_mod.CertificationError, RuntimeError) as exc:
        return _error_json(3, str(exc))
    if args.command == "sweep":  # a printed row leaves out the functional and the wall-clock time
        report = [{k: v for k, v in row.items() if k not in ("functional", "wall_ms")} for row in report]
    if args.json or not _target(args.command, config, args.out):
        print(json.dumps(report))
    return code


def entrypoint() -> None:  # console script
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entrypoint()
