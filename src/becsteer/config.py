"""Key-value run configuration with physical units.

Format: one ``key = value`` per line, ``#`` starts a comment, blank lines
ignored.  Numeric values may use a small arithmetic grammar (digits, + - * /,
parentheses, ``pi``) and an optional unit suffix, e.g.::

    omega    = 2*pi*20 Hz
    dz_max   = 10 a0
    t_ramp   = 10 /omega
    t_int    = 0, 0.05, 0.1 s
    a_00     = 100.4 bohr

``omega`` is the trap's angular frequency: ``Hz`` and ``rad/s`` are both read
as rad/s, so ``2*pi*20 Hz`` is a 20 Hz trap and ``omega = 20 Hz`` is 20 rad/s
(about 3.2 Hz).  Times given in seconds are converted to oscillator units with
the configured omega; ``a0`` denotes the oscillator length.  A list takes one
unit: a trailing unit applies to every value, and differing units are an
error.

``dt`` is the longest time step.  A point of length T = 2 t_ramp + t_int
steps with dt_T = T / ceil(T / dt) (the stability rule's step stands in for
an unset dt).  The hold times of a run share one forward ramp and one hold,
stepped with the longest hold time's dt_T; a hold time whose T and
t_ramp + t_int are not whole multiples of that step (within 1e-9 relative)
runs alone at its own dt_T.  So a single hold time always steps as a run of
its own, and hold times on one step lattice share their steps.

Protocol and physics keys are the fields of ProtocolConfig and PhysicalParams:
their defaults and range checks are those of the dataclasses.  The keys no
dataclass owns (`gs_tol`, `t_loss`, `with_oracle`, `oracle_*`, `sweep_*`)
have their defaults and checks here.  Every value is range-checked when the
config is read, so unknown keys, malformed values and out-of-range values
raise ConfigError with the line that set the offending key.
"""

import ast
import dataclasses
import math
import operator

from .fockflow import max_beta
from .meanfield import PhysicalParams
from .sequence import ProtocolConfig

CONFIG_VERSION = 1


class ConfigError(ValueError):
    pass


_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv,
           ast.Pow: operator.pow}


def _eval_number(text):
    """Safe arithmetic evaluation of a numeric expression, in floats.

    Float powers overflow at once instead of building huge integers, so
    `9**9**9` fails fast rather than hanging.
    """
    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "pi":
            return math.pi
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
            return +ev(node.operand)
        raise ValueError("unsupported expression")
    try:
        return float(ev(ast.parse(text, mode="eval")))
    except OverflowError as exc:
        raise ValueError(f"numeric overflow in {text!r}") from exc
    except (ValueError, TypeError, SyntaxError, ZeroDivisionError,
            RecursionError) as exc:
        raise ValueError(f"bad numeric expression {text!r}") from exc


# unit kinds: how a raw (value, unit) pair is turned into internal units.
# "time" values end up in 1/omega; "length" in a_ho; rates stay SI.
_SCHEMA = {
    # key: (kind, allowed units, is_list)
    "n_a": ("int", None, False),
    "n_b": ("int", None, False),
    "omega": ("rate", ("Hz", "rad/s"), False),
    "a_00": ("bohr", ("bohr",), False),
    "a_11": ("bohr", ("bohr",), False),
    "a_01": ("bohr", ("bohr",), False),
    "kappa_11": ("si", ("m3/s",), False),
    "kappa_01": ("si", ("m3/s",), False),
    "kappa_000": ("si", ("m6/s",), False),
    "tau_1": ("seconds", ("s",), False),
    "dz_max": ("length", ("a0",), False),
    "t_ramp": ("time", ("s", "/omega"), False),
    "t_int": ("time", ("s", "/omega"), True),
    "pulse_phase_a": ("plain", ("rad",), False),
    "pulse_phase_b": ("plain", ("rad",), False),
    "move_mode": ("str", None, False),
    "beta": ("int", None, False),
    "window_sigmas": ("plain", None, False),
    "n_r": ("int", None, False),
    "dr": ("length", ("a0",), False),
    "dz": ("length", ("a0",), False),
    "z_margin": ("length", ("a0",), False),
    "dt": ("time", ("s", "/omega"), False),
    "gs_tol": ("plain", None, False),
    "t_loss": ("time", ("s", "/omega"), False),
    "with_oracle": ("bool", None, False),
    "oracle_samples": ("int", None, False),
    "oracle_dn": ("int", None, False),
    "oracle_phi_a": ("plain", ("rad",), True),
    "oracle_phi_b": ("plain", ("rad",), True),
    "oracle_phi_ab": ("plain", ("rad",), True),
    "sweep_dz_max": ("length", ("a0",), True),
    "sweep_t_ramp": ("time", ("s", "/omega"), True),
    "sweep_n": ("int", None, True),
}

# sweep key -> the protocol keys each of its values sets
SWEEP_AXES = {"sweep_n": ("n_a", "n_b"), "sweep_dz_max": ("dz_max",),
              "sweep_t_ramp": ("t_ramp",)}

# defaults of the keys no dataclass owns
_DEFAULTS = {
    "gs_tol": 1e-8, "t_loss": (0.2, "s"),
    "with_oracle": False, "oracle_samples": 9, "oracle_dn": None,
    "oracle_phi_a": None, "oracle_phi_b": None, "oracle_phi_ab": None,
    "sweep_dz_max": None, "sweep_t_ramp": None, "sweep_n": None,
}


def _keys_of(cls):
    return [f for f in dataclasses.fields(cls) if f.name in _SCHEMA]


_PHYSICS = _keys_of(PhysicalParams)
_PROTOCOL = _keys_of(ProtocolConfig)
# a field without a default is a required key
_REQUIRED = [f.name for f in _PROTOCOL if f.default is dataclasses.MISSING]


class RunConfig:
    """Fully resolved configuration: physics parameters plus protocol knobs.

    Times are stored in oscillator units; `omega` links them to seconds.
    """

    def __init__(self, values):
        self.values = values          # normalized key -> value map
        self.params = PhysicalParams(**{f.name: values[f.name] for f in _PHYSICS})

    def protocol(self, **overrides):
        kw = {f.name: self.values[f.name] for f in _PROTOCOL}
        kw["t_int"] = tuple(kw["t_int"])
        kw.update(overrides)
        return ProtocolConfig(**kw)

    def echo(self):
        """Round-trippable text form of the resolved configuration."""
        lines = [f"# resolved becsteer config v{CONFIG_VERSION} "
                 f"(times in 1/omega, lengths in a0)"]
        for k in sorted(self.values):
            v = self.values[k]
            if v is None:
                continue
            if isinstance(v, float) and not math.isfinite(v):
                continue                      # inf/nan match the defaults only
            if isinstance(v, str):
                lines.append(f"{k} = {v}")
            elif isinstance(v, (list, tuple)):
                lines.append(f"{k} = {', '.join(f'{x!r}' for x in v)}")
            elif k == "tau_1":
                lines.append(f"{k} = {v!r} s")  # an SI lifetime
            else:
                lines.append(f"{k} = {v!r}")
        return "\n".join(lines) + "\n"


def _parse_value(key, raw, lineno):
    kind, units, is_list = _SCHEMA[key]
    if kind == "str":
        return raw.strip()
    if kind == "bool":
        tok = raw.strip().lower()
        if tok in ("true", "yes", "1", "on"):
            return True
        if tok in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"line {lineno}: boolean key {key!r} got {raw!r}")

    def split_unit(tok):
        tok = tok.strip()
        parts = tok.rsplit(None, 1)
        if len(parts) == 2 and units and parts[1] in units:
            return parts[0], parts[1]
        return tok, None

    def one(tok, unit):
        try:
            val = _eval_number(tok)
        except ValueError as exc:
            # only a value the grammar cannot read has a wrong unit: its
            # last word is not a number
            parts = tok.rsplit(None, 1)
            if len(parts) == 2 and not parts[1][0].isdigit() \
                    and parts[1][0] not in "+-.(":
                raise ConfigError(
                    f"line {lineno}: key {key!r} got unit {parts[1]!r}, "
                    f"expected one of {units or ()}") from None
            raise ConfigError(f"line {lineno}: {exc}") from None
        if not math.isfinite(val):
            raise ConfigError(f"line {lineno}: {key} must be finite, got {val!r}")
        if kind == "int":
            if abs(val - round(val)) > 1e-9:
                raise ConfigError(f"line {lineno}: key {key!r} must be an "
                                  f"integer, got {val!r}")
            return int(round(val))
        if kind == "time":
            return (val, unit)        # resolved later against omega
        return val

    if is_list:
        toks = [split_unit(t) for t in raw.split(",") if t.strip()]
        if not toks:
            raise ConfigError(f"line {lineno}: key {key!r} needs at least one value")
        # a list has one unit: a trailing unit applies to the whole list
        explicit = sorted({u for _, u in toks if u is not None})
        if len(explicit) > 1:
            raise ConfigError(f"line {lineno}: key {key!r} mixes units "
                              f"{', '.join(explicit)} in one list")
        unit = explicit[0] if explicit else None
        return [one(t, unit) for t, _ in toks]
    return one(*split_unit(raw))


def parse_config(text, overrides=(), trajectories=True):
    """Parse config text (plus `--set key=value` overrides) into a RunConfig.

    `trajectories` also checks what only building Fock trajectories needs
    (`run`, over any sweep grid): the bound on beta.
    """
    # required fields get no entry here: the check below catches them unset
    values = {f.name: f.default for f in _PHYSICS + _PROTOCOL
              if f.default is not dataclasses.MISSING}
    values.update(_DEFAULTS)
    seen = {}
    lines = list(enumerate(text.splitlines(), start=1))
    lines += [(f"--set #{i + 1}", ov) for i, ov in enumerate(overrides)]
    for lineno, line in lines:
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (s.strip() for s in body.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, raw, lineno)
        seen[key] = lineno

    for key in _REQUIRED:
        if key not in seen:
            raise ConfigError(f"required key {key!r} is not set")

    omega = values["omega"]

    def to_osc(pair, key):
        if pair is None:
            return None
        val, unit = pair if isinstance(pair, tuple) else (pair, None)
        if unit == "s":
            return val * omega
        return val

    for key, (kind, _, is_list) in _SCHEMA.items():
        if kind != "time":
            continue
        v = values[key]
        if v is None:
            continue
        if is_list:
            values[key] = [to_osc(x, key) for x in v]
        else:
            values[key] = to_osc(v, key)

    try:
        cfg = RunConfig(values)        # the dataclasses' range checks
        cfg.protocol()
        _check_cli_keys(values)
    except ValueError as exc:          # each message starts with its key
        line = seen.get(str(exc).partition(" ")[0], "?")
        raise ConfigError(f"line {line}: {exc}") from None
    for key, fields in SWEEP_AXES.items():
        for v in values[key] or ():
            try:
                cfg.protocol(**dict.fromkeys(fields, v))
            except ValueError as exc:
                raise ConfigError(f"line {seen[key]}: {key} value {v!r}: "
                                  f"{exc}") from None
    if trajectories:
        _check_beta(values, seen)
    return cfg


def _check_beta(v, seen):
    """beta against a tenth of the smallest central occupation, at the
    config's (n_a, n_b) and at each sweep_n value.  The error blames beta's
    line if beta was set, else the line of the occupation that is too small."""
    small = "n_a" if v["n_a"] <= v["n_b"] else "n_b"
    pairs = [(v["n_a"], v["n_b"], small, v[small])]
    pairs += [(n, n, "sweep_n", n) for n in v["sweep_n"] or ()]
    for n_a, n_b, key, value in pairs:
        limit = max_beta(n_a, n_b)
        if v["beta"] > limit:
            if "beta" in seen:
                key, value = "beta", v["beta"]
            raise ConfigError(
                f"line {seen[key]}: {key} value {value!r}: beta must be at "
                f"most {limit:g}, a tenth of the smallest central occupation "
                f"at n_a = {n_a}, n_b = {n_b}")


def _check_cli_keys(v):
    """Range checks of the keys no dataclass owns."""
    n = len(v["oracle_phi_ab"] or ())
    checks = (
        ("gs_tol", v["gs_tol"] > 0, "must be positive"),
        ("t_loss", v["t_loss"] >= 0, "must be non-negative"),
        ("oracle_samples", v["oracle_samples"] >= 2, "must be at least 2"),
        ("oracle_dn", v["oracle_dn"] is None or v["oracle_dn"] >= 1,
         "must be at least 1"),
    ) + tuple((key, not n or v[key] is None or len(v[key]) in (1, n),
               f"needs 1 or {n} values, one per oracle_phi_ab")
              for key in ("oracle_phi_a", "oracle_phi_b"))
    for key, ok, need in checks:
        if not ok:
            raise ValueError(f"{key} {need}, got {v[key]!r}")


def load_config(path, overrides=(), trajectories=True):
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read(), overrides=overrides,
                            trajectories=trajectories)
