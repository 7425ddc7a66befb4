"""Key-value run configuration with physical units.

Format: one ``key = value`` per line, ``#`` starts a comment, blank lines
ignored.  Numeric values may use a small arithmetic grammar (digits, + - * /,
parentheses, ``pi``) and an optional unit suffix, e.g.::

    omega    = 2*pi*20 Hz
    dz_max   = 10 a0
    t_ramp   = 10 /omega
    t_int    = 0, 0.05, 0.1 s
    a_00     = 100.4 bohr

Times given in seconds are converted to oscillator units with the configured
omega; ``a0`` denotes the oscillator length.  A list takes one unit: a
trailing unit applies to every value, and differing units are an error.
Unknown keys, malformed values and constraint violations raise ConfigError
with the offending line number.
"""

import ast
import math
import operator

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
    "sample_stride": ("int", None, False),
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

_REQUIRED = ("n_a", "n_b", "dz_max", "t_ramp")

# sweep key -> the protocol keys each of its values sets
SWEEP_AXES = {"sweep_n": ("n_a", "n_b"), "sweep_dz_max": ("dz_max",),
              "sweep_t_ramp": ("t_ramp",)}

_DEFAULTS = {
    "omega": 2.0 * math.pi * 20.0,
    "a_00": 100.4, "a_11": 95.0, "a_01": 98.0,
    "kappa_11": 81e-21, "kappa_01": 15e-21, "kappa_000": 5.4e-42,
    "tau_1": math.inf,
    "t_int": [(0.0, None)],
    "pulse_phase_a": 0.0, "pulse_phase_b": 0.0,
    "move_mode": "mirror", "beta": 1, "window_sigmas": 8.0,
    "n_r": 28, "dr": 1.0 / 7.0, "dz": 1.0 / 7.0, "z_margin": 4.5,
    "dt": None, "sample_stride": 0, "gs_tol": 1e-8,
    "t_loss": (0.2, "s"),
    "with_oracle": False, "oracle_samples": 9, "oracle_dn": None,
    "oracle_phi_a": None, "oracle_phi_b": None, "oracle_phi_ab": None,
    "sweep_dz_max": None, "sweep_t_ramp": None, "sweep_n": None,
}


class RunConfig:
    """Fully resolved configuration: physics parameters plus protocol knobs.

    Times are stored in oscillator units; `omega` links them to seconds.
    """

    def __init__(self, values):
        self.values = values          # normalized key -> value map
        self.params = PhysicalParams(
            omega=values["omega"],
            a_00=values["a_00"], a_11=values["a_11"], a_01=values["a_01"],
            kappa_11=values["kappa_11"], kappa_01=values["kappa_01"],
            kappa_000=values["kappa_000"], tau_1=values["tau_1"],
        )

    def protocol(self, **overrides):
        keys = ("n_a", "n_b", "dz_max", "t_ramp", "t_int", "pulse_phase_a",
                "pulse_phase_b", "move_mode", "beta", "window_sigmas",
                "n_r", "dr", "dz", "z_margin", "dt", "sample_stride")
        kw = {k: self.values[k] for k in keys}
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
            elif k in ("tau_1", "t_loss"):
                lines.append(f"{k} = {v!r} s")  # these two stay in seconds
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
        if len(parts) == 2 and not parts[1][0].isdigit() \
                and parts[1][0] not in "+-.(":
            raise ConfigError(
                f"line {lineno}: key {key!r} got unit {parts[1]!r}, "
                f"expected one of {units or ()}")
        return tok, None

    def one(tok, unit):
        try:
            val = _eval_number(tok)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        if kind == "int":
            if not math.isfinite(val) or abs(val - round(val)) > 1e-9:
                raise ConfigError(f"line {lineno}: key {key!r} must be an "
                                  f"integer, got {val!r}")
            return int(round(val))
        if kind in ("time", "t_loss"):
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


def parse_config(text, overrides=()):
    """Parse config text (plus `--set key=value` overrides) into a RunConfig."""
    values = dict(_DEFAULTS)
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
        if kind != "time" or key == "t_loss":
            continue
        v = values[key]
        if v is None:
            continue
        if is_list:
            values[key] = [to_osc(x, key) for x in v]
        else:
            values[key] = to_osc(v, key)
    # tau_1 and t_loss remain in seconds (loss rates are SI)
    tl = values["t_loss"]
    if isinstance(tl, tuple):
        val, unit = tl
        values["t_loss"] = val if unit == "s" else val / omega

    cfg = RunConfig(values)
    try:
        cfg.protocol()                 # run the protocol validators
    except ValueError as exc:
        line = seen.get(_blame(str(exc)), "?")
        raise ConfigError(f"line {line}: {exc}") from None
    for key, fields in SWEEP_AXES.items():
        for v in values[key] or ():
            try:
                cfg.protocol(**dict.fromkeys(fields, v))
            except ValueError as exc:
                raise ConfigError(f"line {seen[key]}: {key} value {v!r}: "
                                  f"{exc}") from None
    return cfg


def _blame(msg):
    for key in ("dz_max", "t_ramp", "t_int", "move_mode", "n_a", "n_b"):
        if key in msg or key.replace("_", " ") in msg:
            return key
    if "atom numbers" in msg:
        return "n_a"
    return ""


def load_config(path, overrides=()):
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read(), overrides=overrides)
