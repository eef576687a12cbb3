"""Case configuration: typed container plus the flat INI file format.

The file format uses section headers and ``key = value`` pairs
(`configparser` syntax, no interpolation).  One table, :data:`_READS`, says
which sections and keys each case kind reads; any other is an error.
Closed-form forcing is an expression in ``t`` using sin/cos/tan/exp/sqrt/
log/abs and pi; series-backed forcing names a CSV path and columns.
"""
from __future__ import annotations

import ast
import configparser
import math
import operator
import os
from dataclasses import dataclass, field as dc_field
from typing import Optional

from .errors import ConfigError
from .model import (
    C_WATER, COEFFICIENT_NAMES, RHO_WATER, BiotSet, CoefficientModel, DimensionlessGroups,
    SideForcing, _zero, builtin_material,
)
from .series import ingest_boundary_series

_EXPR_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp,
                   "sqrt": math.sqrt, "log": math.log, "abs": abs}
_EXPR_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
             ast.Div: operator.truediv, ast.Mod: operator.mod, ast.Pow: operator.pow,
             ast.UAdd: operator.pos, ast.USub: operator.neg}

_DURATION_UNITS = {"s": 1.0, "min": 60.0, "h": 3600.0, "d": 86400.0}

MAX_STEPS = 10**9     # tau/step ceiling; the full-year Euler baseline takes 1.55e7 steps

# Layer layouts of the drying study, by name: (material name, thickness in m).
PHYSICAL_LAYOUTS = {
    "ins_re": [("ins", 0.125), ("re", 0.5)],
    "re_ins": [("re", 0.5), ("ins", 0.125)],
    "re": [("re", 0.5)],
}

def _forcing_node(node, expr: str):
    """``node`` checked against the forcing grammar, with float literals and
    its constant parts folded, so that a constant overflow fails here."""
    kind = type(node)
    if kind is ast.Name and node.id in ("t", "pi"):
        return node if node.id == "t" else ast.Constant(math.pi)
    if (kind is ast.Call and type(node.func) is ast.Name and node.func.id in _EXPR_FUNCTIONS
            and not node.keywords and ast.Starred not in map(type, node.args)):
        node.args = [_forcing_node(arg, expr) for arg in node.args]
        return node
    if kind is ast.Constant and type(node.value) in (int, float):
        fn, operands = float, [node]
    elif kind is ast.UnaryOp and type(node.op) in _EXPR_OPS:
        node.operand = _forcing_node(node.operand, expr)
        fn, operands = _EXPR_OPS[type(node.op)], [node.operand]
    elif kind is ast.BinOp and type(node.op) in _EXPR_OPS:
        node.left, node.right = _forcing_node(node.left, expr), _forcing_node(node.right, expr)
        fn, operands = _EXPR_OPS[type(node.op)], [node.left, node.right]
    else:
        raise ConfigError(f"forcing expression {expr!r} uses {ast.unparse(node)!r}: only numbers, "
                          f"t, pi, arithmetic and calls of {', '.join(_EXPR_FUNCTIONS)} are allowed")
    if any(type(x) is not ast.Constant for x in operands):
        return node
    try:
        value = fn(*(x.value for x in operands))
    except (ArithmeticError, ValueError):
        value = None
    if type(value) is not float:
        raise ConfigError(f"forcing expression {expr!r} has a constant part with no real value")
    return ast.Constant(value)


# The compiled forcing function; its ``float(0)`` is replaced by the expression.
_FORCING_SOURCE = """def forcing(t):
    try:
        return float(0)
    except errors as exc:
        raise ConfigError(f"forcing expression {expr!r} fails at t={t!r}: {exc}") from None
"""


def parse_time_function(expr: str):
    """Compile a closed-form forcing expression of ``t`` into a function.

    Allowed: numbers (read as floats), ``t``, ``pi``, ``+ - * / % **`` and positional
    calls of :data:`_EXPR_FUNCTIONS`; anything else, or a constant part that
    overflows, is a :class:`ConfigError`.  So is a value the function fails to
    compute at some ``t`` (``log(0)``, ``1/0``, a complex power, an overflow)."""
    tree = ast.parse(_FORCING_SOURCE)
    try:
        body = _forcing_node(ast.parse(expr, mode="eval").body, expr)
        tree.body[0].body[0].body[0].value.args = [body]
        code = compile(ast.fix_missing_locations(tree), "<forcing>", "exec")
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise ConfigError(f"bad forcing expression {expr!r}: {exc}") from None
    namespace = {"__builtins__": {"float": float}, **_EXPR_FUNCTIONS, "expr": expr,
                 "errors": (ArithmeticError, ValueError, TypeError), "ConfigError": ConfigError}
    exec(code, namespace)
    fn = namespace["forcing"]
    fn.expression = expr
    return fn


def _number(text, kind=float, shown=None):
    """``kind(text)``, or a ConfigError naming ``shown`` (by default the text)."""
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"not a number: {str(text if shown is None else shown).strip()!r}") from None


def _boolean(text) -> bool:
    """A configparser boolean (yes/no, true/false, on/off, 1/0), else a ConfigError."""
    value = configparser.ConfigParser.BOOLEAN_STATES.get(text.strip().lower())
    if value is None:
        raise ConfigError(f"not a boolean: {text.strip()!r}")
    return value


def parse_duration(text) -> float:
    """Seconds from a duration literal like '365d', '2h', '30min', '7200'."""
    s = str(text).strip().lower()
    for unit, seconds in _DURATION_UNITS.items():
        if s.endswith(unit):
            return _number(s[: -len(unit)], shown=text) * seconds
    return _number(s, shown=text)


def _float_list(text) -> list:
    return [_number(tok) for tok in str(text).replace(";", ",").split(",") if tok.strip()]


def _values(text):
    """One number, or the list of several (a per-layer value or a polynomial)."""
    vals = _float_list(text)
    return vals[0] if len(vals) == 1 else vals


def parse_int_list(text) -> list:
    """Whole numbers from a comma list like '10,20'."""
    vals = _float_list(text)
    if not all(v.is_integer() for v in vals):
        raise ConfigError(f"expected whole numbers, got {str(text).strip()!r}")
    return [int(v) for v in vals]


def _str_list(text) -> list:
    return [tok.strip() for tok in str(text).split(",") if tok.strip()]


def _auto(parse):
    """``parse``, with "auto" read as None."""
    return lambda text: None if text.strip().lower() == "auto" else parse(text)


_VERIFICATION, _PHYSICAL = ("verification",), ("physical",)
_KINDS = _VERIFICATION + _PHYSICAL
_TIME = {"verification": _number, "physical": parse_duration}
_BOX = ("u_min", "u_max", "v_min", "v_max")
_ROBIN_TERMS = ("g_inf", "flux_m", "flux_t")
_DX = {"verification": 0.01, "physical": 5e-3}     # without [grid] dx: the kind's preset spacing
_SIDES = ("left", "right")

# What each case kind reads: (section, key) -> (CaseConfig field, {kind:
# parser}).  A kind a key's parsers leave out never reads that key; times
# (_TIME) are durations with unit suffixes in physical cases and plain
# dimensionless numbers in verification cases.  A key without a field is
# read by its section's own reader in load_config, and the key "*" stands
# for every key of [materials].  Any other section or key, in a file or from
# the command line, is a ConfigError.
_READS = {
    ("case", "title"): ("title", dict.fromkeys(_KINDS, str.strip)),
    ("grid", "dx"): ("dx", dict.fromkeys(_KINDS, _number)),
    ("time", "tau"): ("tau", _TIME),
    ("time", "dt_euler"): ("dt_euler", _TIME),
    ("time", "dt_df"): ("dt_df", _TIME),
    ("time", "dt_exp"): ("dt_exp_base", {kind: _auto(parse) for kind, parse in _TIME.items()}),
    ("schemes", "run"): ("schemes", dict.fromkeys(_KINDS, _str_list)),
    ("schemes", "damping_rkc"): ("damping_rkc", dict.fromkeys(_KINDS, _number)),
    ("constants", "latent_heat"): ("latent_heat", dict.fromkeys(_PHYSICAL, _number)),
    ("initial", "u"): ("initial_u", dict.fromkeys(_VERIFICATION, _values)),
    ("initial", "v"): ("initial_v", dict.fromkeys(_VERIFICATION, _values)),
    ("output", "dump_matrix"): ("dump_matrix", dict.fromkeys(_VERIFICATION, _boolean)),
    ("sweep", "ns"): ("sweep_ns", dict.fromkeys(_VERIFICATION, parse_int_list)),
    ("sweep", "schemes"): ("sweep_schemes", dict.fromkeys(_VERIFICATION, _str_list)),
    ("physical", "configurations"): ("physical_configurations", dict.fromkeys(_PHYSICAL, _str_list)),
    ("physical", "drying_scheme"): ("drying_scheme", dict.fromkeys(_PHYSICAL, str.strip)),
    ("physical", "climate"): ("climate_path", dict.fromkeys(
        _PHYSICAL, lambda text: None if text.strip() in ("", "synthetic") else text.strip())),
    **{(section, key): (None, dict.fromkeys(kinds)) for section, keys, kinds in (
        ("case", "kind", _KINDS), ("schemes", "ns_rkc ns_rkl", _KINDS), ("constants", "rho2 c2", _KINDS),
        ("materials", "*", _KINDS), ("wall", "layers", _KINDS), ("box", " ".join(_BOX), _KINDS),
        ("groups", "fo_m fo_t gamma delta alpha", _VERIFICATION),
        *((f"biot.{side}", "m_theta t_t t_theta t_g", _VERIFICATION) for side in _SIDES),
        *((f"forcing.{side}", " ".join(("kind series u v",) + _ROBIN_TERMS), _VERIFICATION)
          for side in _SIDES),
    ) for key in keys.split()},
}


def set_key(cfg, section: str, key: str, text: str) -> None:
    """Check that ``cfg.kind`` reads ``[section] key``; set its field from ``text`` if it has one."""
    field, parsers = _READS.get((section, key)) or _READS.get((section, "*"), (None, {}))
    if cfg.kind not in parsers:
        raise ConfigError(f"[{section}] {key} " + (f"does not apply to {cfg.kind} cases, which never read it"
                                                   if parsers else "is not a case-file key"))
    if field is not None:
        try:
            setattr(cfg, field, parsers[cfg.kind](text))
        except ConfigError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from None


@dataclass
class CaseConfig:
    """Everything a case runner needs, with a plain-data mirror for the manifest."""

    kind: str
    title: str = ""
    dx: float = 0.01
    tau: float = 1.0
    schemes: list = dc_field(default_factory=lambda: ["euler", "df", "rkc", "rkl"])
    ns: dict = dc_field(default_factory=lambda: {"rkc": 10, "rkl": 20})
    damping_rkc: float = 0.0
    dt_euler: Optional[float] = None      # None: derive from the operator estimate
    dt_df: Optional[float] = None
    dt_exp_base: Optional[float] = None   # schedule base; None: dt_euler, else operator estimate
    groups: Optional[DimensionlessGroups] = None
    materials: dict = dc_field(default_factory=dict)
    layers: list = dc_field(default_factory=list)          # (material name, thickness)
    initial_u: object = 1.0                                 # scalar or per-layer list
    initial_v: object = 1.0
    forcing_left: Optional[SideForcing] = None
    forcing_right: Optional[SideForcing] = None
    admissible_box: Optional[tuple] = None
    dump_matrix: bool = False
    sweep_ns: list = dc_field(default_factory=lambda: [10, 20, 40, 80])
    sweep_schemes: list = dc_field(default_factory=lambda: ["rkc", "rkl"])
    physical_configurations: list = dc_field(default_factory=lambda: ["ins_re", "re_ins", "re"])
    drying_scheme: str = "rkl"
    climate_path: Optional[str] = None    # None: write the synthetic series
    latent_heat: float = 2.5e6
    description: dict = dc_field(default_factory=dict)

    def validate(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown case kind {self.kind!r}")
        for name in ("tau", "dx", "dt_euler", "dt_df", "dt_exp_base", "damping_rkc"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        for name in ("tau", "damping_rkc"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        for key, step in (("dt_euler", self.dt_euler), ("dt_df", self.dt_df), ("dt_exp", self.dt_exp_base)):
            if step is not None and not (step > 0 and self.tau / step <= MAX_STEPS):
                raise ConfigError(f"{key} must be > 0 with tau/{key} <= {MAX_STEPS}, got {step}")
        box = self.admissible_box
        if box is not None and not all(-math.inf < lo < hi < math.inf for lo, hi in (box[:2], box[2:])):
            raise ConfigError(f"[box] needs finite u_min < u_max and v_min < v_max, got {box}")
        if self.kind == "physical" and self.tau == 0:
            raise ConfigError("physical cases need tau > 0")
        if self.dx <= 0:
            raise ConfigError("dx must be positive")
        if not self.schemes:
            raise ConfigError("schemes must name at least one scheme")
        known = {"euler", "df", "rkc", "rkl"}
        for s in self.schemes:
            if s not in known:
                raise ConfigError(f"unknown scheme {s!r}; choose from {sorted(known)}")
        if not self.layers:
            raise ConfigError("wall needs at least one layer")
        for name, _ in self.layers:
            if name not in self.materials:
                raise ConfigError(f"layer references unknown material {name!r}")
        if not self.physical_configurations:
            raise ConfigError("physical configurations must name at least one layout")
        for name in self.physical_configurations:
            if name not in PHYSICAL_LAYOUTS:
                raise ConfigError(f"unknown physical configuration {name!r}; "
                                  f"choose from {sorted(PHYSICAL_LAYOUTS)}")
            missing = [m for m, _ in PHYSICAL_LAYOUTS[name] if m not in self.materials]
            if self.kind == "physical" and missing:
                raise ConfigError(f"physical configuration {name!r} needs material {missing[0]!r}, "
                                  "which [materials] does not define")


def _materials(sec: dict, rho2: float, c2: float) -> dict:
    """The models of [materials] by name: a built-in one by its table name, or
    polynomials from the five ``name.coefficient`` keys."""
    names = _str_list(sec.pop("names", "")) or sorted({key.partition(".")[0] for key in sec})
    for key in sec:
        name, dot, coefficient = key.partition(".")
        if name not in names or dot and (coefficient not in COEFFICIENT_NAMES or name in sec):
            raise ConfigError(f"[materials] {key} is neither a built-in material in names nor a "
                              f"coefficient ({', '.join(COEFFICIENT_NAMES)}) of a polynomial one")
    return {name: builtin_material(sec[name], rho2, c2) if name in sec
            else CoefficientModel.polynomials(name, **{key: _values(sec.get(f"{name}.{key}", ""))
                                                       for key in COEFFICIENT_NAMES})
            for name in names}


def _parse_forcing(sec: dict, section: str, base_dir: str) -> SideForcing:
    kind = sec.get("kind", "robin").lower()
    if kind not in ("robin", "dirichlet"):
        raise ConfigError(f"[{section}] kind must be robin or dirichlet, got {kind!r}")
    unread = [key for key in _ROBIN_TERMS if key in sec]
    if kind == "dirichlet" and unread:
        raise ConfigError(f"[{section}] {unread[0]} does not apply to a Dirichlet side, which never reads it")
    series = ingest_boundary_series(os.path.join(base_dir, sec["series"])) if "series" in sec else None

    def value_fn(key, default=None):
        raw = sec.get(key, default)
        if raw is None:
            return _zero
        if series is not None and raw in series.columns:
            return series.interpolator(raw)
        return parse_time_function(raw)

    u_v = value_fn("u", "1"), value_fn("v", "1")
    if kind == "dirichlet":
        return SideForcing.dirichlet(*u_v)
    return SideForcing.robin(*u_v, **{key: value_fn(key) for key in _ROBIN_TERMS})


def load_config(path) -> CaseConfig:
    """Parse an INI case file into a :class:`CaseConfig`: the kind first, then
    every key through :func:`set_key`, then the composite sections."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        read = cp.read(path)
    except (configparser.Error, UnicodeError) as exc:
        raise ConfigError(f"cannot parse config file {str(path)!r}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    if not cp.has_section("case"):
        raise ConfigError("config needs a [case] section")
    kind = cp["case"].get("kind", "verification").strip().lower()
    if kind not in _KINDS:
        raise ConfigError(f"unknown case kind {kind!r}")
    cfg = CaseConfig(kind=kind, dx=_DX[kind])
    sections = {section: dict(cp[section]) for section in cp.sections()}
    for section, values in sections.items():
        for key, text in values.items():
            set_key(cfg, section, key, text)
        if not any(s == section and cfg.kind in parsers for (s, _), (_, parsers) in _READS.items()):
            raise ConfigError(f"[{section}] does not apply to {cfg.kind} cases, which never read it")

    def numbers(section, **defaults) -> dict:
        return {**defaults, **{key: _number(text) for key, text in sections.get(section, {}).items()}}

    cfg.ns = {scheme: _number(sections.get("schemes", {}).get(f"ns_{scheme}", n), int)
              for scheme, n in cfg.ns.items()}
    if "groups" in sections:
        cfg.groups = DimensionlessGroups(**numbers("groups", fo_m=1.0, fo_t=1.0),
                                         **{f"biot_{side}": BiotSet(**numbers(f"biot.{side}"))
                                            for side in _SIDES})
    constants = numbers("constants", rho2=RHO_WATER, c2=C_WATER)
    if "materials" in sections:
        cfg.materials = _materials(sections["materials"], constants["rho2"], constants["c2"])
    for token in _str_list(sections.get("wall", {}).get("layers", "")):
        name, _, thick = token.partition(":")
        if not thick:
            raise ConfigError(f"layer token {token!r} must look like name:thickness")
        cfg.layers.append((name.strip(), _number(thick)))
    base_dir = os.path.dirname(os.path.abspath(path))
    if cfg.climate_path is not None:    # relative to the case file, as a series is
        cfg.climate_path = os.path.join(base_dir, cfg.climate_path)
    for side in _SIDES:
        if f"forcing.{side}" in sections:
            setattr(cfg, f"forcing_{side}",
                    _parse_forcing(sections[f"forcing.{side}"], f"forcing.{side}", base_dir))
    if "box" in sections:
        box = numbers("box")
        if len(box) < len(_BOX):
            raise ConfigError(f"[box] needs all of {', '.join(_BOX)}")
        cfg.admissible_box = tuple(box[key] for key in _BOX)

    cfg.description = {"source": str(path), "kind": cfg.kind, "title": cfg.title}
    cfg.validate()
    return cfg
